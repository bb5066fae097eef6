"""Reusable test infrastructure: the seeded chaos driver and the history rules.

Lives in the package (not under ``tests/``) so benchmarks, examples and
scenarios can drive the same fault machinery, and call the same rules, the
test suite uses.
"""

from repro.testing.chaos import (  # noqa: F401
    CHAOS_PROFILES,
    TXN_CHAOS_PROFILES,
    FaultAction,
    FaultSchedule,
    run_chaos,
)
from repro.testing.history import (  # noqa: F401
    History,
    Reader,
    Violation,
    acked_delivered,
    acked_durable,
    check_history,
    delivered_durable,
    delivered_sent,
    key_order,
    no_duplicates,
    offset_order,
    txn_atomic,
)
