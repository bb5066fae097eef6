"""Experiment harnesses reproducing every table and figure of the paper.

Each module is a *scenario definition* (see :mod:`repro.scenarios`): a
configuration dataclass, a point function and the labelled grid it runs over
(``scenario_grid``), the reduce of the point outcomes (``scenario_combine``),
all registered under the figure's name, and the reference
shape reported in the paper so that the benchmark harness can check
qualitative agreement (who wins, by roughly what factor, where curves
saturate) rather than absolute numbers.  The legacy ``run_*`` entry points
delegate to the scenario runner and accept ``workers=N`` to shard their
independent points across processes; scale tiers (quick vs paper) are
selected uniformly via :class:`repro.scenarios.ScenarioParams` instead of
per-module constants::

    python -m repro run fig7b --scale paper --workers 4

========================  ==========================================================
Module                    Paper artefact
========================  ==========================================================
``table2_applications``   Table II  — example applications deployed on the tool
``fig5_link_delay``       Figure 5  — word-count latency vs per-component link delay
``fig6_partition``        Figure 6  — network partitioning (delivery, latency, bw)
``fig7a_video_analytics`` Figure 7a — Ichinose et al. reproduction
``fig7b_traffic_monitoring`` Figure 7b — Ocampo et al. reproduction
``fig8_accuracy``         Figure 8  — emulation vs hardware testbed accuracy
``fig9_resources``        Figure 9  — CPU / memory scalability
========================  ==========================================================
"""

from repro.experiments.fig5_link_delay import Fig5Config, run_fig5
from repro.experiments.fig6_partition import Fig6Config, run_fig6, run_mode_comparison
from repro.experiments.fig7a_video_analytics import Fig7aConfig, run_fig7a
from repro.experiments.fig7b_traffic_monitoring import Fig7bConfig, run_fig7b
from repro.experiments.fig8_accuracy import Fig8Config, run_fig8
from repro.experiments.fig9_resources import Fig9Config, run_fig9
from repro.experiments.table2_applications import Table2Config, run_table2

__all__ = [
    "Fig5Config",
    "run_fig5",
    "Fig6Config",
    "run_fig6",
    "run_mode_comparison",
    "Fig7aConfig",
    "run_fig7a",
    "Fig7bConfig",
    "run_fig7b",
    "Fig8Config",
    "run_fig8",
    "Fig9Config",
    "run_fig9",
    "Table2Config",
    "run_table2",
]
