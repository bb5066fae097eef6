"""Monitoring: the timestamped event log.

stream2gym logs relevant application events (processing checkpoints, failure
injections, leader elections) through the Python logging facility and
collects network statistics through OpenFlow counters.  The reproduction
gathers the same information in structured form so experiments and tests can
assert on it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List


@dataclass
class LoggedEvent:
    """One timestamped event."""

    time: float
    component: str
    event: str
    details: Dict[str, Any] = field(default_factory=dict)


class EventLog:
    """Cluster-wide, time-ordered event log."""

    def __init__(self) -> None:
        self.events: List[LoggedEvent] = []

    def record(self, time: float, component: str, event: str, **details: Any) -> None:
        self.events.append(
            LoggedEvent(time=time, component=component, event=event, details=details)
        )

    def by_component(self, component: str) -> List[LoggedEvent]:
        return [event for event in self.events if event.component == component]

    def by_event(self, event: str) -> List[LoggedEvent]:
        return [entry for entry in self.events if entry.event == event]

    def between(self, start: float, end: float) -> List[LoggedEvent]:
        return [event for event in self.events if start <= event.time <= end]

    def merge(self, other_events: List[Dict[str, Any]], component: str) -> None:
        """Merge raw event dictionaries (e.g. the coordinator's log)."""
        for entry in other_events:
            details = {k: v for k, v in entry.items() if k not in ("time", "event")}
            self.record(entry["time"], component, entry["event"], **details)

    def sorted(self) -> List[LoggedEvent]:
        return sorted(self.events, key=lambda event: event.time)

    def __len__(self) -> int:
        return len(self.events)
