"""Telemetry sinks.

A sink receives the telemetry session's plain-dict events:

``span``
    one finished span (name, ids, duration, attrs, sim_time).
``round_metrics``
    per-round metric deltas at a round boundary.

The run's sink is its :class:`~repro.obs.ledger.RunLedger`, which
writes both into the ledger file; :class:`InMemorySink` keeps them in a
list for tests and in-process consumers.  ``emit`` may be called
concurrently from pool threads, so every sink serializes internally.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List

__all__ = ["InMemorySink", "Sink"]


class Sink:
    """Interface: receive telemetry events, release resources on close."""

    def emit(self, event: Dict[str, Any]) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release (default: nothing to do)."""


class InMemorySink(Sink):
    """Collects events in a list — the test/in-process consumer."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.events: List[Dict[str, Any]] = []

    def emit(self, event: Dict[str, Any]) -> None:
        with self._lock:
            self.events.append(event)

    def by_type(self, event_type: str) -> List[Dict[str, Any]]:
        """Events of one schema type, in emission order."""
        with self._lock:
            return [e for e in self.events if e.get("type") == event_type]
