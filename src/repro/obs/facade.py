"""The process-global :class:`Telemetry` facade.

All instrumentation in the federated stack goes through the module
singleton :data:`telemetry`.  While disabled (the default) every entry
point degenerates to one attribute check — ``telemetry.enabled`` /
``telemetry.nn_profiling`` are plain instance attributes, not
properties — so hot paths (inner solver loops, layer forwards) pay
essentially nothing and ``repro.core`` stays importable and fast with
``repro.obs`` unconfigured.

Typical session, with the run ledger as the only sink::

    from repro.obs import RunLedger, telemetry

    ledger = RunLedger("run.ledger.jsonl")
    telemetry.configure([ledger])
    try:
        run_federated(..., ledger=ledger)
    finally:
        telemetry.shutdown()
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.obs.metrics import DEFAULT_TIME_BUCKETS, MetricsRegistry
from repro.obs.sinks import Sink
from repro.obs.trace import NOOP_SPAN, Span, Tracer, next_span_id

__all__ = ["Telemetry", "telemetry"]


class Telemetry:
    """Facade tying together tracer, metrics registry, and sinks."""

    def __init__(self) -> None:
        #: fast-path switch; instrumentation must check this first
        self.enabled = False
        #: separate opt-in for per-layer nn timing (hotter than spans)
        self.nn_profiling = False
        self.tracer = Tracer(self._emit_span)
        self.metrics = MetricsRegistry()
        self._sinks: List[Sink] = []
        self._sim_clock: Optional[Any] = None
        self._round_base: Dict[str, Dict[str, Any]] = {}
        self._lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------

    def configure(
        self,
        sinks: Iterable[Sink] = (),
        *,
        nn_profiling: bool = False,
    ) -> "Telemetry":
        """Enable telemetry and route events to ``sinks``.

        Reconfiguring an active session is an error — call
        :meth:`shutdown` first.  Returns ``self`` for chaining.
        """
        if self.enabled:
            raise RuntimeError("telemetry already configured; shutdown() first")
        self._sinks = list(sinks)
        self.metrics.reset()
        with self._lock:
            self._round_base = {}
        self._sim_clock = None
        self.nn_profiling = bool(nn_profiling)
        self.enabled = True
        return self

    def shutdown(self) -> None:
        """Close sinks and disable telemetry.

        ``metrics.snapshot()`` keeps the session's cumulative totals
        until the next :meth:`configure`.
        """
        if not self.enabled:
            return
        self.enabled = False
        self.nn_profiling = False
        sinks, self._sinks = self._sinks, []
        for sink in sinks:
            sink.close()
        self._sim_clock = None

    # -- tracing ------------------------------------------------------

    def span(self, name: str, *, parent: Optional[Span] = None, **attrs: Any):
        """A context-manager span, or the shared no-op when disabled."""
        if not self.enabled:
            return NOOP_SPAN
        return self.tracer.span(name, parent=parent, **attrs)

    def current_span(self) -> Optional[Span]:
        """The innermost open span on this thread (``None`` if disabled)."""
        if not self.enabled:
            return None
        return self.tracer.current()

    def external_span(
        self,
        name: str,
        duration: float,
        *,
        t_wall: float = 0.0,
        parent_id: Optional[int] = None,
        process: str = "",
        thread: str = "",
        **attrs: Any,
    ) -> Optional[int]:
        """Emit a span measured in another process (or otherwise outside
        this tracer), allocating its id parent-side.

        Forked pool workers inherit a copy of the span-id counter, so
        letting workers allocate ids would collide across processes;
        instead workers ship raw timings home and the coordinator calls
        this with the serialized parent context's ``span_id`` (see
        :meth:`Span.context`).  ``process`` names the measuring process
        and lands in the event's ``process`` field so report tooling
        can key span ids per process.  Returns the allocated span id,
        or ``None`` while disabled.
        """
        if not self.enabled:
            return None
        span_id = next_span_id()
        event: Dict[str, Any] = {
            "type": "span",
            "name": name,
            "span_id": span_id,
            "parent_id": parent_id,
            "t_wall": float(t_wall),
            "duration": float(duration),
            "thread": thread or threading.current_thread().name,
            "attrs": attrs,
        }
        if process:
            event["process"] = process
        event["sim_time"] = self.sim_time()
        self._emit(event)
        return span_id

    # -- metrics ------------------------------------------------------

    def counter_add(
        self, name: str, value: float = 1.0, *, key: Optional[str] = None
    ) -> None:
        if self.enabled:
            self.metrics.counter_add(name, value, key=key)

    def gauge_set(
        self, name: str, value: float, *, key: Optional[str] = None
    ) -> None:
        if self.enabled:
            self.metrics.gauge_set(name, value, key=key)

    def observe(
        self,
        name: str,
        value: float,
        *,
        key: Optional[str] = None,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> None:
        if self.enabled:
            self.metrics.observe(name, value, key=key, buckets=buckets)

    # -- simulated time -----------------------------------------------

    def attach_sim_clock(self, clock: Any) -> None:
        """Stamp subsequent events with ``clock``'s simulated time.

        ``clock`` needs a :meth:`snapshot` returning
        ``(elapsed, num_rounds, last_duration)`` —
        :class:`repro.utils.timing.SimulatedClock` qualifies; any
        duck-typed stand-in works (obs sits *below* utils in the
        layering DAG, so the dependency points up via runtime wiring,
        not an import).
        """
        self._sim_clock = clock

    def sim_time(self) -> Optional[float]:
        """Current simulated elapsed seconds, if a clock is attached."""
        clock = self._sim_clock
        if clock is None:
            return None
        elapsed, _, _ = clock.snapshot()
        return float(elapsed)

    # -- round boundaries ---------------------------------------------

    def round_finished(self, round_index: int) -> None:
        """Emit per-round metric deltas at a round boundary."""
        if not self.enabled:
            return
        snap = self.metrics.snapshot()
        with self._lock:
            base, self._round_base = self._round_base, snap
        delta = MetricsRegistry.delta(snap, base)
        self._emit(
            {
                "type": "round_metrics",
                "round": int(round_index),
                "sim_time": self.sim_time(),
                "metrics": delta,
            }
        )

    # -- plumbing -----------------------------------------------------

    def _emit_span(self, span: Span) -> None:
        event = span.to_event()
        event["sim_time"] = self.sim_time()
        self._emit(event)

    def _emit(self, event: Dict[str, Any]) -> None:
        for sink in self._sinks:
            sink.emit(event)


#: the process-global facade every instrumentation site imports
telemetry = Telemetry()
