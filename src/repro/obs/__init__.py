"""repro.obs — structured tracing, metrics, and profiling hooks.

Zero-dependency (stdlib-only) observability for the federated stack.
The package sits at the bottom of the layering DAG beside
``repro.utils``: everything above (``core``, ``fl``, ``nn``, the CLI)
may import it, it imports nothing from ``repro``.

Entry points
------------
:data:`telemetry`
    process-global facade; disabled by default (no-op hot paths).
:func:`Telemetry.configure` / :func:`Telemetry.shutdown`
    start/stop a telemetry session with a list of sinks.
Run ledger (v2)
    :class:`RunLedger` / :class:`LedgerReader` — append-only,
    crash-safe ``repro.ledger/v2`` JSONL with monotonic cursors, and
    the telemetry sink a run writes its spans and metric deltas to;
    :class:`RoundRecord`, the one per-round record, and
    :func:`diverged`, the one divergence rule.
Sinks
    :class:`Sink`, the interface :class:`RunLedger` implements, and
    :class:`InMemorySink`, the in-process consumer tests use.
Reporting
    :func:`repro.obs.report.render_report` renders a ledger's rounds,
    alerts, span tree and hotspots (``repro obs-report``).
Runtime monitors (v2)
    :class:`MonitorSuite` and the detectors behind
    :func:`default_monitor_suite` (Theorem-1 contraction, θ drift,
    σ̄² drift, divergence, straggler anomalies).
Cross-run analytics (v2)
    :func:`repro.obs.diff.diff_ledgers` /
    :func:`repro.obs.diff.render_diff` (``repro obs-diff``).
"""

from repro.obs.diff import diff_ledgers, render_diff
from repro.obs.facade import Telemetry, telemetry
from repro.obs.ledger import (
    LEDGER_SCHEMA,
    LedgerError,
    LedgerReader,
    RoundRecord,
    RunLedger,
    diverged,
)
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.sinks import InMemorySink, Sink
from repro.obs.monitors import (
    Alert,
    MonitorFailFast,
    MonitorSuite,
    default_monitor_suite,
)
from repro.obs.trace import NOOP_SPAN, NoopSpan, Span, Tracer

__all__ = [
    "Alert",
    "Counter",
    "DEFAULT_TIME_BUCKETS",
    "Gauge",
    "Histogram",
    "InMemorySink",
    "LEDGER_SCHEMA",
    "LedgerError",
    "LedgerReader",
    "MetricsRegistry",
    "MonitorFailFast",
    "MonitorSuite",
    "NOOP_SPAN",
    "NoopSpan",
    "RoundRecord",
    "RunLedger",
    "Sink",
    "Span",
    "Telemetry",
    "Tracer",
    "default_monitor_suite",
    "diff_ledgers",
    "diverged",
    "render_diff",
    "telemetry",
]
