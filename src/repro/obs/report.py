"""Render a run ledger: rounds, alerts, span tree and hotspots.

``repro obs-report run.ledger.jsonl`` uses :func:`render_report`.
Spans are aggregated by *name path* (``run > round > local_solve``),
so a 10-round, 20-client run renders as a handful of tree rows with
counts and total/mean durations instead of hundreds of raw spans.
Hotspots rank span names by **self time** (duration minus direct
children), the number that actually says where wall time went.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.ledger import LedgerReader

__all__ = ["render_report", "top_hotspots"]


def _span_events(events: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [e for e in events if e.get("type") == "span"]


#: composite key: span ids are only unique *within* a process (forked
#: workers inherit the parent's id counter), so all id-based lookups key
#: by ``(process, span_id)``; the coordinating process has ``process == ""``
SpanKey = Tuple[str, Optional[int]]


def _span_key(span: Dict[str, Any]) -> SpanKey:
    return (span.get("process", "") or "", span.get("span_id"))


def _parent_key(
    span: Dict[str, Any], by_id: Dict[SpanKey, Dict[str, Any]]
) -> Optional[SpanKey]:
    """Resolve a span's parent key, cross-process aware.

    A worker-process span's ``parent_id`` usually names a span in the
    coordinating process (explicit serialized-context parenting), so if
    the id is unknown within the child's own process, fall back to the
    coordinator's (``""``) namespace.
    """
    parent_id = span.get("parent_id")
    if parent_id is None:
        return None
    own = (span.get("process", "") or "", parent_id)
    # A span is never its own parent: a worker whose *local* id happens
    # to equal the coordinator parent's id must not resolve to itself.
    if own in by_id and own != _span_key(span):
        return own
    home = ("", parent_id)
    if home in by_id and home != _span_key(span):
        return home
    return None


def _name_path(
    span: Dict[str, Any], by_id: Dict[SpanKey, Dict[str, Any]]
) -> Tuple[str, ...]:
    """Ancestor name chain root-first, e.g. ``("run", "round", "eval")``."""
    path = [span.get("name", "?")]
    seen = {_span_key(span)}
    parent_key = _parent_key(span, by_id)
    while parent_key is not None and parent_key not in seen:
        seen.add(parent_key)
        parent = by_id[parent_key]
        path.append(parent.get("name", "?"))
        parent_key = _parent_key(parent, by_id)
    return tuple(reversed(path))


def aggregate_tree(
    events: Iterable[Dict[str, Any]],
) -> Dict[Tuple[str, ...], Dict[str, float]]:
    """Aggregate span events by name path.

    Returns ``{path: {"count": n, "total": secs, "max": secs}}`` sorted
    by path (so parents precede children when rendered in order).
    """
    spans = _span_events(events)
    by_id = {_span_key(s): s for s in spans}
    agg: Dict[Tuple[str, ...], Dict[str, float]] = {}
    for span in spans:
        path = _name_path(span, by_id)
        node = agg.setdefault(path, {"count": 0, "total": 0.0, "max": 0.0})
        dur = float(span.get("duration", 0.0))
        node["count"] += 1
        node["total"] += dur
        if dur > node["max"]:
            node["max"] = dur
    return dict(sorted(agg.items()))


def top_hotspots(
    events: Iterable[Dict[str, Any]], k: Optional[int] = 10
) -> List[Dict[str, Any]]:
    """Span names ranked by total self time (duration − direct children).

    ``k=None`` returns every span name.

    Aggregation is by span *name* across every process and thread in
    the trace — ids only serve to subtract direct-child time, keyed per
    process so an mp-executor trace (where worker spans parent into the
    coordinator's round span) still reports coherent hotspots.
    """
    spans = _span_events(events)
    by_id = {_span_key(s): s for s in spans}
    child_time: Dict[SpanKey, float] = {}
    for span in spans:
        parent_key = _parent_key(span, by_id)
        if parent_key is not None:
            child_time[parent_key] = child_time.get(parent_key, 0.0) + float(
                span.get("duration", 0.0)
            )
    self_time: Dict[str, Dict[str, float]] = {}
    for span in spans:
        dur = float(span.get("duration", 0.0))
        own = max(0.0, dur - child_time.get(_span_key(span), 0.0))
        node = self_time.setdefault(
            span.get("name", "?"), {"count": 0, "self": 0.0, "total": 0.0}
        )
        node["count"] += 1
        node["self"] += own
        node["total"] += dur
    ranked = sorted(self_time.items(), key=lambda kv: -kv[1]["self"])
    if k is not None:
        ranked = ranked[: max(0, int(k))]
    return [{"name": name, **stats} for name, stats in ranked]


def render_span_tree(events: Iterable[Dict[str, Any]]) -> str:
    """The aggregated tree as indented text."""
    agg = aggregate_tree(events)
    if not agg:
        return "(no span events)"
    lines = [f"{'count':>7s} {'total':>10s} {'mean':>10s} {'max':>10s}  span"]
    for path, node in agg.items():
        mean = node["total"] / node["count"] if node["count"] else 0.0
        indent = "  " * (len(path) - 1)
        lines.append(
            f"{int(node['count']):7d} {node['total']:9.4f}s {mean:9.4f}s "
            f"{node['max']:9.4f}s  {indent}{path[-1]}"
        )
    return "\n".join(lines)


def render_hotspots(events: Iterable[Dict[str, Any]], k: int = 10) -> str:
    """The top-k hotspot table as text."""
    rows = top_hotspots(events, k)
    if not rows:
        return "(no span events)"
    lines = [f"{'self':>10s} {'total':>10s} {'count':>7s}  span"]
    for row in rows:
        lines.append(
            f"{row['self']:9.4f}s {row['total']:9.4f}s "
            f"{int(row['count']):7d}  {row['name']}"
        )
    return "\n".join(lines)


def render_report(path: str, *, top: int = 10) -> str:
    """Full ``repro obs-report`` output for one run ledger."""
    reader = LedgerReader(path)
    errors = reader.validate()
    manifest = reader.manifest or {}
    rounds = reader.rounds()
    alerts = reader.alerts()
    lines: List[str] = [
        f"ledger: {path}",
        f"schema: {manifest.get('schema', '(no manifest)')}  "
        f"run: {manifest.get('run_id', '?')}  "
        f"status: {reader.status or '(no end event; crashed?)'}",
    ]
    if errors:
        lines.append("VALIDATION ERRORS:")
        lines.extend(f"  {e}" for e in errors)
    config = manifest.get("config", {})
    if config:
        rendered = ", ".join(f"{k}={config[k]!r}" for k in sorted(config))
        lines.append(f"config: {rendered}")
    resume = reader.resume_point()
    lines.append(
        f"rounds committed: {len(rounds)}  last cursor: {resume['cursor']}  "
        f"next round on resume: {resume['next_round']}"
        + ("  [torn final line dropped]" if resume["truncated"] else "")
    )
    if rounds:
        fields = ["train_loss", "grad_norm", "test_accuracy",
                  "mean_achieved_theta", "grad_dissimilarity"]
        lines.append(
            f"  {'round':>6} " + " ".join(f"{f:>18}" for f in fields)
        )
        for event in rounds:
            record = event.get("record", {})
            cells = []
            for field in fields:
                value = record.get(field)
                cells.append(
                    f"{value:>18.6g}" if isinstance(value, (int, float))
                    else f"{'-':>18}"
                )
            lines.append(f"  {event['round']:>6} " + " ".join(cells))
    lines.append(f"alerts: {len(alerts)}")
    for alert in alerts:
        lines.append(
            f"  round {alert.get('round')}: [{alert.get('severity')}] "
            f"{alert.get('monitor')}: {alert.get('message')}"
        )
    sections = [
        "\n".join(lines),
        "span tree\n---------\n" + render_span_tree(reader.events),
        f"top-{top} hotspots (self time)\n-----------------------------\n"
        + render_hotspots(reader.events, top),
    ]
    return "\n\n".join(sections) + "\n"
