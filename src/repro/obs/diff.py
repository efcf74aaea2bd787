"""Cross-run ledger analytics: align, diff, and judge two runs.

Consumes two ``repro.ledger/v2`` files (see :mod:`repro.obs.ledger`),
aligns their committed rounds by round index, and reports:

* **provenance** — config keys that differ and whether the two runs
  were produced by the same ``repro`` source digest;
* **metric series** — per-field mean/final deltas over the shared
  rounds (train loss, gradient norm, accuracy, θ̂, Γ̂, …);
* **hotspots** — span self-time deltas computed from each ledger's
  ``span`` events, with a noise-aware relative threshold so timer
  jitter on sub-millisecond spans never reads as a regression;
* a one-word **verdict** (``ok`` / ``regression``) driven by the
  time-like fields only — statistical fields drift with the seed and
  are reported, not judged.

Stdlib-only, layer 0, like the rest of ``repro.obs``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.ledger import LedgerReader
from repro.obs.report import top_hotspots

__all__ = ["diff_ledgers", "render_diff"]

#: record fields judged for the regression verdict (bigger = worse)
TIME_FIELDS = ("wall_time",)

#: absolute floor (seconds) below which span self-time deltas are noise
HOTSPOT_NOISE_FLOOR = 5e-3


def _numeric_fields(rounds: List[Dict[str, Any]]) -> List[str]:
    fields: List[str] = []
    for event in rounds:
        for key, value in event.get("record", {}).items():
            if isinstance(value, (int, float)) and key not in fields:
                fields.append(key)
    return fields


def _series(
    rounds: List[Dict[str, Any]], field: str
) -> Dict[int, float]:
    out: Dict[int, float] = {}
    for event in rounds:
        value = event.get("record", {}).get(field)
        if isinstance(value, (int, float)) and math.isfinite(value):
            out[event["round"]] = float(value)
    return out


def _mean(values: List[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def _rel_delta(a: float, b: float) -> float:
    denominator = max(abs(a), 1e-12)
    return (b - a) / denominator


def _hotspot_table(reader: LedgerReader) -> Dict[str, float]:
    """name -> total self seconds over the ledger's span events."""
    rows = top_hotspots(reader.events, k=None)
    return {row["name"]: row["self"] for row in rows}


def diff_ledgers(
    path_a: str,
    path_b: str,
    *,
    rel_threshold: float = 0.25,
) -> Dict[str, Any]:
    """Full structured diff of two ledgers (A = baseline, B = candidate).

    ``rel_threshold`` is the noise-aware bar: a time-like field or
    hotspot must regress by more than this fraction — *and*, for
    hotspots, by more than :data:`HOTSPOT_NOISE_FLOOR` seconds — to
    count against the verdict.
    """
    a = LedgerReader(path_a)
    b = LedgerReader(path_b)
    errors = a.validate() + b.validate()
    if errors:
        raise ValueError("invalid ledger(s): " + "; ".join(errors))

    rounds_a, rounds_b = a.rounds(), b.rounds()
    shared = sorted(
        {e["round"] for e in rounds_a} & {e["round"] for e in rounds_b}
    )

    # -- provenance ---------------------------------------------------
    man_a = (a.manifest or {})
    man_b = (b.manifest or {})
    cfg_a, cfg_b = man_a.get("config", {}), man_b.get("config", {})
    config_deltas = {
        key: {"a": cfg_a.get(key), "b": cfg_b.get(key)}
        for key in sorted(set(cfg_a) | set(cfg_b))
        if cfg_a.get(key) != cfg_b.get(key)
    }
    digest_a = man_a.get("packages", {}).get("repro_source_sha256")
    digest_b = man_b.get("packages", {}).get("repro_source_sha256")

    # -- metric series ------------------------------------------------
    metrics: Dict[str, Dict[str, Any]] = {}
    fields = _numeric_fields(rounds_a + rounds_b)
    for field in fields:
        if field == "round_index":
            continue
        series_a = _series(rounds_a, field)
        series_b = _series(rounds_b, field)
        common = [r for r in shared if r in series_a and r in series_b]
        if not common:
            continue
        mean_a = _mean([series_a[r] for r in common])
        mean_b = _mean([series_b[r] for r in common])
        assert mean_a is not None and mean_b is not None
        entry: Dict[str, Any] = {
            "mean_a": mean_a,
            "mean_b": mean_b,
            "delta": mean_b - mean_a,
            "rel_delta": _rel_delta(mean_a, mean_b),
            "final_a": series_a[common[-1]],
            "final_b": series_b[common[-1]],
            "rounds": len(common),
        }
        if field in TIME_FIELDS:
            entry["regression"] = entry["rel_delta"] > rel_threshold
        metrics[field] = entry

    # -- hotspots -----------------------------------------------------
    spots_a = _hotspot_table(a)
    spots_b = _hotspot_table(b)
    hotspots: Dict[str, Dict[str, Any]] = {}
    for name in sorted(set(spots_a) | set(spots_b)):
        sa = spots_a.get(name, 0.0)
        sb = spots_b.get(name, 0.0)
        delta = sb - sa
        # A span present on only one side is a *structural* change
        # (different executor, new instrumentation): a relative delta
        # against a zero baseline is meaningless, so these are reported
        # with a status and excluded from the regression verdict — the
        # total still shows up in the judged wall_time field.
        if name not in spots_a:
            status = "new"
        elif name not in spots_b:
            status = "vanished"
        else:
            status = "both"
        entry = {
            "self_a": sa,
            "self_b": sb,
            "delta": delta,
            "rel_delta": _rel_delta(sa, sb) if status == "both" else None,
            "status": status,
            "regression": (
                status == "both"
                and delta > HOTSPOT_NOISE_FLOOR
                and _rel_delta(sa, sb) > rel_threshold
            ),
        }
        hotspots[name] = entry

    regressions = sorted(
        [f for f, m in metrics.items() if m.get("regression")]
        + [f"span:{n}" for n, h in hotspots.items() if h["regression"]]
    )
    return {
        "a": path_a,
        "b": path_b,
        "run_a": man_a.get("run_id"),
        "run_b": man_b.get("run_id"),
        "shared_rounds": len(shared),
        "rounds_a": len(rounds_a),
        "rounds_b": len(rounds_b),
        "alerts_a": len(a.alerts()),
        "alerts_b": len(b.alerts()),
        "same_source": bool(digest_a) and digest_a == digest_b,
        "config_deltas": config_deltas,
        "metrics": metrics,
        "hotspots": hotspots,
        "rel_threshold": rel_threshold,
        "regressions": regressions,
        "verdict": "regression" if regressions else "ok",
    }


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value:.6g}"


def render_diff(result: Dict[str, Any], *, top: int = 10) -> str:
    """Human-readable rendering of a :func:`diff_ledgers` result."""
    lines: List[str] = []
    lines.append(
        f"ledger diff: A={result['a']} (run {result['run_a']})  vs  "
        f"B={result['b']} (run {result['run_b']})"
    )
    lines.append(
        f"rounds: {result['rounds_a']} vs {result['rounds_b']} "
        f"({result['shared_rounds']} aligned)  alerts: "
        f"{result['alerts_a']} vs {result['alerts_b']}  same-source: "
        f"{'yes' if result['same_source'] else 'NO'}"
    )
    if result["config_deltas"]:
        lines.append("config deltas:")
        for key, pair in result["config_deltas"].items():
            lines.append(f"  {key}: {pair['a']!r} -> {pair['b']!r}")
    if result["metrics"]:
        lines.append("metric series (mean over aligned rounds):")
        lines.append(
            f"  {'field':<28} {'A':>12} {'B':>12} {'delta%':>8}"
        )
        for field, m in sorted(result["metrics"].items()):
            flag = "  << regression" if m.get("regression") else ""
            lines.append(
                f"  {field:<28} {_fmt(m['mean_a']):>12} "
                f"{_fmt(m['mean_b']):>12} {100 * m['rel_delta']:>7.1f}%"
                f"{flag}"
            )
    spots: List[Tuple[str, Dict[str, Any]]] = sorted(
        result["hotspots"].items(),
        key=lambda kv: abs(kv[1]["delta"]),
        reverse=True,
    )[:top]
    if spots:
        lines.append("span self-time:")
        lines.append(
            f"  {'span':<28} {'A (s)':>10} {'B (s)':>10} {'delta%':>8}"
        )
        for name, h in spots:
            flag = "  << regression" if h["regression"] else ""
            if h["rel_delta"] is None:
                shown = "new" if h["status"] == "new" else "gone"
                lines.append(
                    f"  {name:<28} {h['self_a']:>10.4f} "
                    f"{h['self_b']:>10.4f} {shown:>8}{flag}"
                )
            else:
                lines.append(
                    f"  {name:<28} {h['self_a']:>10.4f} "
                    f"{h['self_b']:>10.4f} "
                    f"{100 * h['rel_delta']:>7.1f}%{flag}"
                )
    verdict = result["verdict"]
    if verdict == "ok":
        lines.append(
            f"verdict: ok (no time-like field beyond "
            f"{100 * result['rel_threshold']:.0f}% threshold)"
        )
    else:
        lines.append(
            "verdict: REGRESSION in " + ", ".join(result["regressions"])
        )
    return "\n".join(lines)
