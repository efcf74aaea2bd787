"""Compare two sets of benchmark results, metric by metric.

    python bench/compare.py PARENT.json CHANGE.json

Both files are ``python -m bench run --out F.json`` outputs; each
``--out`` call appends one set, so a file holds one sample per set for
every (workload, metric).  Sample ``i`` of the parent is paired with
sample ``i`` of the change.  Each row gives both sides' median and
quartiles, the pairs the change won, the bound from ``BENCHMARK.json``
and a verdict:

``improved``    the change won at least 9/10 of the pairs (ties count
                for neither) and its median beats the parent's by more
                than the parent's interquartile range;
``unresolved``  either side's interquartile range, relative to its
                median, exceeds the bound, unless every change sample
                beats every parent sample;
``worse``       the change's median is worse than the parent's by more
                than the bound (relative);
``unchanged``   otherwise.

``round_fail_frac`` is compared by its mean: any increase is worse.  The
exit code is 1 when any row is worse, else 0.  Standard library only, so
the file also runs as a plain script.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9


def load_bounds(path: Path = BENCHMARK_JSON) -> Dict[str, Tuple[str, float]]:
    """End-to-end metric -> (better, bound), plus ``round_fail_frac``."""
    spec = json.loads(path.read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["better"], float(m["bound"])) for m in spec["end_to_end"]}
    bounds["round_fail_frac"] = ("lower", 0.0)
    return bounds


def load_samples(path: str) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> one value per set, in set order."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    samples: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for result in doc["sets"]:
        for workload, record in result["workloads"].items():
            for metric, m in record["metrics"].items():
                samples[(workload, metric)].append(float(m["value"]))
    return samples


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _relative(x: float, base: float) -> float:
    if base == 0.0:
        return 0.0 if x == 0.0 else float("inf")
    return x / abs(base)


def verdict(parent: Sequence[float], change: Sequence[float], better: str, bound: float) -> dict:
    """The row for one (workload, metric) pairing."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = sign * (c_med - p_med)
    spread = max(_relative(p_q3 - p_q1, p_med), _relative(c_q3 - c_q1, c_med))
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if bound == 0.0:
        outcome = "worse" if sum(change) / len(change) > sum(parent) / len(parent) else "unchanged"
    elif pairs and wins >= WIN_SHARE * len(pairs) and gain > p_q3 - p_q1 and gain > 0:
        outcome = "improved"
    elif spread > bound and not all_better:
        outcome = "unresolved"
    elif _relative(-gain, p_med) > bound:
        outcome = "worse"
    else:
        outcome = "unchanged"
    return {
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "wins": wins,
        "pairs": len(pairs),
        "bound": bound,
        "verdict": outcome,
    }


def compare(parent_path: str, change_path: str, bounds: Optional[dict] = None) -> List[dict]:
    bounds = bounds if bounds is not None else load_bounds()
    parent, change = load_samples(parent_path), load_samples(change_path)
    rows = []
    for key in sorted(parent):
        workload, metric = key
        if metric not in bounds or key not in change:
            continue
        better, bound = bounds[metric]
        rows.append({"workload": workload, "metric": metric, **verdict(parent[key], change[key], better, bound)})
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare.py PARENT.json CHANGE.json", file=sys.stderr)
        return 2
    rows = compare(argv[0], argv[1])
    print(f"{'workload':<12} {'metric':<20} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} "
          f"{'wins':>7} {'bound':>6}  verdict")
    for r in rows:
        parent, change = ("/".join(f"{v:.4g}" for v in r[side]) for side in ("parent", "change"))
        print(f"{r['workload']:<12} {r['metric']:<20} {parent:>32} {change:>32} "
              f"{r['wins']:>3}/{r['pairs']:<3} {r['bound']:>6.2f}  {r['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
