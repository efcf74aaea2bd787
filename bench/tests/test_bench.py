"""Tests of the benchmark itself: ``pytest bench/tests`` from the repo root.

The smoke tests start ``python -m bench`` itself (tiny workloads, fresh
subprocesses); the rest are in-process unit tests.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from bench import compare, run, workloads
from bench.trace import Span, Tracer, covered_length, self_times

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "bench", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# -- BENCHMARK.json agrees with the code ---------------------------------


def test_benchmark_json_matches_code():
    assert SPEC["command"] == ["python3", "-m", "bench", "run"]
    assert SPEC["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.LINE_LAYER)
    assert all(m["unit"] == run.LAYER_UNITS[m["name"]] for m in SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


# -- smoke runs through python -m bench ---------------------------------


@pytest.fixture(scope="module")
def traced_smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    proc = _bench("trace", "--smoke", "--out", str(out))
    return proc, json.loads(out.read_text(encoding="utf-8"))


def test_smoke_runs_every_workload_with_the_declared_metrics(traced_smoke):
    proc, doc = traced_smoke
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = _last_json(proc.stdout)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    result = doc["sets"][-1]
    assert list(result["workloads"]) == list(workloads.NAMES)
    e2e = set(run.END_TO_END) | {"round_fail_frac"}
    for name, record in result["workloads"].items():
        assert set(record["metrics"]) == e2e, name
        assert [k.split(".", 1)[1] for k in line["metrics"] if k.startswith(name + ".")] == [
            m["name"] for m in SPEC["per_layer"]
        ]
        for m in SPEC["per_layer"]:
            assert line["metrics"][f"{name}.{m['name']}"]["unit"] == m["unit"]


def test_traced_digest_equals_untraced(traced_smoke):
    _, doc = traced_smoke
    for name, record in doc["sets"][-1]["workloads"].items():
        digests = {r["digest"] for r in record["runs"]}
        assert digests == {record["traced_run"]["digest"]}, name


def test_untraced_line_carries_end_to_end_metrics():
    proc = _bench("run", "--smoke", "--workload", "eval-sweep")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = _last_json(proc.stdout)
    assert {k: v["unit"] for k, v in line["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("run", "--workload", "fig2-mlr", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- self-time arithmetic ------------------------------------------------


def test_covered_length_merges_and_clips():
    assert covered_length([(1, 4), (2, 6), (5, 9)], 0, 10) == 8
    assert covered_length([(1, 4), (8, 12)], 2, 10) == 4
    assert covered_length([], 0, 1) == 0


def test_self_time_on_hand_built_tree_with_pool_thread_children():
    main, pool = 1, 2
    spans = [
        Span(1, "fl.executor.run_round", 0.0, 10.0, None, 1, main),
        Span(2, "core.local.solve", 1.0, 4.0, 1, 1, main),
        # pool-thread solves, parented to the submitting run_round span;
        # they overlap each other and the main-thread child
        Span(3, "core.local.solve", 2.0, 6.0, 1, 1, pool),
        Span(4, "core.local.solve", 5.0, 9.0, 1, 1, pool),
        Span(5, "models.grad", 2.5, 3.5, 3, 1, pool),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 8.0)  # union of [1,4],[2,6],[5,9]
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(4.0 - 1.0)
    assert selfs[4] == pytest.approx(4.0)
    assert selfs[5] == pytest.approx(1.0)


def test_tracer_parents_pool_thread_spans_to_run_round():
    tracer = Tracer()
    solve = tracer.wrap("core.local.solve", lambda: None)

    def run_round():
        worker = threading.Thread(target=solve)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        solve()

    tracer.wrap("fl.executor.run_round", run_round, pool_root=True)()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (root,) = by_name["fl.executor.run_round"]
    assert root.parent is None and tracer.pool_parent is None
    assert [s.parent for s in by_name["core.local.solve"]] == [root.id, root.id]
    assert len({s.thread for s in by_name["core.local.solve"]}) == 2


# -- compare.py verdicts -------------------------------------------------

BOUNDS = {
    "round_s_p50": ("lower", 0.10),
    "client_steps_per_s": ("higher", 0.10),
    "round_fail_frac": ("lower", 0.0),
}


def _write_sets(path: Path, series: dict) -> str:
    count = len(next(iter(series.values())))
    sets = []
    for i in range(count):
        metrics = {name: {"value": values[i], "unit": "x"} for name, values in series.items()}
        sets.append({"workloads": {"w": {"metrics": metrics}}})
    path.write_text(json.dumps({"schema": run.SCHEMA, "sets": sets}), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "metric, parent, change, expected",
    [
        # clear gain: every pair won, gap far beyond the parent's IQR
        ("round_s_p50", [1.0 + 0.01 * i for i in range(10)], [0.8 + 0.01 * i for i in range(10)], "improved"),
        ("client_steps_per_s", [100.0 + i for i in range(10)], [130.0 + i for i in range(10)], "improved"),
        # 30% slower against a 10% bound
        ("round_s_p50", [1.0 + 0.01 * i for i in range(10)], [1.3 + 0.01 * i for i in range(10)], "worse"),
        # within the bound and not a clear gain
        ("round_s_p50", [1.0 + 0.01 * i for i in range(10)], [1.01 + 0.01 * i for i in range(10)], "unchanged"),
        # the parent's own spread exceeds the bound
        ("round_s_p50", [1.0, 1.6] * 5, [1.1, 1.7] * 5, "unresolved"),
        # any new failure is worse
        ("round_fail_frac", [0.0] * 10, [0.0] * 9 + [0.05], "worse"),
        ("round_fail_frac", [0.0] * 10, [0.0] * 10, "unchanged"),
    ],
)
def test_compare_verdicts(tmp_path, metric, parent, change, expected):
    a = _write_sets(tmp_path / "parent.json", {metric: parent})
    b = _write_sets(tmp_path / "change.json", {metric: change})
    (row,) = compare.compare(a, b, BOUNDS)
    assert row["verdict"] == expected
    assert row["pairs"] == 10


def test_gain_needs_nine_of_ten_pair_wins(tmp_path):
    parent = [1.0 + 0.01 * i for i in range(10)]
    change = [0.8 + 0.01 * i for i in range(8)] + [2.0, 2.0]  # wins 8/10
    a = _write_sets(tmp_path / "parent.json", {"round_s_p50": parent})
    b = _write_sets(tmp_path / "change.json", {"round_s_p50": change})
    (row,) = compare.compare(a, b, BOUNDS)
    assert row["wins"] == 8 and row["verdict"] != "improved"


def test_compare_cli_uses_benchmark_bounds(tmp_path):
    series = {"setup_s": [1.0] * 10, "round_fail_frac": [0.0] * 10}
    a = _write_sets(tmp_path / "parent.json", series)
    b = _write_sets(tmp_path / "change.json", {"setup_s": [2.0] * 10, "round_fail_frac": [0.0] * 10})
    assert compare.main([a, a]) == 0
    assert compare.main([a, b]) == 1
