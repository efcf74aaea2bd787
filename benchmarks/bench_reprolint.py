"""Tooling benchmark — reprolint whole-program analysis cost.

The engine does more work per run than per-file rules alone (project
index construction, CFG + fixpoint dataflow per file), so this
benchmark locates where the time goes and guards against the linter
becoming a tax on tier-1 pytest, which runs the full suite as a gate.
Phases timed separately over the real ``src/`` tree:

* parse       — reading + ``ast.parse`` for every file,
* index       — :class:`ProjectIndex` (symbols, import graph, exports),
* dataflow    — CFG build + provenance fixpoint for every module,
* full lint   — the end-to-end engine with every rule family on.

Expected shape: parse and index are linear sweeps and cheap; dataflow
dominates among the analysis phases; the full lint stays within an
order of magnitude of a bare parse (it is all stdlib ``ast``, no I/O
beyond the source read).
"""

import time
from pathlib import Path

from tools.reprolint.config import LintConfig
from tools.reprolint.dataflow import ModuleDataflow
from tools.reprolint.engine import (
    _parse_file,
    build_index,
    iter_python_files,
    lint_paths,
)

from conftest import run_once

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_reprolint_phases(benchmark, save_json):
    # The default configuration, so the clean-tree assertion sees the
    # same layer map / families the CI lint step does.
    config = LintConfig(root=REPO_ROOT)
    paths = sorted(iter_python_files([REPO_ROOT / "src"]))
    assert len(paths) > 20, "src/ tree unexpectedly small"

    def phase(fn):
        start = time.perf_counter()
        out = fn()
        return out, time.perf_counter() - start

    parsed, t_parse = phase(
        lambda: [_parse_file(p, config) for p in paths]
    )
    _, t_index = phase(lambda: build_index(parsed))
    _, t_dataflow = phase(
        lambda: [ModuleDataflow(p.tree) for p in parsed if p.tree is not None]
    )

    # Timed here rather than read from benchmark.stats, which is None
    # under --benchmark-disable.
    report, t_full = phase(
        lambda: run_once(benchmark, lambda: lint_paths([REPO_ROOT / "src"], config))
    )

    per_file_ms = 1e3 * t_full / len(paths)
    print(f"\nreprolint over {len(paths)} files in src/:")
    print(f"  parse      {1e3 * t_parse:8.1f} ms")
    print(f"  index      {1e3 * t_index:8.1f} ms")
    print(f"  dataflow   {1e3 * t_dataflow:8.1f} ms")
    print(f"  full lint  {1e3 * t_full:8.1f} ms  ({per_file_ms:.2f} ms/file)")

    # Shape assertions: the committed tree lints clean and the analysis
    # overhead stays in interactive territory.
    assert report.gating == []
    assert per_file_ms < 200.0

    save_json(
        "bench_reprolint",
        {
            "files": len(paths),
            "parse_s": t_parse,
            "index_s": t_index,
            "dataflow_s": t_dataflow,
            "full_lint_s": t_full,
            "per_file_ms": per_file_ms,
            "findings": len(report.findings),
        },
    )
