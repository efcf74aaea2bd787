"""reprolint v3: the RL8xx concurrency family — lock discipline
(RL800), RNG escape into executor tasks (RL801), SharedMemory release
paths (RL802), escaped-array mutation (RL803), threading.local reads in
submitted callables (RL804), unordered aggregation (RL805) — plus the
submission edges on the project index.
"""

import textwrap
from pathlib import Path

from tools.reprolint.config import LintConfig
from tools.reprolint.engine import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def make_tree(root: Path, files: dict) -> LintConfig:
    for rel, body in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body), encoding="utf-8")
    return LintConfig(root=root)


def run_lint(root: Path, files: dict):
    config = make_tree(root, files)
    return lint_paths([root / "src"], config), config


def rule_ids(report):
    return [f.rule_id for f in report.findings]


def findings_for(report, rule_id):
    return [f for f in report.findings if f.rule_id == rule_id]


# ---------------------------------------------------------------------------
# RL800 — mixed lock discipline
# ---------------------------------------------------------------------------


class TestLockDiscipline:
    def test_mixed_guarded_unguarded_write_flagged(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/fl/pool.py": """\
                import threading


                class Pool:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.count = 0

                    def bump(self):
                        with self._lock:
                            self.count += 1

                    def reset(self):
                        self.count = 0
                """
            },
        )
        [finding] = findings_for(report, "RL800")
        assert finding.line == 14
        assert "self.count" in finding.message
        assert "self._lock" in finding.message
        assert "Pool.bump" in finding.message

    def test_all_writes_guarded_clean(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/fl/pool.py": """\
                import threading


                class Pool:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.count = 0

                    def bump(self):
                        with self._lock:
                            self.count += 1

                    def reset(self):
                        with self._lock:
                            self.count = 0
                """
            },
        )
        assert findings_for(report, "RL800") == []

    def test_init_writes_exempt(self, tmp_path):
        # Construction happens-before publication: an unguarded write in
        # __init__ must not make every guarded write look "mixed".
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/fl/pool.py": """\
                import threading


                class Pool:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.items = []

                    def add(self, x):
                        with self._lock:
                            self.items.append(x)
                """
            },
        )
        assert findings_for(report, "RL800") == []

    def test_mutator_method_counts_as_write(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/fl/pool.py": """\
                import threading


                class Pool:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.items = []

                    def add(self, x):
                        with self._lock:
                            self.items.append(x)

                    def drop(self):
                        self.items.clear()
                """
            },
        )
        [finding] = findings_for(report, "RL800")
        assert "self.items" in finding.message

    def test_unlocked_class_not_flagged(self, tmp_path):
        # No lock anywhere: nothing to be inconsistent with.
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/fl/pool.py": """\
                class Pool:
                    def __init__(self):
                        self.count = 0

                    def bump(self):
                        self.count += 1
                """
            },
        )
        assert findings_for(report, "RL800") == []


# ---------------------------------------------------------------------------
# RL801 — RNG stream escaping into multiple tasks
# ---------------------------------------------------------------------------


class TestRngCapture:
    def test_one_stream_two_submissions_flagged(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/fl/run.py": """\
                from repro.utils.rng import derive_generator


                def launch(pool, work):
                    rng = derive_generator(7, 0, 0)
                    a = pool.submit(work, rng)
                    b = pool.submit(work, rng)
                    return a, b
                """
            },
        )
        [finding] = findings_for(report, "RL801")
        assert "rng" in finding.message
        assert "derive_generator" in finding.message

    def test_stream_hoisted_above_submission_loop_flagged(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/fl/run.py": """\
                from repro.utils.rng import derive_generator


                def launch(pool, work, n):
                    rng = derive_generator(7, 0, 0)
                    futures = []
                    for i in range(n):
                        futures.append(pool.submit(work, rng))
                    return futures
                """
            },
        )
        [finding] = findings_for(report, "RL801")
        assert "loop" in finding.message

    def test_per_task_stream_in_loop_clean(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/fl/run.py": """\
                from repro.utils.rng import derive_generator


                def launch(pool, work, n, r):
                    futures = []
                    for i in range(n):
                        rng = derive_generator(7, i, r)
                        futures.append(pool.submit(work, rng))
                    return futures
                """
            },
        )
        assert findings_for(report, "RL801") == []

    def test_iterating_spawned_streams_clean(self, tmp_path):
        # The canonical pattern: one pre-spawned stream per task, bound
        # by the loop target.  The spawn call sits outside the loop but
        # each iteration rebinds the name to a different generator.
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/fl/run.py": """\
                from repro.utils.rng import spawn_generators


                def launch(pool, work, n):
                    streams = spawn_generators(7, n)
                    return [pool.submit(work, g) for g in streams]


                def launch_loop(pool, work, n):
                    streams = spawn_generators(7, n)
                    futures = []
                    for g in streams:
                        futures.append(pool.submit(work, g))
                    return futures
                """
            },
        )
        assert findings_for(report, "RL801") == []

    def test_reassigned_stream_between_submissions_clean(self, tmp_path):
        # Distinct generators reused under one name are distinct objects.
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/fl/run.py": """\
                from repro.utils.rng import derive_generator


                def launch(pool, work):
                    rng = derive_generator(7, 0, 0)
                    a = pool.submit(work, rng)
                    rng = derive_generator(7, 1, 0)
                    b = pool.submit(work, rng)
                    return a, b
                """
            },
        )
        assert findings_for(report, "RL801") == []


# ---------------------------------------------------------------------------
# RL802 — SharedMemory release on every path
# ---------------------------------------------------------------------------


class TestSharedMemoryRelease:
    def test_early_return_path_leaks(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/backend/seg.py": """\
                from multiprocessing import shared_memory


                def make(size, skip):
                    shm = shared_memory.SharedMemory(create=True, size=size)
                    if skip:
                        return None
                    shm.close()
                    shm.unlink()
                    return True
                """
            },
        )
        [finding] = findings_for(report, "RL802")
        assert finding.line == 5
        assert "shm" in finding.message

    def test_exception_path_leaks(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/backend/seg.py": """\
                from multiprocessing import shared_memory


                def make(size, fill):
                    try:
                        shm = shared_memory.SharedMemory(create=True, size=size)
                        fill(shm.buf)
                        shm.close()
                    except ValueError:
                        return None
                    return True
                """
            },
        )
        [finding] = findings_for(report, "RL802")
        assert "exception" in finding.message or "path" in finding.message

    def test_try_finally_clean(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/backend/seg.py": """\
                from multiprocessing import shared_memory


                def make(size, fill):
                    shm = shared_memory.SharedMemory(create=True, size=size)
                    try:
                        fill(shm.buf)
                    finally:
                        shm.close()
                        shm.unlink()
                """
            },
        )
        assert findings_for(report, "RL802") == []

    def test_ownership_transfer_clean(self, tmp_path):
        # Storing the handle (or returning it) hands ownership to the
        # caller/container; the scope is no longer responsible.
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/backend/seg.py": """\
                from multiprocessing import shared_memory


                class Arena:
                    def put(self, size):
                        shm = shared_memory.SharedMemory(create=True, size=size)
                        self._segments[shm.name] = shm
                        return shm.name


                def attach(name):
                    shm = shared_memory.SharedMemory(name=name)
                    return shm
                """
            },
        )
        assert findings_for(report, "RL802") == []

    def test_straight_line_close_clean(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/backend/seg.py": """\
                from multiprocessing import shared_memory


                def probe(name):
                    shm = shared_memory.SharedMemory(name=name)
                    n = shm.size
                    shm.close()
                    return n
                """
            },
        )
        assert findings_for(report, "RL802") == []


# ---------------------------------------------------------------------------
# RL803 — in-place mutation of executor-escaped values
# ---------------------------------------------------------------------------


class TestEscapedMutation:
    def test_mutation_after_submission_flagged(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/fl/scratch.py": """\
                import numpy as np


                def launch(pool, work, buf):
                    fut = pool.submit(work, buf)
                    buf += 1.0
                    return fut
                """
            },
        )
        [finding] = findings_for(report, "RL803")
        assert finding.line == 6
        assert "buf" in finding.message

    def test_mutation_inside_submission_loop_flagged(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/fl/scratch.py": """\
                def launch(pool, work, buf, n):
                    futures = []
                    for i in range(n):
                        buf[i] = float(i)
                        futures.append(pool.submit(work, buf))
                    return futures
                """
            },
        )
        assert len(findings_for(report, "RL803")) == 1

    def test_mutation_before_submission_clean(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/fl/scratch.py": """\
                def launch(pool, work, buf):
                    buf += 1.0
                    buf.fill(0.0)
                    return pool.submit(work, buf)
                """
            },
        )
        assert findings_for(report, "RL803") == []

    def test_out_kwarg_counts_as_mutation(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/fl/scratch.py": """\
                import numpy as np


                def launch(pool, work, buf, delta):
                    fut = pool.submit(work, buf)
                    np.add(buf, delta, out=buf)
                    return fut
                """
            },
        )
        assert len(findings_for(report, "RL803")) >= 1


# ---------------------------------------------------------------------------
# RL804 — threading.local read from a submitted callable
# ---------------------------------------------------------------------------


class TestThreadLocalEscape:
    def test_submitted_function_reading_threadlocal_flagged(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/obs/ctx.py": """\
                import threading


                class _Ctx(threading.local):
                    def __init__(self):
                        self.items = []


                _ctx = _Ctx()


                def task(x):
                    return len(_ctx.items) + x


                def launch(pool, n):
                    futures = []
                    for i in range(n):
                        futures.append(pool.submit(task, i))
                    return futures
                """
            },
        )
        [finding] = findings_for(report, "RL804")
        assert "task" in finding.message
        assert "threading.local" in finding.message

    def test_unsubmitted_reader_clean(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/obs/ctx.py": """\
                import threading


                class _Ctx(threading.local):
                    def __init__(self):
                        self.items = []


                _ctx = _Ctx()


                def current():
                    return _ctx.items[-1] if _ctx.items else None


                def launch(pool, work, n):
                    return [pool.submit(work, i) for i in range(n)]
                """
            },
        )
        assert findings_for(report, "RL804") == []

    def test_cross_module_submission_flagged(self, tmp_path):
        # The reader and the submission live in different modules; the
        # project index's submission edges connect them.
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/obs/ctx.py": """\
                import threading


                class _Ctx(threading.local):
                    def __init__(self):
                        self.items = []


                _ctx = _Ctx()


                def task(x):
                    return len(_ctx.items) + x
                """,
                "src/repro/fl/run.py": """\
                from repro.obs.ctx import task


                def launch(pool, n):
                    return [pool.submit(task, i) for i in range(n)]
                """,
            },
        )
        [finding] = findings_for(report, "RL804")
        assert finding.path.endswith("ctx.py")


# ---------------------------------------------------------------------------
# RL805 — unordered iteration feeding aggregation
# ---------------------------------------------------------------------------


class TestUnorderedAggregation:
    def test_loop_over_set_accumulating_flagged(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/fl/agg.py": """\
                def total(values):
                    out = 0.0
                    for v in set(values):
                        out += v
                    return out
                """
            },
        )
        [finding] = findings_for(report, "RL805")
        assert finding.line == 3

    def test_sum_over_set_comprehension_flagged(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/fl/agg.py": """\
                def total(values):
                    uniq = {v * 2.0 for v in values}
                    return sum(x for x in uniq)
                """
            },
        )
        assert len(findings_for(report, "RL805")) == 1

    def test_sorted_set_clean(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/fl/agg.py": """\
                def total(values):
                    out = 0.0
                    for v in sorted(set(values)):
                        out += v
                    return out
                """
            },
        )
        assert findings_for(report, "RL805") == []

    def test_non_aggregating_set_use_clean(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/fl/agg.py": """\
                def distinct(values):
                    return len(set(values))


                def collect(values):
                    seen = set()
                    for v in values:
                        seen.add(v)
                    return seen
                """
            },
        )
        assert findings_for(report, "RL805") == []

    def test_list_iteration_clean(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/fl/agg.py": """\
                def total(values):
                    out = 0.0
                    for v in list(values):
                        out += v
                    return out
                """
            },
        )
        assert findings_for(report, "RL805") == []


# ---------------------------------------------------------------------------
# Submission edges on the project index
# ---------------------------------------------------------------------------


class TestSubmissionEdges:
    def test_edges_resolve_local_and_imported_callables(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/fl/work.py": """\
                def solve(x):
                    return x * 2
                """,
                "src/repro/fl/run.py": """\
                from repro.fl.work import solve


                def local(x):
                    return x


                def launch(pool, n):
                    a = [pool.submit(solve, i) for i in range(n)]
                    b = [pool.submit(local, i) for i in range(n)]
                    return a, b
                """,
            },
        )
        index = report.index
        edges = index.submission_edges()
        callees = {e.callee for e in edges}
        assert "repro.fl.work.solve" in callees
        assert "repro.fl.run.local" in callees
        submitted = index.submitted_callables()
        assert "solve" in submitted and "local" in submitted
        assert "repro.fl.work.solve" in submitted

    def test_bound_method_submission_recorded_by_bare_name(self, tmp_path):
        report, _ = run_lint(
            tmp_path,
            {
                "src/repro/fl/run.py": """\
                def launch(pool, clients, w):
                    return [pool.submit(c.local_update, w) for c in clients]
                """,
            },
        )
        assert "local_update" in report.index.submitted_callables()
