"""Interleaving stress: thread-pool rounds must be bit-identical to
sequential under barrier-forced contention, with no shm orphans.

Drives the same entry points as ``python -m tools.racecheck`` (the CI
smoke job); see that module's docstring for the stress design.
"""

import numpy as np
import pytest

from repro.fl.executor import SequentialExecutor
from tools.racecheck import (
    BarrierThreadExecutor,
    audit_shm_leaks,
    build_problem,
    run_once,
    stress_bit_identity,
)

SEED = 7
ROUNDS = 3
DEVICES = 8


@pytest.fixture(scope="module")
def problem():
    return build_problem(DEVICES, SEED)


@pytest.fixture(scope="module")
def reference(problem):
    dataset, model_factory = problem
    return run_once(
        dataset,
        model_factory,
        SequentialExecutor(),
        seed=SEED,
        num_rounds=ROUNDS,
    )


class TestBitIdentityUnderContention:
    # Two worker counts, per the acceptance criteria: a width below the
    # cohort size (real queueing) and one at/above it (full fan-out).
    @pytest.mark.parametrize("workers", [2, 8])
    def test_barrier_stressed_threads_match_sequential(
        self, problem, reference, workers
    ):
        dataset, model_factory = problem
        ref_losses, ref_w = reference
        losses, w = run_once(
            dataset,
            model_factory,
            BarrierThreadExecutor(model_factory, max_workers=workers),
            seed=SEED,
            num_rounds=ROUNDS,
        )
        assert losses == ref_losses  # exact float equality, not allclose
        assert w.dtype == ref_w.dtype
        np.testing.assert_array_equal(w, ref_w)

    def test_repeated_stress_runs_stay_identical(self):
        failures = stress_bit_identity(
            worker_counts=[3],
            num_devices=DEVICES,
            num_rounds=2,
            repeats=3,
            seed=SEED,
        )
        assert failures == []


class TestShmLeakAudit:
    def test_failure_injected_arena_leaves_no_orphans(self):
        assert audit_shm_leaks(seed=SEED) == []

    def test_audit_reports_deliberate_orphan(self, monkeypatch):
        # The audit must be able to *detect* a leak, not just pass on
        # healthy code: disarm ShmArena.close and expect every injected
        # segment to be reported (then clean them up).
        import tools.racecheck as racecheck
        from repro.backend.shm import ArraySpec, ShmArena, attach_array

        monkeypatch.setattr(ShmArena, "close", lambda self: None)
        orphans = racecheck.audit_shm_leaks(num_segments=2, seed=SEED)
        monkeypatch.undo()
        assert len(orphans) == 2
        for name in orphans:
            _, handle = attach_array(ArraySpec(name, (64,), "<f8"))
            handle.close()
            handle.unlink()
