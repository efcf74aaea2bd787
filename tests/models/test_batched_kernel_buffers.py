"""A batch kernel's work buffers belong to that kernel alone."""

import numpy as np

import repro.models.batched as batched
from repro.models import MultinomialLogisticModel
from repro.models.batched import make_batch_kernel


def _problem(seed, K=4, B=8, f=6, c=3):
    rng = np.random.default_rng(seed)
    models = [MultinomialLogisticModel(f, c) for _ in range(K)]
    W = rng.standard_normal((K, models[0].num_parameters))
    X = rng.standard_normal((K, B, f))
    y = rng.integers(0, c, size=(K, B))
    return make_batch_kernel(models), W, X, y


def test_nested_kernel_call_leaves_outer_scores_alone(monkeypatch):
    """Kernel B's whole ``gradient_stack`` runs inside kernel A's, at the
    same shapes, as two threads' cohort solves can interleave.  A's
    gradient keeps the bytes of an uninterleaved call."""
    kernel_a, W_a, X_a, y_a = _problem(0)
    kernel_b, W_b, X_b, y_b = _problem(1)
    reference = kernel_a.gradient_stack(W_a, X_a, y_a).tobytes()

    chain = batched.softmax_nll_
    entered = []

    def interleaved(*args, **kwargs):
        if not entered:
            entered.append(True)
            kernel_b.gradient_stack(W_b, X_b, y_b)
        return chain(*args, **kwargs)

    monkeypatch.setattr(batched, "softmax_nll_", interleaved)
    assert kernel_a.gradient_stack(W_a, X_a, y_a).tobytes() == reference
    assert entered
