"""Stochastic gradient estimators: SGD, SVRG (8b), SARAH (8a).

An estimator is stateful across one *inner loop* (one global iteration
``s`` on one device): :meth:`start_epoch` receives the anchor point and
its full local gradient (Alg. 1 lines 3-4), then :meth:`estimate`
produces ``v_t`` for each sampled minibatch.

The estimators evaluate the model's minibatch gradient at whichever
points their recursion requires:

* SGD    — ``v_t = g_B(w_t)``                      (1 evaluation/step)
* SVRG   — ``v_t = g_B(w_t) - g_B(w_0) + v_0``     (2 evaluations/step)
* SARAH  — ``v_t = g_B(w_t) - g_B(w_{t-1}) + v_{t-1}`` (2 evaluations/step)

``num_evaluations`` counts minibatch gradient evaluations, which is the
computation-delay unit ``d_cmp`` of §4.3.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.models.base import Model


class GradientEstimator(ABC):
    """Stateful inner-loop gradient estimator."""

    #: human-readable identifier used by factories and result records
    name: str = "abstract"

    def __init__(self) -> None:
        self.num_evaluations = 0

    @abstractmethod
    def start_epoch(self, w0: np.ndarray, full_grad: np.ndarray) -> np.ndarray:
        """Begin an inner loop at anchor ``w0`` with ``v_0 = full_grad``.

        Returns ``v_0`` (a defensive copy — the caller may mutate it).
        """

    @abstractmethod
    def estimate(
        self,
        model: Model,
        X_batch: np.ndarray,
        y_batch: np.ndarray,
        w_t: np.ndarray,
    ) -> np.ndarray:
        """Produce ``v_t`` for the current iterate and minibatch."""

    def reset_counter(self) -> None:
        """Zero the gradient-evaluation counter."""
        self.num_evaluations = 0


class SGDEstimator(GradientEstimator):
    """Vanilla stochastic gradient: ``v_t = g_B(w_t)`` (no reduction)."""

    name = "sgd"

    def start_epoch(self, w0: np.ndarray, full_grad: np.ndarray) -> np.ndarray:
        return np.array(full_grad, dtype=np.float64, copy=True)

    def estimate(self, model, X_batch, y_batch, w_t):
        self.num_evaluations += 1
        return model.gradient(w_t, X_batch, y_batch)


class SVRGEstimator(GradientEstimator):
    """Variance-reduced gradient anchored at ``w_0`` (eq. (8b))."""

    name = "svrg"

    def __init__(self) -> None:
        super().__init__()
        self._w0: Optional[np.ndarray] = None
        self._v0: Optional[np.ndarray] = None

    def start_epoch(self, w0, full_grad):
        self._w0 = np.array(w0, dtype=np.float64, copy=True)
        self._v0 = np.array(full_grad, dtype=np.float64, copy=True)
        return self._v0.copy()

    def estimate(self, model, X_batch, y_batch, w_t):
        if self._w0 is None or self._v0 is None:
            raise ConfigurationError("estimate() called before start_epoch()")
        self.num_evaluations += 2
        g_now = model.gradient(w_t, X_batch, y_batch)
        g_anchor = model.gradient(self._w0, X_batch, y_batch)
        # ``(g_now - g_anchor) + v_0`` into the fresh ``g_now``: the same
        # two elementwise ops in the same order, without two temporaries.
        np.subtract(g_now, g_anchor, out=g_now)
        return np.add(g_now, self._v0, out=g_now)


class SARAHEstimator(GradientEstimator):
    """Recursive stochastic gradient (eq. (8a)).

    Unlike SVRG, the control variate tracks the *previous iterate*, so
    the estimator keeps ``(w_{t-1}, v_{t-1})`` and updates them on every
    call.
    """

    name = "sarah"

    def __init__(self) -> None:
        super().__init__()
        self._w_prev: Optional[np.ndarray] = None
        self._v_prev: Optional[np.ndarray] = None

    def start_epoch(self, w0, full_grad):
        self._w_prev = np.array(w0, dtype=np.float64, copy=True)
        self._v_prev = np.array(full_grad, dtype=np.float64, copy=True)
        return self._v_prev.copy()

    def estimate(self, model, X_batch, y_batch, w_t):
        if self._w_prev is None or self._v_prev is None:
            raise ConfigurationError("estimate() called before start_epoch()")
        self.num_evaluations += 2
        g_now = model.gradient(w_t, X_batch, y_batch)
        g_prev = model.gradient(self._w_prev, X_batch, y_batch)
        np.subtract(g_now, g_prev, out=g_now)
        v_t = np.add(g_now, self._v_prev, out=g_now)
        self._w_prev = np.array(w_t, dtype=np.float64, copy=True)
        self._v_prev = v_t
        return v_t.copy()


class BatchedGradientEstimator(ABC):
    """Stacked-cohort counterpart of :class:`GradientEstimator`.

    Operates on ``(K, D)`` parameter/gradient stacks — one row per
    client of a homogeneous cohort — with minibatch gradients supplied
    by a :class:`repro.models.batched.BatchKernel`-shaped callable.
    Row ``k`` of every update reproduces, bit for bit, the arithmetic
    the sequential estimator performs for client ``k``: the recursions
    (8a)/(8b) are elementwise, so stacking K clients changes nothing
    but the array rank.

    ``num_evaluations`` counts minibatch gradient evaluations *per
    client* (the same number for every row), matching the sequential
    estimator's ``d_cmp`` bookkeeping.
    """

    #: mirrors the sequential estimator's ``name``
    name: str = "abstract"

    def __init__(self) -> None:
        self.num_evaluations = 0

    @abstractmethod
    def start_epoch(self, W0: np.ndarray, full_grads: np.ndarray) -> np.ndarray:
        """Begin K inner loops at anchor stack ``W0`` with ``V_0`` rows."""

    @abstractmethod
    def estimate(
        self,
        kernel,
        X_batch: np.ndarray,
        y_batch: np.ndarray,
        W_t: np.ndarray,
    ) -> np.ndarray:
        """Produce the ``(K, D)`` stack of ``v_t`` for the minibatch stack."""


class BatchedSGDEstimator(BatchedGradientEstimator):
    """Stacked vanilla stochastic gradient: ``v_t = g_B(w_t)`` per row.

    The returned stack is a reused buffer, valid until the next
    ``estimate`` call (all batched estimators share this contract — the
    cohort solvers consume ``v_t`` before sampling the next minibatch).
    """

    name = "sgd"

    def __init__(self) -> None:
        super().__init__()
        self._g: Optional[np.ndarray] = None

    def start_epoch(self, W0, full_grads):
        self._g = np.empty_like(np.asarray(full_grads, dtype=np.float64))
        return np.array(full_grads, dtype=np.float64, copy=True)

    def estimate(self, kernel, X_batch, y_batch, W_t):
        self.num_evaluations += 1
        if self._g is None or self._g.shape != W_t.shape:
            self._g = np.empty_like(W_t)
        return kernel.gradient_stack(W_t, X_batch, y_batch, out=self._g)


class BatchedSVRGEstimator(BatchedGradientEstimator):
    """Stacked SVRG (8b): each row anchored at its client's ``w_0``.

    ``estimate`` computes ``(g_now - g_anchor) + v_0`` with the same
    elementwise operation order as the sequential estimator, into
    reused buffers — each returned row is bit-identical and valid until
    the next ``estimate`` call.
    """

    name = "svrg"

    def __init__(self) -> None:
        super().__init__()
        self._W0: Optional[np.ndarray] = None
        self._V0: Optional[np.ndarray] = None
        self._g_now: Optional[np.ndarray] = None
        self._g_anchor: Optional[np.ndarray] = None

    def start_epoch(self, W0, full_grads):
        self._W0 = np.array(W0, dtype=np.float64, copy=True)
        self._V0 = np.array(full_grads, dtype=np.float64, copy=True)
        self._g_now = np.empty_like(self._V0)
        self._g_anchor = np.empty_like(self._V0)
        return self._V0.copy()

    def estimate(self, kernel, X_batch, y_batch, W_t):
        if self._W0 is None or self._V0 is None:
            raise ConfigurationError("estimate() called before start_epoch()")
        self.num_evaluations += 2
        g_now = kernel.gradient_stack(W_t, X_batch, y_batch, out=self._g_now)
        g_anchor = kernel.gradient_stack(
            self._W0, X_batch, y_batch, out=self._g_anchor
        )
        np.subtract(g_now, g_anchor, out=g_now)
        np.add(g_now, self._V0, out=g_now)
        return g_now


class BatchedSARAHEstimator(BatchedGradientEstimator):
    """Stacked SARAH (8a): rows track their client's previous iterate.

    Buffers rotate: the stack holding ``v_t`` becomes the retained
    ``v_{t-1}`` of the next step, and the retired ``v_{t-2}`` buffer is
    recycled for the next gradient evaluation.  Operation order matches
    the sequential ``g_now - g_prev + v_prev`` exactly.
    """

    name = "sarah"

    def __init__(self) -> None:
        super().__init__()
        self._W_prev: Optional[np.ndarray] = None
        self._V_prev: Optional[np.ndarray] = None
        self._g_now: Optional[np.ndarray] = None
        self._g_prev: Optional[np.ndarray] = None

    def start_epoch(self, W0, full_grads):
        self._W_prev = np.array(W0, dtype=np.float64, copy=True)
        self._V_prev = np.array(full_grads, dtype=np.float64, copy=True)
        self._g_now = np.empty_like(self._V_prev)
        self._g_prev = np.empty_like(self._V_prev)
        return self._V_prev.copy()

    def estimate(self, kernel, X_batch, y_batch, W_t):
        if self._W_prev is None or self._V_prev is None:
            raise ConfigurationError("estimate() called before start_epoch()")
        self.num_evaluations += 2
        g_now = kernel.gradient_stack(W_t, X_batch, y_batch, out=self._g_now)
        g_prev = kernel.gradient_stack(
            self._W_prev, X_batch, y_batch, out=self._g_prev
        )
        np.subtract(g_now, g_prev, out=g_now)
        np.add(g_now, self._V_prev, out=g_now)  # g_now holds v_t
        np.copyto(self._W_prev, W_t)
        # Rotate: v_t becomes the retained v_prev; the old v_prev
        # buffer is dead and becomes the next step's g_now scratch.
        self._V_prev, self._g_now = g_now, self._V_prev
        return g_now


_ESTIMATORS = {
    "sgd": SGDEstimator,
    "svrg": SVRGEstimator,
    "sarah": SARAHEstimator,
}

#: sequential estimator class -> its stacked-cohort counterpart
BATCHED_ESTIMATORS = {
    SGDEstimator: BatchedSGDEstimator,
    SVRGEstimator: BatchedSVRGEstimator,
    SARAHEstimator: BatchedSARAHEstimator,
}


def make_estimator(name: str) -> GradientEstimator:
    """Instantiate an estimator by name (``sgd``/``svrg``/``sarah``)."""
    try:
        return _ESTIMATORS[name.lower()]()
    except KeyError:
        raise ConfigurationError(
            f"unknown estimator {name!r}; choices: {sorted(_ESTIMATORS)}"
        ) from None


def make_batched_estimator(sequential_cls: type) -> BatchedGradientEstimator:
    """The stacked counterpart of a sequential estimator class."""
    try:
        return BATCHED_ESTIMATORS[sequential_cls]()
    except KeyError:
        raise ConfigurationError(
            f"no batched counterpart for estimator {sequential_cls.__name__}"
        ) from None
