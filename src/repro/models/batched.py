"""Vectorized multi-client model kernels for batched cohort solves.

A :class:`BatchKernel` computes the minibatch gradients of ``K``
same-architecture models in one set of stacked-ndarray operations:
parameters live in a ``(K, D)`` stack (one flat vector per client), the
gathered minibatches in a ``(K, B, features)`` stack, and the result is
a ``(K, D)`` gradient stack.

The bit-identity contract
-------------------------
``gradient_stack`` must return, row for row, the *exact same bits* as
``model.gradient(W[k], X[k], y[k])`` would.  That is what lets the
batched cohort executor replace the sequential per-client loop without
changing any result.  The contract holds because every stacked
operation used here reduces per slice to the identical elementary
operation sequence of the 2-D path:

* elementwise ufuncs and broadcasts are trivially per-row identical;
* axis reductions (``max``/``sum`` along the class or batch axis) use
  the same reduction order per slice as the 2-D call;
* stacked ``matmul`` dispatches the *same* BLAS GEMM once per slice.

The one pattern deliberately avoided is replacing a matrix–vector
product (GEMV) with a width-1 GEMM: the two BLAS routines are not
guaranteed to share a summation order.  Models whose gradients are
GEMV-shaped (linear regression, binary SVM) therefore report no cohort
signature and fall back to per-client solves.

Adding a kernel for a new model: implement :class:`BatchKernel`,
give the model a signature in :func:`cohort_signature`, and register it
in :func:`make_batch_kernel`.  The equivalence suite
(``tests/fl/test_executor_equivalence.py``) is the gate.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable, Optional, Sequence

import numpy as np

from repro.exceptions import DimensionMismatchError
from repro.models.base import Model
from repro.models.logistic import MultinomialLogisticModel
from repro.nn.losses import softmax_nll_

__all__ = ["BatchKernel", "LogisticBatchKernel", "cohort_signature", "make_batch_kernel"]


class BatchKernel(ABC):
    """Stacked minibatch-gradient evaluator over K homogeneous models."""

    #: number of clients in the stack
    num_clients: int
    #: flat parameter dimension D (per client)
    num_parameters: int

    @abstractmethod
    def gradient_stack(
        self,
        W: np.ndarray,
        X_batch: np.ndarray,
        y_batch: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-client mean-loss gradients.

        Parameters
        ----------
        W:
            Parameter stack ``(K, D)``.
        X_batch:
            Gathered minibatches ``(K, B, num_features)`` (same ``B``
            for every client — the cohort grouping guarantees it).
        y_batch:
            Labels ``(K, B)``.
        out:
            Optional ``(K, D)`` output buffer (fully overwritten).

        shape: W (K, D) float64, X_batch (K, B, f) float64, y_batch (K, B) -> (K, D) float64
        """


class LogisticBatchKernel(BatchKernel):
    """Stacked softmax-regression gradients (the paper's convex MLR task).

    Mirrors :meth:`MultinomialLogisticModel.gradient` operation by
    operation — scores GEMM, the softmax–NLL chain, feature-transpose
    GEMM, L2 term, bias column sums — so each row of the result is
    bit-identical to the per-client call.  The chain is not copied
    here: both call :func:`repro.nn.losses.softmax_nll_`, which works
    over the last axis, so each ``(B, c)`` slice of the stack runs the
    same elementary ops as the 2-D batch of the sequential model.
    """

    def __init__(self, model: MultinomialLogisticModel) -> None:
        self.num_features = model.num_features
        self.num_classes = model.num_classes
        self.l2 = model.l2
        self.fit_intercept = model.fit_intercept
        self.num_parameters = model.num_parameters
        self._wsize = self.num_features * self.num_classes
        # Per-(K, B) caches — gather indices for the label subtraction
        # plus the scores and softmax-chain work buffers — one kernel
        # serves one cohort, so the geometry is stable after the first
        # call.  The buffers are the kernel's own: two kernels, on one
        # thread or two, never write into each other's scores.
        self._idx_shape: Optional[tuple] = None
        self._index: tuple = ()
        self._scores: Optional[np.ndarray] = None
        self._G: Optional[np.ndarray] = None
        self._red: Optional[np.ndarray] = None

    def _views(self, W: np.ndarray):
        """(K, f, c) weight view and (K, c) bias view of a (K, D) stack."""
        K = W.shape[0]
        W3 = W[:, : self._wsize].reshape(K, self.num_features, self.num_classes)
        b2 = W[:, self._wsize :] if self.fit_intercept else None
        return W3, b2

    # shape: W (K, D) float64, X_batch (K, B, f) float64, y_batch (K, B) -> (K, D) float64
    def gradient_stack(self, W, X_batch, y_batch, out=None):
        K, B, f = X_batch.shape
        if W.shape != (K, self.num_parameters) or f != self.num_features:
            raise DimensionMismatchError(
                f"stack shapes {W.shape} / {X_batch.shape} do not match a "
                f"({K}, {self.num_parameters}) x ({K}, B, {self.num_features}) kernel"
            )
        self.num_clients = K
        W3, b2 = self._views(W)

        if self._idx_shape != (K, B):
            self._idx_shape = (K, B)
            self._index = (np.arange(K)[:, None], np.arange(B)[None, :])
            self._scores = np.empty((K, B, self.num_classes), dtype=np.float64)
            self._G = np.empty((K, B, self.num_classes), dtype=np.float64)
            self._red = np.empty((K, B, 1), dtype=np.float64)

        # A stacked matmul runs the same BLAS GEMM once per slice, so each
        # (B, c) slice of scores has the bits of the 2-D sequential GEMM.
        scores = np.matmul(X_batch, W3, out=self._scores)  # (K, B, c)
        if b2 is not None:
            scores += b2[:, None, :]

        labels = y_batch if y_batch.dtype.kind == "i" else y_batch.astype(int)
        grad_scores = softmax_nll_(scores, labels, self._index, self._G, self._red)

        if out is None:
            out = np.empty((K, self.num_parameters), dtype=np.float64)
        out_W, out_b = self._views(out)
        # grad_W = X^T G (+ l2 W when decay is on — skipped at l2 = 0
        # exactly like the sequential model, so both paths agree).
        np.matmul(np.swapaxes(X_batch, 1, 2), grad_scores, out=out_W)
        if self.l2:
            out_W += self.l2 * W3
        if out_b is not None:
            grad_scores.sum(axis=1, out=out_b)
        return out


def cohort_signature(model: Model) -> Optional[Hashable]:
    """Hashable architecture key, or ``None`` if no batch kernel exists.

    Two models may share a cohort (and a kernel) iff their signatures
    are equal and not ``None``.
    """
    if type(model) is MultinomialLogisticModel:
        return (
            "mlr",
            model.num_features,
            model.num_classes,
            float(model.l2),
            bool(model.fit_intercept),
        )
    return None


def make_batch_kernel(models: Sequence[Model]) -> Optional[BatchKernel]:
    """A kernel over ``models``, or ``None`` when they cannot be batched."""
    if not models:
        return None
    signatures = {cohort_signature(m) for m in models}
    if len(signatures) != 1 or None in signatures:
        return None
    model = models[0]
    if isinstance(model, MultinomialLogisticModel):
        return LogisticBatchKernel(model)
    return None
