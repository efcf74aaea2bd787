"""Adapter exposing a :class:`repro.nn.Sequential` network as a ``Model``.

The federated algorithms operate on flat vectors; the network holds
structured arrays.  ``NNModel`` copies the flat vector into the layer
parameter buffers, runs forward/backward, and packs the layer gradient
buffers back into a flat vector.  The two copies per gradient call are
O(model size) and unavoidable without aliasing layer storage to a single
buffer; they are dwarfed by the conv GEMMs they bracket.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import DimensionMismatchError
from repro.models.base import Model
from repro.nn.module import Module
from repro.utils.parameter_vector import ParameterSpec, flatten_arrays
from repro.utils.rng import SeedLike, as_generator


class NNModel(Model):
    """Flat-vector facade over a neural network and a loss head.

    Parameters
    ----------
    network:
        Any :class:`repro.nn.Module` (normally a ``Sequential``).
    loss_head:
        Object with ``value`` / ``value_and_grad`` over (scores, labels),
        e.g. :class:`repro.nn.SoftmaxCrossEntropy`.
    input_shape:
        Per-sample shape the network expects, e.g. ``(1, 28, 28)`` for
        an NCHW conv net.  ``None`` leaves batches as 2-D matrices.
    builder:
        Zero-argument factory recreating an identically-shaped network;
        used by :meth:`init_parameters` to draw fresh initializations
        without disturbing the live network.
    """

    def __init__(
        self,
        network: Module,
        loss_head,
        *,
        input_shape: Optional[Sequence[int]] = None,
        builder: Optional[Callable[[SeedLike], Module]] = None,
    ) -> None:
        self.network = network
        self.loss_head = loss_head
        self.input_shape = tuple(int(d) for d in input_shape) if input_shape else None
        self._builder = builder
        self.spec = ParameterSpec([p.shape for p in network.parameters()])
        self.num_parameters = self.spec.size

    def init_parameters(self, seed: SeedLike = None) -> np.ndarray:
        if self._builder is not None:
            fresh = self._builder(seed)
            vec = flatten_arrays(fresh.parameters())
            if vec.size != self.num_parameters:
                raise DimensionMismatchError(
                    "builder produced a network with a different parameter count"
                )
            return vec
        # Fall back to perturbing around the captured initialization.
        rng = as_generator(seed)
        base = flatten_arrays(self.network.parameters())
        return base + rng.standard_normal(base.size) * 1e-3

    def _load(self, w: np.ndarray) -> None:
        for target, piece in zip(self.network.parameters(), self.spec.unflatten(w)):
            target[...] = piece

    def _shape_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if self.input_shape is None:
            return X
        expected = int(np.prod(self.input_shape))
        if X.ndim == 2 and X.shape[1] == expected:
            return X.reshape((X.shape[0],) + self.input_shape)
        if X.shape[1:] == self.input_shape:
            return X
        raise DimensionMismatchError(
            f"cannot shape batch {X.shape} to per-sample shape {self.input_shape}"
        )

    def loss(self, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
        w, X, y = self._check_batch(w, X, y)
        self._load(w)
        scores = self.network.forward(self._shape_batch(X), train=False)
        return float(self.loss_head.value(scores, y))

    def loss_and_gradient(
        self, w: np.ndarray, X: np.ndarray, y: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        w, X, y = self._check_batch(w, X, y)
        self._load(w)
        scores = self.network.forward(self._shape_batch(X), train=True)
        loss, grad_scores = self.loss_head.value_and_grad(scores, y)
        self.network.backward(grad_scores, input_grad=False)
        return float(loss), flatten_arrays(self.network.gradients())

    def predict(self, w: np.ndarray, X: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=np.float64)
        self._load(w)
        scores = self.network.forward(self._shape_batch(np.asarray(X)), train=False)
        return np.argmax(scores, axis=1)

    def _check_batch(self, w, X, y):
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (self.num_parameters,):
            raise DimensionMismatchError(
                f"parameter vector shape {w.shape} != ({self.num_parameters},)"
            )
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X.shape[0] != y.shape[0]:
            raise DimensionMismatchError(
                f"X batch {X.shape[0]} != labels {y.shape[0]}"
            )
        return w, X, y
