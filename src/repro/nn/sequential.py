"""Sequential container chaining layers."""

from __future__ import annotations

import time
from typing import Iterable, Iterator, List, Optional

import numpy as np

from repro.nn.module import Module
from repro.obs import telemetry


class Sequential(Module):
    """Composition of layers applied in order.

    ``forward`` threads activations through every layer; ``backward``
    runs the chain rule in reverse.  Parameters and gradients are the
    concatenation of the layers' lists, in layer order, which gives a
    stable flat-vector layout for :class:`repro.models.nn_model.NNModel`.

    When ``telemetry.nn_profiling`` is on (off by default — it is a
    separate opt-in on top of telemetry itself) each layer's forward and
    backward is timed into the ``nn.layer.forward_seconds`` /
    ``nn.layer.backward_seconds`` histograms keyed by
    ``<position>:<obs_label>``; the default path reads the flag once
    per call.
    """

    def __init__(self, layers: Iterable[Module]) -> None:
        self.layers: List[Module] = list(layers)
        if not self.layers:
            raise ValueError("Sequential requires at least one layer")
        self._obs_keys = [
            f"{i}:{layer.obs_label}" for i, layer in enumerate(self.layers)
        ]
        # Where ``backward(..., input_grad=False)`` stops: the lowest
        # layer with parameters (past the end when no layer has any).
        self._lowest_trainable = next(
            (i for i, layer in enumerate(self.layers) if layer.parameters()),
            len(self.layers),
        )

    def forward(self, x: np.ndarray, *, train: bool = True) -> np.ndarray:
        profiling = telemetry.nn_profiling
        out = x
        for layer, key in zip(self.layers, self._obs_keys):
            t0 = time.perf_counter() if profiling else 0.0
            out = layer.forward(out, train=train)
            if profiling:
                telemetry.observe(
                    "nn.layer.forward_seconds", time.perf_counter() - t0, key=key
                )
        return out

    def backward(
        self, grad_output: np.ndarray, *, input_grad: bool = True
    ) -> Optional[np.ndarray]:
        """Run the chain rule from the top layer down.

        With ``input_grad=False`` the walk ends at the lowest layer that
        has parameters, which is asked for its parameter gradients only;
        the layers below it are not called and ``None`` is returned.
        Every parameter gradient is the same, bit for bit, as after a
        full walk.
        """
        profiling = telemetry.nn_profiling
        stop = 0 if input_grad else self._lowest_trainable
        grad = grad_output
        for i in range(len(self.layers) - 1, stop - 1, -1):
            t0 = time.perf_counter() if profiling else 0.0
            if i == stop and not input_grad:
                grad = self.layers[i].backward(grad, input_grad=False)
            else:
                grad = self.layers[i].backward(grad)
            if profiling:
                telemetry.observe(
                    "nn.layer.backward_seconds",
                    time.perf_counter() - t0,
                    key=self._obs_keys[i],
                )
        return grad if input_grad else None

    def parameters(self) -> List[np.ndarray]:
        params: List[np.ndarray] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def gradients(self) -> List[np.ndarray]:
        grads: List[np.ndarray] = []
        for layer in self.layers:
            grads.extend(layer.gradients())
        return grads

    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(type(layer).__name__ for layer in self.layers)
        return f"Sequential([{inner}], params={self.num_parameters})"
