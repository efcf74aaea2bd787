"""Base class for neural-network layers."""

from __future__ import annotations

from typing import List, Optional

import numpy as np


class Module:
    """A differentiable computation node.

    Subclasses override :meth:`forward` and :meth:`backward`, and expose
    their parameters through :meth:`parameters` / :meth:`gradients`
    (parallel lists of arrays).  Parameter arrays are mutated in place by
    optimizers; gradient arrays are overwritten by each backward pass.

    Stateless layers (activations, pooling) simply return empty lists.
    """

    def forward(self, x: np.ndarray, *, train: bool = True) -> np.ndarray:
        """Compute the layer output, caching anything backward needs."""
        raise NotImplementedError

    def backward(
        self, grad_output: np.ndarray, *, input_grad: bool = True
    ) -> Optional[np.ndarray]:
        """Propagate ``dLoss/dOutput`` to ``dLoss/dInput``.

        Also fills this layer's gradient buffers.  Must be called after
        a matching :meth:`forward`.

        ``input_grad=False`` says the caller has no use for
        ``dLoss/dInput``: the layer fills its parameter gradients
        exactly as it would otherwise, skips forming the input gradient
        and returns ``None``.  Layers with parameters honour it; a
        :class:`repro.nn.Sequential` asks it only of its lowest layer
        with parameters and never calls the layers below that one.
        Layers without parameters need not accept the keyword.
        """
        raise NotImplementedError

    def parameters(self) -> List[np.ndarray]:
        """Trainable parameter arrays (possibly empty)."""
        return []

    def gradients(self) -> List[np.ndarray]:
        """Gradient arrays parallel to :meth:`parameters`."""
        return []

    @property
    def num_parameters(self) -> int:
        """Total scalar parameter count of this module."""
        return int(sum(p.size for p in self.parameters()))

    @property
    def obs_label(self) -> str:
        """Metric key for this layer when nn profiling is enabled.

        Containers (:class:`repro.nn.Sequential`) prefix this with the
        layer's position, giving keys like ``0:Conv2D`` in the
        ``nn.layer.forward_seconds`` histogram.
        """
        return type(self).__name__

    def zero_gradients(self) -> None:
        """Reset all gradient buffers to zero in place."""
        for g in self.gradients():
            g[...] = 0.0

    def __call__(self, x: np.ndarray, *, train: bool = True) -> np.ndarray:
        return self.forward(x, train=train)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(params={self.num_parameters})"
