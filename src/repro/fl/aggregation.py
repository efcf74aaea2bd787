"""Server-side aggregation: the data-weighted average of Alg. 1 line 12."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, DimensionMismatchError


def _stack(vectors: Sequence[np.ndarray]) -> np.ndarray:
    if not vectors:
        raise ConfigurationError("cannot aggregate zero vectors")
    try:
        return np.stack([np.asarray(v, dtype=np.float64) for v in vectors])
    except ValueError as exc:
        raise DimensionMismatchError(f"ragged local models: {exc}") from exc


def weighted_average(
    vectors: Sequence[np.ndarray],
    weights: Optional[Sequence[float]] = None,
    *,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``w_bar = sum_n p_n w_n`` (eq. line 12 of Alg. 1).

    ``weights`` default to uniform and are renormalized to sum to one.
    ``out`` allows writing into a preallocated global-model buffer.
    """
    stacked = _stack(vectors)
    if weights is None:
        w = np.full(stacked.shape[0], 1.0 / stacked.shape[0])
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (stacked.shape[0],):
            raise DimensionMismatchError(
                f"{len(w)} weights for {stacked.shape[0]} vectors"
            )
        if np.any(w < 0):
            raise ConfigurationError("aggregation weights must be non-negative")
        total = w.sum()
        if total <= 0:
            raise ConfigurationError("aggregation weights sum to zero")
        w = w / total
    result = np.einsum("n,nd->d", w, stacked)
    if out is not None:
        out[...] = result
        return out
    return result
