"""Validation of n-dimensional coordinate inputs.

Points and vectors are plain 1-D float64 arrays; all coordinates must be
finite.
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_coords"]


def as_coords(x) -> np.ndarray:
    """Convert an array-like to a finite 1-D float64 array, validating it."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"expected a 1-D coordinate tuple, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coordinates must be finite")
    return arr
