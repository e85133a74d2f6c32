"""Helpers shared by the model modules: the time check, the scalar-or-array
return convention and the pole floor of decay rates."""

from __future__ import annotations

import numpy as np

from .errors import DomainError

# A decay rate -F'/F is undefined where the factor F is at (or below) this.
POLE_FLOOR = 1e-12


def check_times(t) -> np.ndarray:
    """``t`` as a float array; every entry must be finite and nonnegative."""
    arr = np.asarray(t, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr < 0):
        raise DomainError("time must be finite and nonnegative")
    return arr


def scalar_or_array(values, arg: np.ndarray):
    """``values`` as a float when the argument it was computed from is 0-d."""
    return float(values) if arg.ndim == 0 else values
