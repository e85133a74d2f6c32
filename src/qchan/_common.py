"""Helpers shared by the model modules: the time and grid checks, the
scalar-or-array return convention and the pole floor of decay rates."""

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


def check_grid(t_grid) -> np.ndarray:
    """``t_grid`` as a nonempty, ascending 1-d array of valid times."""
    times = check_times(t_grid)
    if times.ndim != 1 or times.size == 0:
        raise DomainError("t_grid must be a nonempty 1-d array")
    if np.any(np.diff(times) < 0):
        raise DomainError("t_grid must be ascending")
    return times


def scalar_or_array(values, arg: np.ndarray):
    """``values`` as a float when the argument it was computed from is 0-d."""
    return float(values) if arg.ndim == 0 else values
