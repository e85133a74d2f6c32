"""Helpers shared by the model modules: the time and grid checks, the
scale check, the scalar-or-array return convention, the decay rate -F'/F
with its pole floor and the double-angle kernel."""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

# A decay rate -F'/F is undefined where the factor F is at (or below) this.
POLE_FLOOR = 1e-12


def pole_rate(factor, slope):
    """The decay rate -F'/F of a factor F with slope F', and the mask of its
    poles: the points where F <= POLE_FLOOR, at which the rate is NaN."""
    poles = factor <= POLE_FLOOR
    return np.where(poles, np.nan, -slope / np.where(poles, 1.0, factor)), poles


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


def check_square(name: str, value: float) -> None:
    """Raise :class:`DomainError` naming ``name`` unless ``value`` squared
    is a finite float (a model squares its scales)."""
    if not math.isfinite(value * value):
        raise DomainError(f"{name} = {value} is too large: its square overflows")


def scalar_or_array(values, arg: np.ndarray):
    """``values`` as a float when the argument it was computed from is 0-d."""
    return float(values) if arg.ndim == 0 else values


def double_angle(x, sin2x=None, vers=None):
    """(sin 2x, 2 sin^2 x) from one tangent T = tan x, as 2T/(1 + T^2) and
    T sin 2x; ``sin2x`` and ``vers`` are optional output arrays, and ``vers``
    may be ``x`` itself.

    numpy's float64 tan is vectorised (AVX-512 on x86-64, ~3 ns a value)
    where its sin, cos and complex exp call libm one value at a time
    (~30 ns, complex exp ~60 ns), so one tangent is cheaper than one sine.
    Both results keep a relative error of a few ulp (tested up to
    x = 1e5), also near the zeros of sin 2x.  No double lies closer than ~5e-19 to an odd multiple of pi/2,
    so |T| < 1e19 for finite x and T^2 cannot overflow.
    """
    tan = np.tan(x, out=vers)
    sin2x = np.multiply(tan, tan, out=sin2x)
    sin2x += 1.0
    np.divide(tan, sin2x, out=sin2x)
    sin2x *= 2.0
    return sin2x, np.multiply(tan, sin2x, out=tan)
