"""Helpers shared by the model modules: the time, grid and uniform-grid
checks, the one time grid, the one work budget, the scalar and scale checks,
the scalar-or-array return convention, the decay rate -F'/F with its pole floor,
the double-angle kernel and the line-sum kernel over it."""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, PoleError, ResourceError

# A decay rate -F'/F is undefined where the factor F is at (or below) this.
POLE_FLOOR = 1e-12
# The most points a time grid may have.  At the cap a closed-form command
# takes ~1 s (CSV) or 3-6 s (JSON) and peaks at <= 0.2 GB either way on a
# 2-core x86-64 VM.  The work over the grid has the one budget below.
GRID_CAP = 1_000_001
# The one time budget: check_work refuses work that would take longer, before
# any of it is done.
WORK_BUDGET_S = 10
# Nanoseconds a unit of each kernel's work takes, fitted on a 2-core x86-64 VM
# (CHANGES.md lists the shapes):
# - line, line_term: a line sum's lines, and its terms, one per (line, time,
#   weight row);
# - monte_carlo: the units of _rng.monte_carlo_cost;
# - panel: a tabulated density's first pass, one per knot interval (~3 us
#   at 100,001 knots, ~5 us at 1,000,001), charged before the pass;
# - filon, moments: a tabulated density's Filon sums, one per (time, panel),
#   and their moments, one set per (time, width class), whichever of the
#   two rules of _quadrature.moments computes it (~0.3-0.5 us a set), plus
#   one set per (time, end) for the Si and Cin of a first knot interval in
#   closed form; _quadrature.filon charges both.
NS_PER_UNIT = {"line": 10_000, "line_term": 5, "monte_carlo": 14, "panel": 6_000, "filon": 50,
               "moments": 550}


def pole_rate(factor, slope):
    """The decay rate -F'/F of a factor F with slope F', and the mask of its
    poles: the points where F <= POLE_FLOOR, at which the rate is NaN."""
    poles = factor <= POLE_FLOOR
    return np.where(poles, np.nan, -slope / np.where(poles, 1.0, factor)), poles


def rate_view(factor, slope, t, what: str):
    """The decay rate -F'/F of a factor F (named ``what``) with slope F' at
    the times ``t``; raises :class:`PoleError` if any point is a pole."""
    rate, poles = pole_rate(factor, slope)
    if np.any(poles):
        raise PoleError(f"{what} at or below {POLE_FLOOR}; decay rate undefined there")
    return scalar_or_array(rate, t)


def time_grid(t_max: float, points: int) -> np.ndarray:
    """The package's one time grid: ``points`` uniform points on [0, t_max],
    ending at t_max exactly.  Raises :class:`ResourceError` above
    ``GRID_CAP`` points, before allocating any."""
    if points > GRID_CAP:
        raise ResourceError(f"{points} grid points above the cap of {GRID_CAP}")
    return np.linspace(0.0, t_max, points)


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


def check_uniform(times: np.ndarray) -> None:
    """Raise :class:`DomainError` unless the steps of ``times`` (at least two
    points) are positive and equal to a relative 1e-9."""
    steps = np.diff(times)
    if np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise DomainError("time grid must be uniform and ascending")


def finite(name: str, value) -> float:
    """``value`` as a float; raises :class:`DomainError` naming ``name``
    and the value unless it is finite."""
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")
    return value


def positive(name: str, value) -> float:
    """``value`` as a float; raises :class:`DomainError` naming ``name``
    and the value unless it is finite and > 0."""
    value = float(value)
    if not 0 < value < math.inf:
        raise DomainError(f"{name} must be finite and > 0, got {value}")
    return value


def check_square(name: str, value: float) -> None:
    """Raise :class:`DomainError` naming ``name`` unless ``value`` squared
    is a finite float (a model squares its scales)."""
    if not math.isfinite(value * value):
        raise DomainError(f"{name} = {value} is too large: its square overflows")


def check_work(**units) -> None:
    """Raise :class:`ResourceError` if the work ``units``, counted per kernel
    (the keys of ``NS_PER_UNIT``), would take more than ``WORK_BUDGET_S`` in
    all; the caller checks before it starts any of that work."""
    seconds = sum(NS_PER_UNIT[kernel] * count for kernel, count in units.items()) / 1e9
    if seconds > WORK_BUDGET_S:
        work = ", ".join(f"{kernel}={count:,.0f}" for kernel, count in units.items())
        raise ResourceError(f"work units {work} would take ~{seconds:.4g} s, "
                            f"above the budget of {WORK_BUDGET_S} s")


def scalar_or_array(values, t):
    """``values`` as a float when the times ``t`` they were computed at are 0-d."""
    return float(values) if np.ndim(t) == 0 else values


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


def line_sums(freqs, weights, t):
    """(sum_k a_k vers(w_k t), sum_k b_k sin(w_k t)) as one array, vers x =
    1 - cos x: ``weights`` holds (a, b) on its first axis and the lines on its
    last, and any axes between lead the times' (any shape).  One
    :func:`double_angle` of w_k t / 2 per (line, time), added in line order:
    exactly 0 at t = 0, and no cancellation of 1 - cos at small t.  Work
    above the budget (:func:`check_work`) raises before any sum."""
    times = np.asarray(t, dtype=float)
    weights = np.asarray(weights, dtype=float)
    check_work(line=np.size(freqs), line_term=weights.size * times.size)
    sums = np.zeros(weights.shape[:-1] + times.shape)
    term, trig = np.empty_like(sums), np.empty((2,) + times.shape)
    # each line's weights, and its (vers, sin), shaped to broadcast together
    lines = np.moveaxis(weights, -1, 0)[(..., *(None,) * times.ndim)]
    rows = trig.reshape((2,) + (1,) * (weights.ndim - 2) + times.shape)
    for w, line in zip(np.asarray(freqs, dtype=float), lines):
        double_angle(np.multiply(times, 0.5 * w, out=trig[0, ...]), trig[1, ...], trig[0, ...])
        sums += np.multiply(line, rows, out=term)
    return sums
