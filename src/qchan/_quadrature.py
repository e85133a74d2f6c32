"""Adaptive panel quadrature with an embedded Gauss pair.

Integrands here are oscillatory (factors like 1 - cos(omega t)), so callers
seed the panel edges with the cosine half-periods and any other structure
they know about (cutoff multiples, tabulation knots); panels whose 7- vs
15-point Gauss estimates disagree are then bisected until the summed error
estimate meets the tolerance.  An integrand may have several rows that share
the panels (a value and its time derivative); every row must meet the
tolerance.
"""

from __future__ import annotations

import heapq

import numpy as np

from .errors import QuadratureError

_X7, _W7 = np.polynomial.legendre.leggauss(7)
_X15, _W15 = np.polynomial.legendre.leggauss(15)
# rounding floor of a panel's error estimate, in units of its absolute
# integral (QUADPACK's 50 eps): it covers the rounding of the node sums and
# of the panel sum, which |I15 - I7| does not see
_ROUNDING = 50.0 * np.finfo(float).eps


def _panel_estimates(f, lo: np.ndarray, hi: np.ndarray):
    """Vectorized (I15, |I15 - I7| + rounding floor) over panels
    [lo_i, hi_i]: two (rows, panels) arrays."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes7 = mid[:, None] + half[:, None] * _X7[None, :]
    nodes15 = mid[:, None] + half[:, None] * _X15[None, :]
    f7 = f(nodes7.ravel()).reshape(-1, *nodes7.shape)
    f15 = f(nodes15.ravel()).reshape(-1, *nodes15.shape)
    i7 = half * (f7 @ _W7)
    i15 = half * (f15 @ _W15)
    return i15, np.abs(i15 - i7) + _ROUNDING * half * (np.abs(f15) @ _W15)


def integrate_adaptive(f, edges, tol: float, max_panels: int):
    """Integrate ``f`` over the union of panels defined by ``edges``.

    ``f`` maps an array of n nodes to its values there, shape (rows, n).
    Returns (values, error_estimates), one entry per row.  Raises
    :class:`QuadratureError` carrying the partial estimate of the first row
    if the panel budget is exhausted before the summed error estimate of
    every row drops below ``tol``.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be strictly ascending with >= 2 entries")
    lo = edges[:-1]
    hi = edges[1:]
    values, errors = _panel_estimates(f, lo, hi)
    total = values.sum(axis=1)
    total_err = errors.sum(axis=1)
    if np.all(total_err <= tol):
        return total, total_err

    # max-heap on the larger row error (heapq is a min-heap, negate)
    heap = [(-max(e), a, b, v, e) for a, b, v, e in zip(lo, hi, values.T, errors.T)]
    heapq.heapify(heap)
    n_panels = len(heap)
    while np.any(total_err > tol) and n_panels < max_panels:
        _, a, b, v, e = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            # panel no longer splittable at float resolution
            heapq.heappush(heap, (0.0, a, b, v, e))
            continue
        subs_lo = np.array([a, mid])
        subs_hi = np.array([mid, b])
        vals, errs = _panel_estimates(f, subs_lo, subs_hi)
        total += vals.sum(axis=1) - v
        total_err += errs.sum(axis=1) - e
        for a2, b2, v2, e2 in zip(subs_lo, subs_hi, vals.T, errs.T):
            heapq.heappush(heap, (-max(e2), a2, b2, v2, e2))
        n_panels += 1

    if np.any(total_err > tol):
        raise QuadratureError(
            f"quadrature error estimate {max(total_err):.3e} above tolerance {tol:.3e} "
            f"after {n_panels} panels",
            estimate=total[0],
            error=total_err[0],
        )
    return total, total_err
