"""Adaptive panel quadrature with the Gauss-Kronrod pair G7-K15.

Integrands here are oscillatory (factors like 1 - cos(omega t)), so callers
seed the panel edges with the cosine half-periods and any other structure
they know about (cutoff multiples, tabulation knots).  Each panel gets
QUADPACK's qk15 rule (Piessens et al., 1983): 15 Kronrod nodes whose odd
entries are the nodes of the embedded 7-point Gauss rule, so |K15 - G7|
estimates the error from 15 integrand values.  Panels whose estimates are
too large are then bisected until the summed estimate meets the tolerance.
An integrand may have many rows that share the panels (values and time
derivatives at several times); every row must meet the tolerance.  Panels
are evaluated in slabs of about 2^16 integrand values, so memory stays
bounded whatever the row and panel counts; the results do not depend on the
slab size.
"""

from __future__ import annotations

import heapq

import numpy as np

from .errors import QuadratureError

# qk15 abscissae in (0, 1) and weights, from the outermost node inwards; the
# Gauss nodes are the second, fourth and sixth abscissae and the centre
_XK_HALF = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WK_HALF = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_WK_CENTRE = 0.209482141084727828012999174891714
_WG_HALF = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
)
_WG_CENTRE = 0.417959183673469387755102040816327

# ascending nodes on [-1, 1]; the Gauss weights sit on the odd indices
_XK = np.array([-x for x in _XK_HALF] + [0.0] + list(_XK_HALF[::-1]))
_WK = np.array(list(_WK_HALF) + [_WK_CENTRE] + list(_WK_HALF[::-1]))
_WG = np.zeros(15)
_WG[1::2] = list(_WG_HALF) + [_WG_CENTRE] + list(_WG_HALF[::-1])
# integrand values per slab (rows x nodes); a slab holds at least one panel
_SLAB = 2**16
# rounding floor of a panel's error estimate, in units of its absolute
# integral (QUADPACK's 50 eps): it covers the rounding of the node sums and
# of the panel sum, which |K15 - G7| does not see
_ROUNDING = 50.0 * np.finfo(float).eps


def _panel_estimates(f, lo: np.ndarray, hi: np.ndarray, rows: int):
    """Vectorized (K15, |K15 - G7| + rounding floor) over panels
    [lo_i, hi_i]: two (rows, panels) arrays, one slab of panels per call of
    ``f``."""
    step = max(1, _SLAB // (rows * _XK.size))
    if lo.size > step:
        slabs = [
            _panel_estimates(f, lo[i : i + step], hi[i : i + step], rows)
            for i in range(0, lo.size, step)
        ]
        return tuple(np.concatenate(parts, axis=1) for parts in zip(*slabs))
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * _XK
    fk = f(nodes.ravel()).reshape(rows, *nodes.shape)
    # einsum sums each panel's 15 values in one order whatever the slab's
    # shape, so results do not depend on the slab size; a matrix product's
    # BLAS kernel, and with it the rounding, changes with the shape
    kronrod = half * np.einsum("rpk,k->rp", fk, _WK)
    gauss = half * np.einsum("rpk,k->rp", fk, _WG)
    floor = _ROUNDING * half * np.einsum("rpk,k->rp", np.abs(fk), _WK)
    return kronrod, np.abs(kronrod - gauss) + floor


def integrate_adaptive(f, edges, tol: float, max_panels: int, *, rows: int):
    """Integrate ``f`` over the union of panels defined by ``edges``.

    ``f`` maps an array of n nodes to its values there, shape (rows, n);
    ``rows`` sizes the slabs.
    Returns (values, error_estimates), one entry per row.  Raises
    :class:`QuadratureError` carrying the partial estimate of the first row
    if ``max_panels`` panels are used before the summed error estimate of
    every row drops below ``tol``.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be strictly ascending with >= 2 entries")
    lo = edges[:-1]
    hi = edges[1:]
    values, errors = _panel_estimates(f, lo, hi, rows)
    total = values.sum(axis=1)
    total_err = errors.sum(axis=1)
    if np.all(total_err <= tol):
        return total, total_err

    # max-heap on the largest row error (heapq is a min-heap, negate)
    heap = list(zip(-errors.max(axis=0), lo, hi, values.T, errors.T))
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
        vals, errs = _panel_estimates(f, subs_lo, subs_hi, rows)
        total += vals.sum(axis=1) - v
        total_err += errs.sum(axis=1) - e
        for a2, b2, v2, e2 in zip(subs_lo, subs_hi, vals.T, errs.T):
            heapq.heappush(heap, (-e2.max(), a2, b2, v2, e2))
        n_panels += 1

    if np.any(total_err > tol):
        raise QuadratureError(
            f"quadrature error estimate {max(total_err):.3e} above tolerance {tol:.3e} "
            f"after {n_panels} panels",
            estimate=total[0],
            error=total_err[0],
        )
    return total, total_err
