"""Adaptive panel quadrature: one driver, one panel rule, and Filon sums.

:func:`integrate_adaptive` keeps a list of panels, each with the estimates
and the error bounds a panel rule gives it, and bisects the panel with the
largest error until every row of the summed errors meets the tolerance or
the panel budget is spent.  It returns the panels; the caller combines them.

:func:`chebyshev` interpolates a smooth integrand at the p + 1 first-kind
Chebyshev points of each panel, none of which is a panel end.  Its
estimates are the interpolants' Chebyshev coefficients, and its errors bound
the integral of |f - P_p f| by the trailing coefficients.
:func:`integrated` integrates the interpolants over their panels, and
:func:`filon` integrates them exactly against 1 - cos(wt) and sin(wt)
through modified moments (Piessens & Branders, Math. Comp. 1975), so that
bound holds for every t at once: the panels do not depend on the times.

The rule evaluates panels in slabs of about 2^16 values, and :func:`filon`
sums in slabs of as many (time, panel) moments, so memory stays bounded
whatever the row and panel counts; the results do not depend on the slab
size.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from ._common import double_angle

# values per slab (integrand values, or (time, panel) moments in filon)
_SLAB = 2**16
# rounding floor of a panel's error estimate, in units of its absolute
# integral (QUADPACK's 50 eps): it covers the rounding of the node sums and
# of the panel sum, which the trailing coefficients do not see
_ROUNDING = 50.0 * np.finfo(float).eps

# Chebyshev rule: degree _P on the first-kind Chebyshev points
# cos(pi (j + 1/2) / (_P + 1)).  12 was the fastest of 12, 14 and 16 on the
# benchmark's 1001-knot tables, which it resolves without a split.
_P = 12
_K = np.arange(_P + 1)
_EVEN = _K % 2 == 0
_CHEB_X = np.cos(np.pi * (_K + 0.5) / _K.size)
# the DCT-II from values at _CHEB_X to the coefficients of sum_k c_k T_k
_TO_COEF = (2.0 / _K.size) * np.cos(np.pi * np.outer(_K, _K + 0.5) / _K.size)
_TO_COEF[0] *= 0.5
# einsum sums over k with these in one order whatever the slab's shape; an
# axis reduction need not
_ONES = np.ones(_K.size)


def _t_integrals(n: int) -> np.ndarray:
    """int_{-1}^{1} T_m(x) dx for m < n: 2 / (1 - m^2) for even m, else 0."""
    out = np.zeros(n)
    even = np.arange(0, n, 2)
    out[::2] = 2.0 / (1.0 - even * even)
    return out


def chebyshev(scale):
    """The Chebyshev panel rule for a smooth integrand ``f`` of
    len(``scale``) rows.  Estimates: the coefficients of the rows'
    degree-_P interpolants, (rows, panels, _P + 1).  Errors, (rows,
    panels): ``scale`` times bounds on the integrals of |f - P f| from the
    two trailing coefficients, plus a rounding floor.  Floors, (rows,
    panels): that floor, also times ``scale``."""
    scale = np.asarray(scale, dtype=float)[:, None]

    def estimates(f, lo, hi):
        half = 0.5 * (hi - lo)
        nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * _CHEB_X
        values = f(nodes.ravel()).reshape(scale.size, *nodes.shape)
        # einsum sums each panel's values in one order whatever the slab's
        # shape, so results do not depend on the slab size; a matrix product's
        # BLAS kernel, and with it the rounding, changes with the shape
        coef = np.einsum("rpj,kj->rpk", values, _TO_COEF)
        # int |g - P g| <= 2 (b - a) sum_{k > p} |c_k|, and the sum is at most
        # |c_{p-1}| / 2 while the coefficients decay at least as 2^-k
        floors = scale * (_ROUNDING * 2.0 * half * np.einsum("rpk,k->rp", np.abs(coef), _ONES))
        errors = scale * (2.0 * half * (np.abs(coef[:, :, -1]) + np.abs(coef[:, :, -2])))
        return coef, errors + floors, floors

    def rule(f, lo, hi):
        step = max(1, _SLAB // (scale.size * _K.size))
        slabs = [estimates(f, lo[i : i + step], hi[i : i + step]) for i in range(0, lo.size, step)]
        return tuple(np.concatenate(parts, axis=1) for parts in zip(*slabs))

    return rule


def integrated(rule):
    """A :func:`chebyshev` ``rule`` whose estimates are the integrals of the
    interpolants over their panels, (rows, panels): 1/13 the coefficients' size."""

    def panel_integrals(f, lo, hi):
        coef, errors, floors = rule(f, lo, hi)
        return 0.5 * (hi - lo) * np.einsum("rpk,k->rp", coef, _t_integrals(_K.size)), errors, floors

    return panel_integrals


def integrate_adaptive(f, edges, tol: float, max_panels: int, *, rule):
    """Adaptive quadrature of ``f`` over the panels defined by ``edges``.

    ``rule(f, lo, hi)`` gives each panel [lo_i, hi_i] its estimates, its
    error bounds and the rounding floors within them, all indexed by panel
    along axis 1.  Panels are bisected, largest error first, until the
    summed errors of every row are <= ``tol`` or ``max_panels`` panels are
    in use.  A floor scales with its panel's integral of |f|, so bisection
    does not shrink their sum: if the first panels' floors of a row exceed
    ``tol``, none is split.  Returns (lo, hi, estimates, errors) of the
    final panels, a split's left half in its parent's place and its right
    half appended, and ``floor``, the largest row sum of the first panels'
    floors; the caller checks the summed errors.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be strictly ascending with >= 2 entries")
    # copies: a split writes its left half into them
    lo = edges[:-1].copy()
    hi = edges[1:].copy()
    values, errors, floors = rule(f, lo, hi)
    total_err = errors.sum(axis=1)
    floor = floors.sum(axis=1).max()
    if np.all(total_err <= tol) or floor > tol:
        return lo, hi, values, errors, floor

    # the first panels wait in a queue of decreasing largest row error, the
    # halves in a max-heap of (-largest row error, index); a left half keeps
    # its parent's index, a right half takes the next one from n on, and ties
    # go to the lower index
    n = lo.size
    largest = errors.max(axis=0)
    queue = np.argsort(-largest, kind="stable")
    head = 0
    heap = []
    added = []  # (lo, hi, estimates, errors) of the right halves
    # each split adds one live panel
    while np.any(total_err > tol) and n + len(added) < max_panels:
        first = largest[queue[head]] if head < n else 0.0
        if heap and -heap[0][0] > first:
            i = heapq.heappop(heap)[1]
        elif first > 0.0:
            i = queue[head]
            head += 1
        else:
            # a largest error of 0 leaves no panel that a split can improve
            break
        a, b, _, old = (lo[i], hi[i], None, errors[:, i]) if i < n else added[i - n]
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            # panel no longer splittable at float resolution: it stays live
            continue
        vals, errs, _ = rule(f, np.array([a, mid]), np.array([mid, b]))
        total_err += errs.sum(axis=1) - old
        if i < n:
            hi[i], values[:, i], errors[:, i] = mid, vals[:, 0], errs[:, 0]
        else:
            added[i - n] = (a, mid, vals[:, 0], errs[:, 0])
        heapq.heappush(heap, (-errs[:, 0].max(), i))
        heapq.heappush(heap, (-errs[:, 1].max(), n + len(added)))
        added.append((mid, b, vals[:, 1], errs[:, 1]))
    if added:
        added_lo, added_hi, added_values, added_errors = zip(*added)
        lo, hi = np.r_[lo, added_lo], np.r_[hi, added_hi]
        values = np.concatenate([values, *(v[:, None] for v in added_values)], axis=1)
        errors = np.concatenate([errors, *(e[:, None] for e in added_errors)], axis=1)
    return lo, hi, values, errors, floor


# Modified moments of T_k (k <= _P) against cos(kx), sin(kx), 1 - cos(kx) on
# [-1, 1], kappa >= 0: a Taylor series in kappa up to _TAYLOR; the Bessel
# coefficients of exp(i kappa x) (Jacobi-Anger) from Miller's backward
# recurrence, started at _MILLER_START up to _FORWARD; above it the forward
# recurrence that integration by parts gives, stable while
# k < kappa / 2.  Columns: cos for even k, sin for odd k, 1 - cos for even
# k (the others vanish by parity).
_TAYLOR = 1.0
_FORWARD = 2.0 * _P
_TAYLOR_TERMS = 20
# J_n(kappa) / J_64(kappa) stays below ~1e108 for kappa >= _TAYLOR, and J_64
# is below 1e-16 of the sum for kappa <= _FORWARD
_MILLER_START = 64
_COS = slice(0, _EVEN.sum())
_SIN = slice(_COS.stop, _K.size)
_VERS = slice(_K.size, _K.size + _EVEN.sum())


def _taylor_tables():
    """(cos, sin) Taylor coefficients in z = kappa^2: (-1)^j mu_{k,2j}/(2j)!
    for even k and (-1)^j mu_{k,2j+1}/(2j+1)! for odd k, with the power
    moments mu_{k,m} = int T_k x^m from x T_k = (T_{k+1} + T_{|k-1|}) / 2."""
    width = _K.size + _TAYLOR_TERMS
    mu = np.zeros((_TAYLOR_TERMS, width))
    mu[0] = _t_integrals(width)
    for m in range(1, _TAYLOR_TERMS):
        mu[m, :-1] = 0.5 * (mu[m - 1, 1:] + mu[m - 1, np.abs(np.arange(width - 1) - 1)])
    scale = np.array([(-1) ** (j // 2) / math.factorial(j) for j in range(_TAYLOR_TERMS)])
    series = scale[:, None] * mu[:, : _K.size]
    return series[0::2, _EVEN], series[1::2, ~_EVEN]


def _miller_table(start: int):
    """Moments per Bessel coefficient J_n, n <= ``start``:
    exp(i kappa x) = sum_n eps_n i^n J_n(kappa) T_n(x), and
    int T_k T_n = (I_{k+n} + I_{|k-n|}) / 2 with I_m = int T_m; the 1 - cos
    columns use 1 - J_0 = 2 sum_{n >= 1} J_{2n}, so they start at J_2."""
    n = np.arange(start + 1)[:, None]
    integrals = _t_integrals(2 * start + _K.size)
    inner = 0.5 * (integrals[n + _K] + integrals[np.abs(n - _K)])
    sign = np.where(n % 4 < 2, 1.0, -1.0)  # i^n is sign or i sign
    cos = np.where(n % 2 == 0, np.where(n == 0, 1.0, 2.0) * sign * inner, 0.0)
    sin = np.where(n % 2 == 1, 2.0 * sign * inner, 0.0)
    vers = np.where((n % 2 == 0) & (n >= 2), 2.0 * (integrals[_K] - sign * inner), 0.0)
    return np.hstack([cos[:, _EVEN], sin[:, ~_EVEN], vers[:, _EVEN]])


_TAYLOR_COS, _TAYLOR_SIN = _taylor_tables()
_MILLER = _miller_table(_MILLER_START)


def _moments_taylor(kappa):
    z = (kappa * kappa)[:, None]
    cos = np.zeros((kappa.size, _TAYLOR_COS.shape[1]))
    for row in _TAYLOR_COS[:0:-1]:
        cos = cos * z + row
    sin = np.zeros((kappa.size, _TAYLOR_SIN.shape[1]))
    for row in _TAYLOR_SIN[::-1]:
        sin = sin * z + row
    # 1 - cos is the cos series without its constant term
    return np.hstack([cos * z + _TAYLOR_COS[0], sin * kappa[:, None], -cos * z])


def _moments_miller(kappa):
    # J_n / J_start downwards from J_{start+1} = 0; the moment sums and the
    # normalization 1 = J_0 + 2 sum J_2n accumulate on the way
    total = np.zeros((kappa.size, _MILLER.shape[1]))
    norm = np.zeros(kappa.size)
    upper, bessel = np.zeros(kappa.size), np.ones(kappa.size)
    for n in range(_MILLER_START, -1, -1):
        total += bessel[:, None] * _MILLER[n]
        if n % 2 == 0:
            norm += bessel if n == 0 else 2.0 * bessel
        upper, bessel = bessel, (2.0 * n / kappa) * bessel - upper
    return total / norm[:, None]


def _moments_forward(kappa):
    sin, cos = np.sin(kappa), np.cos(kappa)
    e = [2.0 * sin / kappa]
    e.append((e[0] - 2.0 * cos) / kappa)
    e.append((2.0 * sin - 4.0 * e[1]) / kappa)
    for k in range(2, _P):
        if k % 2 == 0:
            boundary = 4.0 * cos / (k * k - 1) + 2.0 * e[k]
        else:
            boundary = -4.0 * sin / (k * k - 1) - 2.0 * e[k]
        e.append((k + 1) / kappa * boundary + (k + 1) / (k - 1) * e[k - 1])
    e = np.stack(e, axis=1)
    return np.hstack([e[:, _EVEN], e[:, ~_EVEN], _t_integrals(_K.size)[_EVEN] - e[:, _EVEN]])


def moments(kappa):
    """Modified moments int_{-1}^{1} T_k(x) g(kappa x) dx for kappa >= 0, as
    columns ``_COS``, ``_SIN`` and ``_VERS`` of the last axis.  Absolute
    error ~1e-16; the 1 - cos moments keep their relative accuracy as
    kappa -> 0."""
    kappa = np.asarray(kappa, dtype=float)
    flat = kappa.ravel()
    out = np.empty((flat.size, _VERS.stop))
    regimes = (
        (flat <= _TAYLOR, _moments_taylor),
        ((flat > _TAYLOR) & (flat <= _FORWARD), _moments_miller),
        (flat > _FORWARD, _moments_forward),
    )
    for where, method in regimes:
        if np.any(where):
            out[where] = method(flat[where])
    return out.reshape(*kappa.shape, _VERS.stop)


def filon(times, lo, hi, coef):
    """(int v (1 - cos wt) dw, int w sin(wt) dw) at the ``times``, summed
    over panels [lo_i, hi_i] on which v and w are the interpolants with the
    :func:`chebyshev` coefficients ``coef``.

    With m the midpoint, h the width and w = m + (h/2) x, the oscillator
    splits as 1 - cos(mt + kx) = (1 - cos mt) + cos mt (1 - cos kx)
    + sin mt sin kx, k = ht/2, so small t keeps its relative accuracy, and
    each (time, panel) costs one tangent of mt/2.  Moments are computed once
    per (time, distinct width): panels are taken in order of width, in slabs
    of about ``_SLAB`` moments, and each time's sum runs over them in that
    order whatever the slab size.
    """
    times = np.asarray(times, dtype=float)
    # panels in order of width, the input order within a width; first[c] is
    # the first panel of the c-th distinct width
    width = hi - lo
    order = np.argsort(width, kind="stable")
    width = width[order]
    first = np.flatnonzero(np.r_[True, width[1:] != width[:-1], True])
    widths = width[first[:-1]]
    width_of = np.repeat(np.arange(widths.size), np.diff(first))
    mid = (0.5 * (lo + hi))[order]
    # (panels, k) coefficients times h/2, in order of width
    v, w = coef[:, order]
    v *= 0.5 * width[:, None]
    w *= 0.5 * width[:, None]
    v_even, v_odd, w_even, w_odd = v[:, 0::2], v[:, 1::2], w[:, 0::2], w[:, 1::2]
    v_mean = np.einsum("pk,k->p", v_even, _t_integrals(_K.size)[0::2])

    value, slope = np.zeros((2, times.size))
    per_slab = max(1, _SLAB // _VERS.stop)
    for t0 in range(0, times.size, per_slab):
        t = times[t0 : t0 + per_slab]
        step = max(1, per_slab // t.size)
        # the running (value, slope) totals, then one slab's panels
        rows = np.zeros((2, step + 1, t.size))
        for c0 in range(0, widths.size, step):
            c1 = min(c0 + step, widths.size)
            # (widths, moments, times): einsum runs fastest along t
            kappa = 0.5 * np.multiply.outer(widths[c0:c1], t)
            m = np.ascontiguousarray(np.moveaxis(moments(kappa), 2, 1))
            for a in range(first[c0], first[c1], step):
                b = min(a + step, first[c1])
                cls = width_of[a:b] - c0
                mw = m[cls[0] : cls[0] + 1] if cls[0] == cls[-1] else m[cls]
                sin_mt, vers_mt = double_angle(0.5 * np.multiply.outer(mid[a:b], t))
                cos_mt = 1.0 - vers_mt
                value_p, slope_p = rows[:, 1 : b - a + 1]
                np.multiply(sin_mt, np.einsum("pkt,pk->pt", mw[:, _COS], w_even[a:b]), out=slope_p)
                slope_p += cos_mt * np.einsum("pkt,pk->pt", mw[:, _SIN], w_odd[a:b])
                np.multiply(vers_mt, v_mean[a:b, None], out=value_p)
                value_p += cos_mt * np.einsum("pkt,pk->pt", mw[:, _VERS], v_even[a:b])
                value_p += sin_mt * np.einsum("pkt,pk->pt", mw[:, _SIN], v_odd[a:b])
                # a reduction along axis 1 adds the rows in order
                rows[:, 0] = np.add.reduce(rows[:, : b - a + 1], axis=1)
        value[t0 : t0 + t.size], slope[t0 : t0 + t.size] = rows[:, 0]
    return value, slope
