"""Adaptive panel quadrature: one driver, one panel rule, Filon sums, Si and Cin.

:func:`integrate_adaptive` keeps a list of panels, each with the estimates
and the error bounds a panel rule gives it, and bisects the panel with the
largest error until every row of the summed errors meets the tolerance or
the panel budget is spent.  It returns the panels; the caller combines them.

:func:`chebyshev` interpolates a smooth integrand at the p + 1 first-kind
Chebyshev points of each panel, none of which is a panel end.  Its
estimates are the interpolants' Chebyshev coefficients, and its errors bound
the integral of |f - P_p f| by the trailing coefficients.
:func:`filon` integrates the interpolants exactly against 1 - cos(wt) and
sin(wt) through modified moments (Piessens & Branders, Math. Comp. 1975), so
that bound holds for every t at once: the panels do not depend on the times.

:func:`si_cin` gives Si(x) and Cin(x) = int_0^x (1 - cos s)/s ds (Abramowitz
& Stegun 5.2), the integrals of the parts singular at w = 0.

The rule evaluates panels in slabs of about 2^16 values, and :func:`filon`
sums in slabs of as many (time, panel) moments, so memory stays bounded
whatever the row and panel counts; the results do not depend on the slab
size.
"""

from __future__ import annotations

import heapq

import numpy as np

from ._common import check_work, double_angle

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
# |1 - cos wt| <= 2 and |sin wt| <= 1 scale the bounds of the two rows
_SCALE = np.array([[2.0], [1.0]])


def _t_integrals(n: int) -> np.ndarray:
    """int_{-1}^{1} T_m(x) dx for m < n: 2 / (1 - m^2) for even m, else 0."""
    out = np.zeros(n)
    even = np.arange(0, n, 2)
    out[::2] = 2.0 / (1.0 - even * even)
    return out


def chebyshev(f, lo, hi):
    """The Chebyshev panel rule for a smooth integrand ``f`` of two rows,
    the factors of :func:`filon`'s 1 - cos and sin.  Estimates: the
    coefficients of the rows' degree-_P interpolants, (2, panels, _P + 1).
    Errors, (2, panels): ``_SCALE`` times bounds on the integrals of |f - P f|
    from the two trailing coefficients, plus a rounding floor.  Floors,
    (2, panels): that floor, also times ``_SCALE``."""
    step = max(1, _SLAB // (_SCALE.size * _K.size))
    if lo.size > step:
        slabs = [chebyshev(f, lo[i : i + step], hi[i : i + step]) for i in range(0, lo.size, step)]
        return tuple(np.concatenate(parts, axis=1) for parts in zip(*slabs))
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * _CHEB_X
    values = f(nodes.ravel()).reshape(_SCALE.size, *nodes.shape)
    # einsum sums each panel's values in one order whatever the slab's
    # shape, so results do not depend on the slab size; a matrix product's
    # BLAS kernel, and with it the rounding, changes with the shape
    coef = np.einsum("rpj,kj->rpk", values, _TO_COEF)
    # int |g - P g| <= 2 (b - a) sum_{k > p} |c_k|, and the sum is at most
    # |c_{p-1}| / 2 while the coefficients decay at least as 2^-k
    floors = _SCALE * (_ROUNDING * 2.0 * half * np.einsum("rpk,k->rp", np.abs(coef), _ONES))
    errors = _SCALE * (2.0 * half * (np.abs(coef[:, :, -1]) + np.abs(coef[:, :, -2])))
    return coef, errors + floors, floors


def integrate_adaptive(f, edges, tol: float, max_panels: int, *, rule=chebyshev):
    """Adaptive quadrature of ``f`` over the panels defined by ``edges``.

    ``rule(f, lo, hi)``, :func:`chebyshev` unless a test passes another,
    gives each panel [lo_i, hi_i] its estimates, its error bounds and the
    rounding floors within them, all indexed by panel along axis 1.  After a first pass over the edges' panels, every live
    panel sits in one heap ordered by its largest row error (QUADPACK's
    QAG keeps one such list), and the top panel is bisected until the
    summed errors of every row are <= ``tol``, ``max_panels`` panels are in
    use, or some panel's error is not finite; ties go to a first panel, then
    to the lower index.  A floor scales with its panel's integral of |f|, so
    bisection does not shrink their sum: if the first panels' floors of a
    row exceed ``tol``, none is split.  Returns (lo, hi, estimates, errors)
    of the final panels, a split's left half in its parent's place and its
    right half appended, and ``floor``, the largest row sum of the first
    panels' floors; the caller checks the summed errors.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be strictly ascending with >= 2 entries")
    lo, hi = edges[:-1], edges[1:]
    values, errors, floors = rule(f, lo, hi)
    total_err = errors.sum(axis=1)
    floor = floors.sum(axis=1).max()
    largest = errors.max(axis=0)
    if np.all(total_err <= tol) or floor > tol or not np.all(np.isfinite(largest)):
        return lo, hi, values, errors, floor

    # the live panels are the first n of (lo, hi, values, errors); the heap
    # holds (-largest row error, 0 for a first panel or 1 for a half, index)
    n = lo.size
    heap = [(-e, 0, i) for i, e in enumerate(largest.tolist())]
    heapq.heapify(heap)
    # a largest error of 0 leaves no panel that a split can improve
    while heap and heap[0][0] < 0.0 and np.any(total_err > tol) and n < max_panels:
        i = heapq.heappop(heap)[2]
        a, b = lo[i], hi[i]
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            # panel no longer splittable at float resolution: it stays live
            continue
        vals, errs, _ = rule(f, np.array([a, mid]), np.array([mid, b]))
        total_err += errs.sum(axis=1) - errors[:, i]
        if n == lo.size:  # full: double them, the first time off the caller's edges
            lo, hi = np.tile(lo, 2), np.tile(hi, 2)
            values, errors = np.concatenate([values, values], 1), np.concatenate([errors, errors], 1)
        lo[[i, n]], hi[[i, n]] = (a, mid), (mid, b)
        values[:, [i, n]], errors[:, [i, n]] = vals, errs
        n += 1
        largest = errs.max(axis=0)
        if not np.all(np.isfinite(largest)):
            break
        heapq.heappush(heap, (-largest[0], 1, i))
        heapq.heappush(heap, (-largest[1], 1, n - 1))
    return lo[:n], hi[:n], values[:, :n], errors[:, :n], floor


# Modified moments of T_k (k <= _P) against cos(kx), sin(kx), 1 - cos(kx) on
# [-1, 1], kappa >= 0: a _GAUSS-point Gauss-Legendre rule up to _FORWARD,
# exact to rounding there because the integrands are entire, and taking
# 1 - cos at the nodes, so the 1 - cos moments keep their relative accuracy
# as kappa -> 0; above it the forward recurrence that integration by parts
# gives, stable while k < kappa / 2.  Columns: cos for even k, sin for odd
# k, 1 - cos for even k (the others vanish by parity).
_FORWARD = 2.0 * _P
_GAUSS = 40
_COS = slice(0, _EVEN.sum())
_SIN = slice(_COS.stop, _K.size)
_VERS = slice(_K.size, _K.size + _EVEN.sum())


def _gauss_table():
    """The _GAUSS Gauss-Legendre nodes x_j, and w_j T_k(x_j) for even and for
    odd k.  numpy's nodes take one Newton step on P_n, by its three-term
    recurrence, and the weights 2 / ((1 - x^2) P_n'(x)^2) are taken at the
    stepped nodes.  Over 48 kappas in [0, 24] the moments are then within
    9e-16 of mpmath, and for kappa <= 1e-3 the 1 - cos moments within 9.3e-15
    relative; with numpy's own weights 1.6e-14 and 5e-13, and without the
    step 1.8e-15 and 4e-14."""

    def legendre(x):
        # P_n(x) and P_n'(x) = n (x P_n - P_{n-1}) / (x^2 - 1)
        below, p = np.ones_like(x), x
        for j in range(1, _GAUSS):
            below, p = p, ((2 * j + 1) * x * p - j * below) / (j + 1)
        return p, _GAUSS * (x * p - below) / (x * x - 1.0)

    x = np.polynomial.legendre.leggauss(_GAUSS)[0]
    p, slope = legendre(x)
    x = x - p / slope
    slope = legendre(x)[1]
    weights = 2.0 / ((1.0 - x * x) * slope * slope)
    weighted = np.polynomial.chebyshev.chebvander(x, _P) * weights[:, None]
    return x, weighted[:, _EVEN], weighted[:, ~_EVEN]


_GAUSS_X, _GAUSS_EVEN, _GAUSS_ODD = _gauss_table()
# every moment's integrand is even in x, so the rule needs only its positive
# nodes, with doubled weights
_HALF = _GAUSS_X > 0
_HALF_X, _HALF_EVEN, _HALF_ODD = _GAUSS_X[_HALF], 2.0 * _GAUSS_EVEN[_HALF], 2.0 * _GAUSS_ODD[_HALF]


def _moments_gauss(kappa):
    # sin(kappa x) and 1 - cos(kappa x) at the positive nodes from one
    # tangent each, in slabs of about _SLAB node values; einsum sums the
    # nodes in one order whatever the number of kappas
    step = max(1, _SLAB // _HALF_X.size)
    if kappa.size > step:
        return np.vstack([_moments_gauss(kappa[i : i + step]) for i in range(0, kappa.size, step)])
    half = 0.5 * np.multiply.outer(_HALF_X, kappa)
    sin, vers = double_angle(half, vers=half)
    out = np.empty((_VERS.stop, kappa.size))
    np.einsum("jn,jk->kn", sin, _HALF_ODD, out=out[_SIN])
    np.einsum("jn,jk->kn", vers, _HALF_EVEN, out=out[_VERS])
    np.subtract(_t_integrals(_K.size)[_EVEN, None], out[_VERS], out=out[_COS])
    return out.T


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
    regimes = ((flat <= _FORWARD, _moments_gauss), (flat > _FORWARD, _moments_forward))
    for where, method in regimes:
        if np.any(where):
            out[where] = method(flat[where])
    return out.reshape(*kappa.shape, _VERS.stop)


def filon(times, lo, hi, coef, more_sets=0):
    """(int v (1 - cos wt) dw, int w sin(wt) dw) at the ``times``, summed
    over panels [lo_i, hi_i] on which v and w are the interpolants with the
    :func:`chebyshev` coefficients ``coef``.

    With m the midpoint, h the width and w = m + (h/2) x, the oscillator
    splits as 1 - cos(mt + kx) = (1 - cos mt) + cos mt (1 - cos kx)
    + sin mt sin kx, k = ht/2, so small t keeps its relative accuracy, and
    each (time, panel) costs one tangent of mt/2.  Moments are computed once
    per (time, width class): widths in one bin of 2 eps times the largest
    knot, the rounding the knots carry, share their mean, so k errs by no
    more than the rounding of the largest phase mt.  Panels are taken in
    order of width, in slabs of about ``_SLAB`` moments, and each time's sum
    runs over them in that order whatever the slab size.  Before any sum,
    the (time, panel) sums and the moment sets, with ``more_sets`` per time
    that the caller computes, are charged to the work budget.
    """
    times = np.asarray(times, dtype=float)
    # panels in order of width, the input order within a width; first[c] is
    # the first panel of the c-th width class
    width = hi - lo
    order = np.argsort(width, kind="stable")
    width = width[order]
    key = np.floor(width / np.max(hi) / (2.0 * np.finfo(float).eps))
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1], True])
    widths = np.add.reduceat(width, first[:-1]) / np.diff(first)
    check_work(filon=times.size * lo.size, moments=times.size * (widths.size + more_sets))
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


# Si and Cin: the _GAUSS-point rule on [0, 1] up to _SI_SWITCH (its error
# grows with x through the rounding of its nodes and of x u, to 5 eps on Si
# at 40); above it _SI_TERMS terms of the continued fraction of
# e^z E1(z) at z = ix (A&S 5.1.22), summed from its tail.  _UNIT_W holds the
# rule's weights (w_j T_0) over 1/u at the nodes u = (1 + x_j)/2.
_SI_SWITCH = 8.0
_SI_MAX = 1.852  # Si(x) <= Si(pi) = 1.85194
_SI_TERMS = 24
_UNIT_X = 0.5 * (1.0 + _GAUSS_X)
_UNIT_W = _GAUSS_EVEN[:, 0] / (1.0 + _GAUSS_X)


def si_cin(x):
    """(Si(x), Cin(x)) at the 1-d ``x`` >= 0, as rows: int_0^1 sin(xu)/u du
    and int_0^1 vers(xu)/u du, vers = 1 - cos, each within ~1e-15
    relative; Cin keeps its relative accuracy as x -> 0.  The x are taken in
    slabs of about ``_SLAB`` node values."""
    x = np.asarray(x, dtype=float)
    out = np.empty((2, x.size))
    step = max(1, _SLAB // _GAUSS)
    for start in range(0, x.size, step):
        part = x[start : start + step]
        si, cin = out[:, start : start + step]
        near = part <= _SI_SWITCH
        # einsum sums the nodes in one order whatever the number of x
        sin, vers = double_angle(0.5 * np.multiply.outer(part[near], _UNIT_X))
        si[near], cin[near] = np.einsum("nj,j->n", sin, _UNIT_W), np.einsum("nj,j->n", vers, _UNIT_W)
        far, tail = part[~near], 0.0
        for k in range(_SI_TERMS, 0, -1):
            tail = k * k / (1j * far + (2 * k + 1) - tail)
        sin, vers = double_angle(0.5 * far)
        e1 = ((1.0 - vers) - 1j * sin) / (1j * far + 1.0 - tail)  # -Ci + i (Si - pi/2)
        si[~near], cin[~near] = 0.5 * np.pi + e1.imag, np.euler_gamma + np.log(far) + e1.real
    return out
