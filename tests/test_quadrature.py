import math
import signal

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad_vec

from qchan import QuadratureError, TabulatedDensity, dephasing
from qchan import _quadrature

KAPPAS = (0.0, 1e-8, 1e-3, 0.25, 1.0, 2.5, 10.0, 30.0, 100.0, 1e3)


def mpmath_moments(k, kappa):
    """(cos, 1 - cos) moments int_{-1}^{1} T_k(x) g(kappa x) dx for even k,
    (sin, 0) for odd k, by mpmath.quad at 40 digits: x = cos(theta),
    T_k = cos(k theta), and by parity twice the integral over theta in
    [0, pi/2], in pieces of at most 50 radians of kappa cos(theta)."""
    with mpmath.workdps(40):
        kap = mpmath.mpf(kappa)
        wave = mpmath.cos if k % 2 == 0 else mpmath.sin
        pieces = mpmath.linspace(0, mpmath.pi / 2, int(kappa / 50.0) + 2)
        moment = 2 * mpmath.quad(
            lambda th: mpmath.cos(k * th) * wave(kap * mpmath.cos(th)) * mpmath.sin(th),
            pieces, method="gauss-legendre",
        )
        vers = mpmath.mpf(2) / (1 - k * k) - moment if k % 2 == 0 else mpmath.mpf(0)
        return float(moment), float(vers)


def test_chebyshev_moments_match_mpmath():
    got = _quadrature.moments(np.array(KAPPAS))
    even = [int(k) for k in _quadrature._K[_quadrature._EVEN]]
    odd = [int(k) for k in _quadrature._K[~_quadrature._EVEN]]
    for kappa, row in zip(KAPPAS, got):
        for k, cos, vers in zip(even, row[_quadrature._COS], row[_quadrature._VERS]):
            exact, exact_vers = mpmath_moments(k, kappa)
            assert abs(cos - exact) <= 1e-15, (kappa, k)
            assert abs(vers - exact_vers) <= 1e-15, (kappa, k)
            if kappa <= 1e-3 and kappa > 0:
                assert abs(vers - exact_vers) <= 1e-14 * abs(exact_vers), (kappa, k)
        for k, sin in zip(odd, row[_quadrature._SIN]):
            assert abs(sin - mpmath_moments(k, kappa)[0]) <= 1e-15, (kappa, k)


def test_chebyshev_rule_is_exact_to_its_degree():
    # a polynomial of degree _P - 2: coefficients exact, error bound at rounding
    coef = np.random.default_rng(2).normal(size=_quadrature._K.size)
    coef[-2:] = 0.0
    poly = np.polynomial.Chebyshev(coef, domain=[2.0, 3.0])
    got, errors, _ = _quadrature.chebyshev((2.0, 1.0))(
        lambda w: np.stack([poly(w), 2.0 * poly(w)]), np.array([2.0]), np.array([3.0])
    )
    assert np.max(np.abs(got[:, 0].ravel() - np.concatenate([coef, 2.0 * coef]))) <= 1e-13
    assert np.all(errors <= 1e-12)  # the rounding floor alone


def _reference(knots, values, beta, times):
    """(Gamma, Gamma', error) of the linear interpolant by scipy's quad_vec."""

    def integrand(w):
        if w <= 0.0:
            # the limits as w -> 0: W (1 - cos wt) / w -> 0; W sin(wt) -> 0
            # at beta = inf and -> 2 J(0) t / (8 pi beta) at finite beta
            slope = 0.0 if math.isinf(beta) else 2.0 * values[0] * times / (8.0 * math.pi * beta)
            return np.concatenate([np.zeros_like(times), slope])
        weight = np.interp(w, knots, values) / math.tanh(0.5 * beta * w) / (8.0 * math.pi)
        return np.concatenate([weight / w * 2.0 * np.sin(0.5 * w * times) ** 2,
                               weight * np.sin(w * times)])

    value, err = quad_vec(integrand, knots[0], knots[-1], epsabs=1e-13, epsrel=0.0,
                          points=knots[1:-1], norm="max", limit=100000)
    return value[: times.size], value[times.size :], err


@st.composite
def tables(draw):
    n = draw(st.integers(3, 8))
    start = draw(st.sampled_from([0.0, 0.05, 0.7]))
    length = draw(st.floats(0.3, 2.0))
    if draw(st.booleans()):
        knots = start + np.linspace(0.0, length, n)
    else:
        steps = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n - 1, max_size=n - 1)))
        knots = start + np.concatenate([[0.0], np.cumsum(steps)]) * (length / steps.sum())
    values = np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n)))
    if draw(st.booleans()):
        values[0] = 0.0
    return knots, values


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    tables(),
    st.sampled_from([0.1, 1.0, math.inf]),
    st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=3),
)
def test_tabulated_error_estimates_bound_quad_vec(table, beta, times):
    _assert_estimates_bound_quad_vec(*table, beta, np.array([0.0, *times]))


def _assert_estimates_bound_quad_vec(knots, values, beta, times):
    value, slope, value_err, slope_err = dephasing._tabulated(
        TabulatedDensity(knots, values), beta, times, 1e-8, 50000
    )
    ref_value, ref_slope, ref_err = _reference(knots, values, beta, times)
    assert value[0] == 0.0 and slope[0] == 0.0
    assert np.all(np.abs(slope - ref_slope) <= slope_err + ref_err)
    assert np.all(np.abs(value - ref_value) <= value_err + ref_err)


def test_first_interval_estimate_bounds_an_unresolved_oscillation():
    # one panel of the first knot interval [0.7, 1.27] at t = 195 has
    # kappa = h t / 2 ~ 56, far beyond the rule's degree: its trailing
    # coefficients had not begun to decay, and the true errors were 1.65x
    # (Gamma) and 1.44x (Gamma') the estimates
    knots = np.array([0.7, 1.2695067484941043, 1.4228436355621334, 1.6979650374038087,
                      1.7549162817656627, 2.2])
    values = np.array([0.0, 1e-8, 1 / 3, 0.2517762779772426, 1.5676321741926391,
                       0.06262292181759578])
    _assert_estimates_bound_quad_vec(knots, values, 0.1, np.array([0.0, 195.2018024936222,
                                                                   671.3104020381983]))


def test_filon_sums_match_quad_vec_on_a_polynomial():
    # exact interpolants, so only the moments and the sums are tested
    lo, hi = np.array([0.5, 1.0, 1.5]), np.array([1.0, 1.5, 2.5])
    v = np.polynomial.Polynomial([0.3, -0.2, 0.1, 0.05])
    w = np.polynomial.Polynomial([1.0, 0.5, -0.25])
    coef, _, _ = _quadrature.chebyshev((2.0, 1.0))(lambda x: np.stack([v(x), w(x)]), lo, hi)
    times = np.array([0.0, 1e-6, 0.3, 7.0, 60.0, 900.0])
    value, slope = _quadrature.filon(times, lo, hi, coef)
    ref, err = quad_vec(
        lambda x: np.concatenate([v(x) * 2.0 * np.sin(0.5 * x * times) ** 2,
                                  w(x) * np.sin(x * times)]),
        0.5, 2.5, epsabs=1e-14, epsrel=1e-14, norm="max", limit=100000,
    )
    assert np.all(np.abs(value - ref[:6]) <= 1e-13 + err)
    assert np.all(np.abs(slope - ref[6:]) <= 1e-13 + err)
    assert value[1] == pytest.approx(ref[1], rel=1e-12)  # 1 - cos at small t


def test_unsplittable_panels_end_the_refinement():
    # a knot interval one ulp wide cannot be split, and no tolerance below
    # its rounding floor is reachable: the call must fail, not spin
    table = TabulatedDensity([1.0, np.nextafter(1.0, 2.0)], [1.0, 1.0])

    def stop(*args):
        raise AssertionError("the refinement did not end")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(10)
    try:
        with pytest.raises(QuadratureError):
            dephasing._continuum_and_slope(table, 1.0, [5.0], tol=1e-30)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _adaptive_cases():
    """(integrand, edges, rule, tol, max_panels) of the two passes of
    :func:`dephasing._tabulated`, each of which splits: the Filon pass on a
    401-knot table at tol 1e-12, and the first knot interval of the fig2
    density on 21 knots at 201 times and tol 1e-10."""
    grid = np.linspace(0.0, 20.0, 401)
    density = grid * np.exp(-grid / 3.0) * (1.5 + np.exp(-((grid - 5.0) ** 2)))
    filon_pass = (dephasing._filon_weights(TabulatedDensity(grid, density), 1.0), grid[1:],
                  _quadrature.chebyshev((2.0, 1.0)))
    wide = np.linspace(0.0, 40.0, 21)
    times = np.linspace(0.0, 40.0, 201)
    table = TabulatedDensity(wide, 8.0 * math.pi * wide * np.exp(-wide))
    first_pass = (dephasing._continuum_integrand(table, 1.0, times), wide[:2],
                  _quadrature.integrated(_quadrature.chebyshev(np.ones(2 * times.size))))
    return {
        "filon-splits": (*filon_pass, 0.5e-12, 50000),
        "first-interval-splits": (*first_pass, 0.5e-10, 50000),
        "budget": (*filon_pass, 0.5e-12, grid.size),  # two of the three splits
    }


@pytest.mark.parametrize("case", ["filon-splits", "first-interval-splits", "budget"])
def test_adaptive_panels_tile_the_edges(case):
    f, edges, rule, tol, max_panels = _adaptive_cases()[case]
    # the live panels with their estimates and errors, replayed from the
    # rule's calls: the first call holds the first panels, each later one the
    # halves of a split
    live, totals = {}, []

    def recording(f, lo, hi):
        out = rule(f, lo, hi)
        if live:
            del live[(lo[0], hi[1])]
        live.update({(a, b): (v, e) for a, b, v, e in
                     zip(lo, hi, np.moveaxis(out[0], 1, 0), out[1].T)})
        totals.append(sum(e for _, e in live.values()))
        return out

    lo, hi, estimates, errors, _ = _quadrature.integrate_adaptive(f, edges, tol, max_panels,
                                                                  rule=recording)
    assert lo.size > edges.size - 1  # some panel was split
    order = np.argsort(lo)
    assert lo[order][0] == edges[0] and hi[order][-1] == edges[-1]
    assert np.array_equal(lo[order][1:], hi[order][:-1])  # no gap, no overlap
    assert lo.size == len(live) <= max_panels
    assert estimates.shape[1] == errors.shape[1] == lo.size
    for a, b, v, e in zip(lo, hi, np.moveaxis(estimates, 1, 0), errors.T):
        assert np.array_equal(v, live[(a, b)][0]) and np.array_equal(e, live[(a, b)][1])
    assert np.allclose(errors.sum(axis=1), totals[-1], rtol=1e-12, atol=0.0)
    if case == "budget":
        assert lo.size == max_panels and np.max(totals[-1]) > tol
    else:
        # it stopped on the tolerance, and not one split later
        assert np.max(totals[-1]) <= tol < np.max(totals[-2])
