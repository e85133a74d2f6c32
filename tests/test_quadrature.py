import math
import signal

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad_vec

from qchan import QuadratureError, TabulatedDensity, dephasing
from qchan import _quadrature

# each regime's ends and inside: Gauss-Legendre to 24, with small kappas for the
# 1 - cos moments' relative accuracy, then forward
KAPPAS = (0.0, 1e-8, 1e-3, 0.25, 1.0, float(np.nextafter(1.0, 2.0)), 1.5, 2.5, 5.0, 10.0, 17.0,
          24.0, 30.0, 100.0, 1e3)


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


def test_half_gauss_rule_premise():
    # the rule sums its positive nodes with doubled weights: that is the full
    # rule only if the nodes and the weighted T_k are even or odd as floats
    x = _quadrature._GAUSS_X
    assert _quadrature._GAUSS % 2 == 0 and _quadrature._HALF_X.size == _quadrature._GAUSS // 2
    assert np.array_equal(-_quadrature._HALF_X[::-1], x[x < 0])
    assert np.array_equal(_quadrature._GAUSS_EVEN[::-1], _quadrature._GAUSS_EVEN)
    assert np.array_equal(-_quadrature._GAUSS_ODD[::-1], _quadrature._GAUSS_ODD)
    # and at kappa = 0 the moments are exactly (int T_k, 0, 0)
    row = _quadrature.moments(0.0)
    assert np.array_equal(row[_quadrature._COS], _quadrature._t_integrals(_quadrature._K.size)[::2])
    assert np.all(row[_quadrature._SIN] == 0.0) and np.all(row[_quadrature._VERS] == 0.0)


def test_si_cin_match_mpmath():
    # both sides of the switch from the Gauss-Legendre rule to the continued
    # fraction, and Cin's relative accuracy as x -> 0
    switch = _quadrature._SI_SWITCH
    xs = np.array([1e-150, 1e-8, 1e-3, 0.5, 1.0, 7.9, float(np.nextafter(switch, 0.0)), switch,
                   float(np.nextafter(switch, 9.0)), 8.5, 20.0, 39.9, 40.0, 40.5, 100.0, 1e3,
                   1e6, 1e15])
    si, cin = _quadrature.si_cin(np.concatenate([[0.0], xs]))
    assert si[0] == 0.0 and cin[0] == 0.0
    with mpmath.workdps(60):
        for x, s, c in zip(xs, si[1:], cin[1:]):
            exact_si = mpmath.si(x)
            # Cin(x) = sum_k (-1)^(k+1) x^2k / (2k (2k)!), by its series below 1
            exact_cin = (mpmath.nsum(lambda k: (-1) ** (k + 1) * mpmath.mpf(x) ** (2 * k)
                                     / (2 * k * mpmath.factorial(2 * k)), [1, mpmath.inf])
                         if x < 1.0 else mpmath.euler + mpmath.log(x) - mpmath.ci(x))
            assert abs(s - exact_si) <= 1e-15 * abs(exact_si), x
            assert abs(c - exact_cin) <= 1e-15 * abs(exact_cin), x


def test_chebyshev_rule_is_exact_to_its_degree():
    # a polynomial of degree _P - 2: coefficients exact, error bound at rounding
    coef = np.random.default_rng(2).normal(size=_quadrature._K.size)
    coef[-2:] = 0.0
    poly = np.polynomial.Chebyshev(coef, domain=[2.0, 3.0])
    got, errors, _ = _quadrature.chebyshev(
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
        TabulatedDensity(knots, values), beta, times, 1e-8
    )
    ref_value, ref_slope, ref_err = _reference(knots, values, beta, times)
    assert value[0] == 0.0 and slope[0] == 0.0
    assert np.all(np.abs(slope - ref_slope) <= slope_err + ref_err)
    assert np.all(np.abs(value - ref_value) <= value_err + ref_err)


@pytest.mark.parametrize("beta", [0.1, 1.0, math.inf])
@pytest.mark.parametrize("j0", [0.0, 0.7])
def test_wide_first_interval_estimates_bound_quad_vec(j0, beta):
    # a first knot interval [0, 5] from w = 0, integrated partly in closed
    # form: b t = 5, 35, 150 and 1000 take both of Si and Cin's methods
    knots, values = np.array([0.0, 5.0, 6.0, 8.0]), np.array([j0, 1.0, 0.5, 0.2])
    _assert_estimates_bound_quad_vec(knots, values, beta, np.array([0.0, 1.0, 7.0, 30.0, 200.0]))


@pytest.mark.parametrize("beta", [0.1, 1.0, math.inf])
@pytest.mark.parametrize("start", [1e-8, 0.3])
def test_table_above_zero_estimates_bound_quad_vec(start, beta):
    # from 0.3 every knot interval is a Filon interval; from 1e-8 at finite
    # beta the panels' rounding floor on J / (4 pi beta w^2) next to 1e-8
    # would be ~3e-7, and [1e-8, 1]'s singular part is taken in closed form
    knots, values = np.array([start, 1.0, 2.5]), np.array([0.8, 1.2, 0.4])
    _assert_estimates_bound_quad_vec(knots, values, beta, np.array([0.0, 0.5, 9.0, 120.0]))


def test_first_interval_far_from_zero_stays_with_filon():
    # J = w - 20 on [20, 21]: the closed form's p = J0 / (4 pi beta) would be
    # -159 at beta = 0.01, and F(b) - F(a) at t = 2000 would cancel to a
    # rounding bound of ~1.3e-8, while the panels' floor there is ~0
    _assert_estimates_bound_quad_vec(np.array([20.0, 21.0, 22.5]), np.array([0.0, 1.0, 0.4]), 0.01,
                                     np.array([0.0, 3.0, 2000.0]))


def test_closed_form_estimate_covers_its_rounding():
    # J = 1 on [0, 1] at beta = 1: Gamma(300) ~ 37 is nearly all closed
    # form, whose rounding (3e-15) the Filon bound (2e-16) does not see
    table = TabulatedDensity([0.0, 1.0], [1.0, 1.0])
    value, _, value_err, _ = dephasing._tabulated(table, 1.0, np.array([300.0]), 1e-8)
    with mpmath.workdps(30):
        t = mpmath.mpf(300)
        exact = mpmath.quad(lambda w: mpmath.coth(w / 2) * (1 - mpmath.cos(w * t)) / (8 * mpmath.pi * w),
                            mpmath.linspace(0, 1, 100))
    assert abs(value[0] - exact) <= value_err[0]


@pytest.mark.parametrize(("j0", "tol"), [(0.5, 1e-12), (10.0, 1e-11), (2.0, 1e-12)])
def test_closed_form_floor_is_set_aside_before_the_pass(j0, tol):
    # J(0) > 0 at 2001 times to 400: the closed form's rounding floor grows
    # with t, so the pass refines to tol less its bound; where that bound
    # tops tol, the error names the floor
    grid = np.linspace(0.0, 20.0, 21)
    table = TabulatedDensity(grid, j0 + 8.0 * math.pi * grid * np.exp(-grid))
    times = np.linspace(0.0, 400.0, 2001)
    if j0 == 2.0:
        with pytest.raises(QuadratureError, match="lies below its rounding floor"):
            dephasing._tabulated(table, 1.0, times, tol)
        return
    _, _, value_err, slope_err = dephasing._tabulated(table, 1.0, times, tol)
    assert np.max(value_err) <= tol and np.max(slope_err) <= tol


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
    coef, _, _ = _quadrature.chebyshev(lambda x: np.stack([v(x), w(x)]), lo, hi)
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


def test_refinement_ties_go_to_a_first_panel_then_the_lower_index():
    # every panel, first or half, has error 1: the first panels are split in
    # order, then the halves by index, a left half keeping its parent's
    def rule(f, lo, hi):
        ones = np.ones((1, lo.size))
        return ones, ones, 0.0 * ones

    lo, hi, _, errors, _ = _quadrature.integrate_adaptive(None, [0.0, 1.0, 2.0, 3.0], 0.5, 9,
                                                          rule=rule)
    assert lo.tolist() == [0.0, 1.0, 2.0, 0.5, 1.5, 2.5, 0.25, 0.125, 0.0625]
    assert hi.tolist() == [0.0625, 1.5, 2.5, 1.0, 2.0, 3.0, 0.5, 0.25, 0.125]
    assert errors.shape == (1, 9)


def test_a_non_finite_error_ends_the_refinement():
    # W/w overflows next to the knot at 5e-324: the refinement stops on the
    # first panel whose error is not finite, and the caller raises
    table = TabulatedDensity([0.0, 5e-324, 1.0], [1.0, 1.0, 1.0])
    calls = []
    rule = _quadrature.chebyshev

    def counting(f, lo, hi):
        calls.append(lo.size)
        return rule(f, lo, hi)

    with np.errstate(all="ignore"):
        _, _, _, errors, _ = _quadrature.integrate_adaptive(
            dephasing._filon_weights(table, 1.0), table.frequencies[1:], 0.5e-8,
            dephasing.MAX_PANELS - 1, rule=counting)
    assert len(calls) <= 1000 and not np.all(np.isfinite(errors))
    # a first pass with a NaN error is not refined at all
    calls.clear()

    def nan_first(f, lo, hi):
        calls.append(lo.size)
        return np.ones((1, lo.size)), np.array([[np.nan, 1.0]]), np.zeros((1, lo.size))

    _quadrature.integrate_adaptive(None, [0.0, 1.0, 2.0], 0.5, 9, rule=nan_first)
    assert calls == [2]
    with pytest.raises(QuadratureError, match="non-finite"):
        dephasing._continuum_and_slope(table, 1.0, np.linspace(0.0, 2.0, 6))


def _closed_form_weights(table, beta):
    # the Filon weights of dephasing._tabulated on a table from w = 0, whose
    # first knot interval's singular part is taken in closed form
    knots, values = table.frequencies, table.values
    return dephasing._filon_weights(table, beta, knots[1], (values[1] - values[0]) / knots[1])


def _adaptive_cases():
    """(integrand, edges, rule, tol, max_panels) of the Filon pass of
    :func:`dephasing._tabulated`, each of which splits: a 401-knot table at
    beta = 1 and tol 1e-12, and a 21-knot table with J(0) > 0 at beta = 5 and
    tol 1e-10, whose first knot interval [0, 2] splits."""
    grid = np.linspace(0.0, 20.0, 401)
    density = grid * np.exp(-grid / 3.0) * (1.5 + np.exp(-((grid - 5.0) ** 2)))
    filon_pass = (_closed_form_weights(TabulatedDensity(grid, density), 1.0), grid,
                  _quadrature.chebyshev)
    wide = np.linspace(0.0, 40.0, 21)
    table = TabulatedDensity(wide, 0.5 + 8.0 * math.pi * wide * np.exp(-wide))
    first_pass = (_closed_form_weights(table, 5.0), wide, _quadrature.chebyshev)
    return {
        "filon-splits": (*filon_pass, 1e-12, 50000),
        "first-interval-splits": (*first_pass, 1e-10, 50000),
        "budget": (*filon_pass, 1e-12, grid.size + 1),  # two of the three splits
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
    if case == "first-interval-splits":
        assert np.sum(hi <= edges[1]) > 1
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
