import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad, quad_vec
from scipy.special import polygamma, psi

from qchan import (
    BlochVector,
    CosineSumProcess,
    DecoherenceFunction,
    DiscreteBosonBath,
    DomainError,
    OhmicExpDensity,
    PhaseDressing,
    QuadratureError,
    TabulatedDensity,
    UnsupportedQueryError,
    WhiteNoiseProcess,
    apply_kraus,
    correlation,
    dephasing_channel_at,
    dress_with_phase,
    gamma_classical,
    gamma_continuum,
    gamma_discrete,
    kraus_phase_damping,
    load_tabulated,
    monte_carlo_coherence,
    state_from_bloch,
)
from qchan import _quadrature, _rng, dephasing
from qchan.channels import GENERATOR_SIGMA3_HALF

FIG2_DENSITY = OhmicExpDensity(8.0 * math.pi, 1.0)
ORACLE_BETAS = (math.inf, 10.0, 1.0, 0.1)
ORACLE_TIMES = (0.5, 1.0, 5.0, 12.5, 25.0)


def fig2_table(knots):
    grid = np.linspace(0.0, 40.0, knots)
    return TabulatedDensity(grid, FIG2_DENSITY(grid))


def quadpack_ohmic(beta, t):
    """QUADPACK value of the fig2 exponent (A / 8 pi = 1).  With
    g(w) = exp(-w) coth(beta w / 2), the head [0, 2] is integrated directly
    and the tail as int g - int g cos(w t), the latter with the Fourier
    weight (QAWF) over [2, inf)."""

    def g(w):
        return math.exp(-w) if math.isinf(beta) else math.exp(-w) / math.tanh(0.5 * beta * w)

    head = quad(
        lambda w: g(w) * 2.0 * math.sin(0.5 * w * t) ** 2, 0.0, 2.0,
        epsabs=1e-12, epsrel=1e-12, limit=200,
    )[0]
    tail = quad(g, 2.0, math.inf, epsabs=1e-12, epsrel=1e-12)[0]
    wave = quad(g, 2.0, math.inf, weight="cos", wvar=t, epsabs=1e-12)[0]
    return head + tail - wave


def fig2_single_mode_bath():
    # frequency 1/(2 tau), combined weight |c|^2 coth / omega^2 = 4 at beta = inf
    omega = 0.5
    return DiscreteBosonBath(((2.0 * omega, omega),), beta=math.inf)


def test_discrete_zero_time():
    assert gamma_discrete(fig2_single_mode_bath(), 0.0) == 0.0


def test_discrete_fig2_dotted_curve():
    bath = fig2_single_mode_bath()
    t = np.linspace(0.0, 25.0, 500)
    expected = 1.0 - np.cos(0.5 * t)
    assert np.allclose(gamma_discrete(bath, t), expected, atol=1e-12)
    # the peak sits at t = 2 pi (where Gamma = 2)
    peak = 1.0 - math.exp(-gamma_discrete(bath, 2.0 * math.pi))
    assert peak == pytest.approx(1.0 - math.exp(-2.0), abs=1e-12)
    grid_peak = np.max(1.0 - np.exp(-gamma_discrete(bath, t)))
    assert grid_peak <= peak + 1e-12


def test_discrete_linearity():
    one = DiscreteBosonBath(((0.7, 1.3),), beta=2.0)
    two = DiscreteBosonBath(((0.7, 1.3), (0.7, 1.3)), beta=2.0)
    for t in (0.5, 2.0, 9.0):
        assert gamma_discrete(two, t) == pytest.approx(2.0 * gamma_discrete(one, t), rel=1e-14)


def test_discrete_periodicity_single_mode():
    bath = DiscreteBosonBath(((1.1, 0.8),), beta=3.0)
    period = 2.0 * math.pi / 0.8
    t = np.linspace(0.0, 2.0 * period, 97)
    p = 1.0 - np.exp(-gamma_discrete(bath, t))
    p_shift = 1.0 - np.exp(-gamma_discrete(bath, t + period))
    assert np.max(np.abs(p - p_shift)) <= 1e-10


def test_discrete_temperature_monotonicity():
    # p_M grows with temperature (smaller beta) at fixed coupling and frequency
    peaks = []
    for beta in (8.0, 2.0, 0.5):
        bath = DiscreteBosonBath(((1.0, 1.0),), beta=beta)
        peaks.append(gamma_discrete(bath, math.pi))
    assert peaks[0] < peaks[1] < peaks[2]


def test_zero_temperature_weight_is_one():
    cold = DiscreteBosonBath(((1.0, 2.0),), beta=math.inf)
    explicit = 0.25 * (1.0 - math.cos(2.0 * 3.3)) / 4.0
    assert gamma_discrete(cold, 3.3) == pytest.approx(explicit, rel=1e-14)


def test_continuum_matches_closed_form():
    for t in (0.0, 0.5, 2.0, 10.0, 25.0):
        got = gamma_continuum(FIG2_DENSITY, math.inf, t, tol=1e-8)
        assert got == pytest.approx(t * t / (1.0 + t * t), abs=1e-8)


def test_continuum_finite_temperature_vs_scipy():
    # independent oracle: QUADPACK on the same integrand
    beta = 1.0
    for t in (1.0, 5.0, 20.0):

        def integrand(w):
            return math.exp(-w) * (1.0 - math.cos(w * t)) / math.tanh(0.5 * beta * w)

        expected = quad(integrand, 0.0, 60.0, limit=400)[0]
        got = gamma_continuum(FIG2_DENSITY, beta, t, tol=1e-8)
        assert got == pytest.approx(expected, abs=1e-6)


def test_finite_temperature_exceeds_zero_temperature():
    previous = 0.0
    for t in (5.0, 15.0, 25.0, 60.0):
        hot = gamma_continuum(FIG2_DENSITY, 1.0, t)
        cold = gamma_continuum(FIG2_DENSITY, math.inf, t)
        assert hot > cold
        assert hot > previous  # keeps growing where the zero-T curve saturates
        previous = hot
    assert 1.0 - math.exp(-previous) > 0.999  # p -> 1 at finite temperature


@pytest.mark.parametrize("beta", ORACLE_BETAS)
def test_ohmic_closed_form_matches_quadpack(beta):
    for t in ORACLE_TIMES:
        got = gamma_continuum(FIG2_DENSITY, beta, t)
        assert got == pytest.approx(quadpack_ohmic(beta, t), abs=1e-8)


@pytest.mark.parametrize("beta", ORACLE_BETAS)
def test_ohmic_closed_form_matches_tabulated_quadrature(beta):
    # linear interpolation biases the 48001-knot table by O(h^2) (up to 8e-5
    # at beta = 0.1, t = 25); Richardson extrapolation against the 24001-knot
    # table removes that term
    fine, coarse = fig2_table(48001), fig2_table(24001)
    for t in ORACLE_TIMES:
        extrapolated = (
            4.0 * gamma_continuum(fine, beta, t) - gamma_continuum(coarse, beta, t)
        ) / 3.0
        assert gamma_continuum(FIG2_DENSITY, beta, t) == pytest.approx(extrapolated, abs=1e-8)


@pytest.mark.parametrize("beta", (1e-3, 0.1, 1.0))
def test_ohmic_closed_form_never_negative(beta):
    # the digamma difference cancels at tiny t
    for t in (1e-9, 1e-6):
        assert gamma_continuum(FIG2_DENSITY, beta, t) >= 0.0


def test_ohmic_closed_form_skips_quadrature(monkeypatch):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("the Ohmic density must not reach quadrature")

    monkeypatch.setattr(dephasing, "integrate_adaptive", no_quadrature)
    for beta in ORACLE_BETAS:
        assert gamma_continuum(FIG2_DENSITY, beta, 5.0, tol=1e-30, max_panels=1) > 0.0


def test_digamma_trigamma_real_axis():
    x = np.concatenate([np.linspace(1.0, 11.0, 1001), [0.25, 0.5, 30.0, 1e3]])
    value, slope = dephasing._digamma_trigamma(x)
    assert np.all(value.imag == 0.0) and np.all(slope.imag == 0.0)
    assert np.all(np.abs(value.real - psi(x)) <= 4e-15 * np.maximum(1.0, np.abs(psi(x))))
    assert np.all(np.abs(slope.real - polygamma(1, x)) <= 4e-15 * polygamma(1, x))


def test_digamma_trigamma_off_axis():
    # the Ohmic range: Re z = 1 + tau/beta, Im z = t/beta
    rng = np.random.default_rng(3)
    z = rng.uniform(1.0, 11.0, 4000) + 1j * rng.uniform(-250.0, 250.0, 4000)
    value, slope = dephasing._digamma_trigamma(z)
    assert np.all(np.abs(value - psi(z)) <= 5e-15 * np.abs(psi(z)))
    h = 1e-4
    central = (psi(z + h) - psi(z - h)) / (2.0 * h)
    assert np.all(np.abs(slope - central) <= 1e-7 * np.abs(slope))


def test_quadrature_heap_only_on_demand(monkeypatch):
    def no_heap(*args):
        raise AssertionError("heap built for a converged first pass")

    # at beta = inf both passes converge on their first panels; at beta = 1
    # the Filon pass splits the knot interval next to w = 0 once, and the
    # heap holds the panels that bisection adds
    monkeypatch.setattr(_quadrature.heapq, "heappush", no_heap)
    assert gamma_continuum(fig2_table(4001), math.inf, 5.0) > 0.0
    with pytest.raises(AssertionError):
        gamma_continuum(fig2_table(4001), 1.0, 5.0)


def test_tabulated_matches_ohmic():
    table = fig2_table(48001)
    for t in (0.5, 1.0, 2.0, 5.0):
        got = gamma_continuum(table, math.inf, t, tol=1e-8)
        assert got == pytest.approx(t * t / (1.0 + t * t), abs=1e-6)


def test_tabulated_loader(tmp_path):
    grid = np.linspace(0.0, 30.0, 2001)
    path = tmp_path / "density.txt"
    np.savetxt(path, np.column_stack([grid, FIG2_DENSITY(grid)]))
    table = load_tabulated(path)
    assert table.frequencies.size == 2001
    got = gamma_continuum(table, math.inf, 1.0, tol=1e-8)
    assert got == pytest.approx(0.5, abs=1e-4)


def test_tabulated_validation(tmp_path):
    with pytest.raises(DomainError):
        TabulatedDensity([0.0, 1.0, 0.5], [1.0, 1.0, 1.0])
    with pytest.raises(DomainError):
        TabulatedDensity([0.0, 1.0], [-1.0, 1.0])
    path = tmp_path / "bad.txt"
    path.write_text("0.0 1.0 2.0\n1.0 2.0 3.0\n")
    with pytest.raises(DomainError):
        load_tabulated(path)


def test_quadrature_budget_error_carries_estimate():
    # the 4000 knot intervals already exceed the budget, so no panel is
    # split, and one Chebyshev panel on [0, 0.1] misses cos(40 w) by more
    # than tol
    grid = np.linspace(0.0, 400.0, 4001)
    table = TabulatedDensity(grid, FIG2_DENSITY(grid))
    with pytest.raises(QuadratureError) as info:
        gamma_continuum(table, math.inf, 40.0, tol=1e-13, max_panels=6)
    expected = 40.0**2 / (1.0 + 40.0**2)
    assert info.value.estimate == pytest.approx(expected, abs=0.2)
    assert info.value.error > 0


def test_tabulated_times_match_single_times_and_quad_vec(monkeypatch):
    # all 37 times share one Filon pass and one pass on the first knot
    # interval; a shuffled copy gives the same values
    grid = np.linspace(0.0, 20.0, 401)
    density = grid * np.exp(-grid / 3.0) * (1.5 + np.exp(-((grid - 5.0) ** 2)))
    table = TabulatedDensity(grid, density)
    times = np.linspace(0.0, 30.0, 37)
    tol = 1e-8
    passes = []
    integrate = dephasing.integrate_adaptive

    def recording(f, edges, *args, **kwargs):
        passes.append(edges)
        return integrate(f, edges, *args, **kwargs)

    monkeypatch.setattr(dephasing, "integrate_adaptive", recording)
    value, slope, value_err, slope_err = dephasing._tabulated(table, 1.0, times, tol, 50000)
    assert len(passes) == 2 and np.array_equal(passes[0], grid[1:])
    assert np.all(value_err <= tol) and np.all(slope_err <= tol)
    shuffled = np.random.default_rng(5).permutation(37)
    for got, want in zip(dephasing._continuum_and_slope(table, 1.0, times[shuffled], tol),
                         (value, slope, slope_err)):
        assert np.array_equal(got, want[shuffled])
    single = np.array([dephasing._continuum_and_slope(table, 1.0, t, tol) for t in times])
    assert np.max(np.abs(value - single[:, 0])) <= 2.0 * tol
    assert np.max(np.abs(slope - single[:, 1])) <= 2.0 * tol

    def integrand(w):
        if w <= 0.0:
            return np.zeros(2 * times.size)  # both integrands vanish as w -> 0
        weight = np.interp(w, grid, density) / math.tanh(0.5 * w) / (8.0 * math.pi)
        return np.concatenate(
            [weight / w * 2.0 * np.sin(0.5 * w * times) ** 2, weight * np.sin(w * times)]
        )

    reference, reference_err = quad_vec(
        integrand, 0.0, 20.0, epsabs=1e-13, epsrel=0.0, points=grid[1:-1],
        norm="max", limit=100000,
    )
    assert np.all(value_err[1:] > 0.0) and np.all(slope_err[1:] > 0.0)
    assert np.all(np.abs(value - reference[:37]) <= value_err + reference_err)
    assert np.all(np.abs(slope - reference[37:]) <= slope_err + reference_err)


class _Enough(Exception):
    pass


def test_quadrature_slabs_bound_integrand_size(monkeypatch):
    # 20001 times x 4001 knots: 8e7 (time, panel) pairs, 640 MB as one array
    grid = np.linspace(0.0, 400.0, 4001)
    table = TabulatedDensity(grid, FIG2_DENSITY(grid))
    times = np.linspace(0.0, 40.0, 20001)
    sizes, tangents = [], []
    integrate, tangent = dephasing.integrate_adaptive, _quadrature.double_angle

    def recording(f, edges, *args, **kwargs):
        def wrapped(w):
            rows = f(w)
            sizes.append(rows.size)
            return rows

        return integrate(wrapped, edges, *args, **kwargs)

    def counting(x, **kwargs):
        tangents.append(x.size)
        if len(tangents) == 100:  # enough slabs to see the steady state
            raise _Enough
        return tangent(x, **kwargs)

    monkeypatch.setattr(dephasing, "integrate_adaptive", recording)
    monkeypatch.setattr(_quadrature, "double_angle", counting)
    tracemalloc.start()
    try:
        with pytest.raises(_Enough):
            dephasing._continuum_and_slope(table, 1.0, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(sizes) <= _quadrature._SLAB and max(tangents) <= _quadrature._SLAB
    assert peak <= 200 * _quadrature._SLAB  # 13 MB: 25 slabs of doubles
    # the first knot interval takes the 20001 times in groups
    sizes.clear()
    dephasing._continuum_and_slope(TabulatedDensity(grid[:3], FIG2_DENSITY(grid[:3])), 1.0, times)
    assert max(sizes) <= _quadrature._SLAB


def test_tabulated_results_do_not_depend_on_slab_size(monkeypatch):
    grid = np.linspace(0.0, 20.0, 401)
    density = grid * np.exp(-grid / 3.0) * (1.5 + np.exp(-((grid - 5.0) ** 2)))
    table = TabulatedDensity(grid, density)
    times = np.linspace(0.0, 30.0, 37)
    # a tight tolerance, so bisections run after the first pass
    default = dephasing._continuum_and_slope(table, 1.0, times, tol=1e-12)
    calls = []
    integrate = dephasing.integrate_adaptive

    def counting(f, *args, **kwargs):
        def wrapped(w):
            calls.append(w.size)
            return f(w)

        return integrate(wrapped, *args, **kwargs)

    monkeypatch.setattr(dephasing, "integrate_adaptive", counting)
    monkeypatch.setattr(_quadrature, "_SLAB", 1)  # one panel, one time per slab
    single = dephasing._continuum_and_slope(table, 1.0, times, tol=1e-12)
    assert set(calls) == {13}
    for got, want in zip(single, default):
        assert got.tobytes() == want.tobytes()


def test_continuum_integrand_matches_sines():
    grid = np.linspace(0.0, 20.0, 401)
    table = TabulatedDensity(grid, grid * np.exp(-grid / 3.0))
    times = np.linspace(0.0, 30.0, 37)
    w = np.random.default_rng(4).uniform(0.5, 20.0, 3000)
    rows = dephasing._continuum_integrand(table, 1.0, times)(w)
    weight = table(w) / np.tanh(0.5 * w) / (8.0 * math.pi)
    phase = np.outer(times, w)
    value = weight / w * 2.0 * np.sin(0.5 * phase) ** 2
    slope = weight * np.sin(phase)
    eps = np.finfo(float).eps
    assert np.all(np.abs(rows[:37] - value) <= 8.0 * eps * np.abs(value))
    assert np.all(np.abs(rows[37:] - slope) <= 8.0 * eps * np.abs(slope))


def test_quadrature_error_carries_partial_gamma():
    grid = np.linspace(0.0, 400.0, 4001)
    table = TabulatedDensity(grid, FIG2_DENSITY(grid))
    times = np.linspace(2.0, 40.0, 20)
    with pytest.raises(QuadratureError) as info:
        dephasing._continuum_and_slope(table, math.inf, times, tol=1e-13, max_panels=6)
    assert str(info.value).startswith("quadrature error estimate")
    # the partial Gamma of the first time, 2^2 / (1 + 2^2)
    assert info.value.estimate == pytest.approx(4.0 / 5.0, abs=1e-2)
    assert info.value.error > 0


def test_classical_white_noise_is_linear():
    process = WhiteNoiseProcess(1.0)
    t = np.linspace(0.0, 5.0, 21)
    assert np.allclose(gamma_classical(process, 1.0, t), 2.0 * t, atol=1e-14)


def test_classical_single_cosine():
    process = CosineSumProcess(((1.0, 1.0),))
    t = np.linspace(0.0, 12.0, 61)
    assert np.allclose(gamma_classical(process, 1.0, t), 4.0 * (1.0 - np.cos(t)), atol=1e-12)
    assert gamma_classical(process, 1.0, 0.0) == 0.0


def test_correlation_values():
    process = CosineSumProcess(((0.6, 2.0), (1.1, 0.5)))
    assert correlation(process, 0.0) == pytest.approx(0.6**2 + 1.1**2, rel=1e-14)
    single = CosineSumProcess(((1.3, 2.0),))
    assert correlation(single, math.pi / 2.0) == pytest.approx(-(1.3**2), rel=1e-12)


@given(st.floats(-50.0, 50.0))
def test_correlation_even(dt):
    process = CosineSumProcess(((0.8, 1.7), (0.4, 0.3)))
    assert correlation(process, dt) == pytest.approx(correlation(process, -dt), rel=1e-12)


def test_correlation_rejects_white_noise():
    with pytest.raises(UnsupportedQueryError):
        correlation(WhiteNoiseProcess(1.0), 0.0)


def test_monte_carlo_coherence_matches_closed_form():
    process = CosineSumProcess(((1.0, 1.0),))
    grid = np.linspace(0.0, 2.0 * math.pi, 41)
    estimate = monte_carlo_coherence(process, 1.0, grid, 4000, seed=5)
    expected = np.exp(-gamma_classical(process, 1.0, grid))
    # closed form at t = pi: Gamma = 4 (1 - cos pi) = 8
    assert expected[20] == pytest.approx(math.exp(-8.0), rel=1e-12)
    inside_re = np.abs(estimate.mean.real - expected) <= 4.0 * np.maximum(
        estimate.stderr_real, 1e-15
    )
    inside_im = np.abs(estimate.mean.imag) <= 4.0 * np.maximum(estimate.stderr_imag, 1e-15)
    assert np.mean(inside_re) >= 0.99
    assert np.mean(inside_im) >= 0.99
    assert estimate.mean[0] == 1.0 + 0.0j  # t = 0 exactly


def test_monte_carlo_coherence_deterministic():
    process = CosineSumProcess(((0.7, 1.3), (0.4, 2.9)))
    grid = np.linspace(0.0, 3.0, 16)
    a = monte_carlo_coherence(process, 0.8, grid, 500, seed=9)
    b = monte_carlo_coherence(process, 0.8, grid, 500, seed=9)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.stderr_real, b.stderr_real)


def _loop_coherence(draw, process, coupling, times, n, seed):
    """Reference: one realization at a time, summed in chunks of 1024."""
    sigmas = np.array([s for s, _ in process.components])
    freqs = np.array([w for _, w in process.components])
    m = len(sigmas)
    sin_t = np.sin(np.outer(times, freqs))
    cos_t = 1.0 - np.cos(np.outer(times, freqs))
    total_re = np.zeros_like(times)
    total_im = np.zeros_like(times)
    total_sq = np.zeros_like(times)
    for start in range(0, n, 1024):
        part_re = np.zeros_like(times)
        part_im = np.zeros_like(times)
        part_sq = np.zeros_like(times)
        for j in range(start, min(start + 1024, n)):
            draws = draw(seed, j, 2 * m)
            integral = sin_t @ (sigmas * draws[:m] / freqs) + cos_t @ (sigmas * draws[m:] / freqs)
            # exp(2iu) at u = -g integral, from T = tan u:
            # cos 2u = 2/(1 + T^2) - 1 and sin 2u = 2T/(1 + T^2)
            tan = np.tan(-coupling * integral)
            scale = 2.0 / (1.0 + tan * tan)
            cos2u = scale - 1.0
            part_re += cos2u
            part_im += tan * scale
            part_sq += (tan * scale) ** 2
        total_re += part_re
        total_im += part_im
        total_sq += part_sq
    mean = (total_re + 1j * total_im) / n
    # cos^2 = 1 - sin^2, summed
    var_re = np.maximum((n - total_sq) / n - mean.real**2, 0.0) * (n / (n - 1.0))
    var_im = np.maximum(total_sq / n - mean.imag**2, 0.0) * (n / (n - 1.0))
    return mean, np.sqrt(var_re / n), np.sqrt(var_im / n)


@pytest.mark.parametrize("block", ["row", "chunk"])
@pytest.mark.parametrize("grid", [np.array([1.3]), np.linspace(0.0, 3.0, 7)], ids=["1pt", "7pt"])
def test_monte_carlo_coherence_matches_per_realization_loop(
    philox_normals, monkeypatch, block, grid
):
    process = CosineSumProcess(((0.7, 1.3), (0.4, 2.9), (1.0, 0.5)))
    # single rows from one chunk per draw, or whole chunks from one draw
    monkeypatch.setattr(_rng, "_DRAW", 1 if block == "row" else 2**20)
    monkeypatch.setattr(_rng, "_BLOCK", 1 if block == "row" else _rng._CHUNK * grid.size)
    estimate = monte_carlo_coherence(process, 0.8, grid, 2100, seed=9)
    mean, err_re, err_im = _loop_coherence(philox_normals, process, 0.8, grid, 2100, 9)
    # bytes, not ==: the sign of a zero must match too
    assert estimate.mean.tobytes() == mean.tobytes()
    assert estimate.stderr_real.tobytes() == err_re.tobytes()
    assert estimate.stderr_imag.tobytes() == err_im.tobytes()


def test_coherence_error_bars_hold_at_small_times():
    # the imaginary part is statistically zero; at t = 1e-10 its mean is
    # ~1e-12, and n - sum cos^2 would cancel its error bar to 0
    process = CosineSumProcess(((1.0, 1.0), (0.5, 2.0)))
    grid = np.array([1e-10, 1e-8, 1e-6, 1e-2])
    estimate = monte_carlo_coherence(process, 1.0, grid, 10000, seed=3)
    assert np.all(estimate.stderr_imag > 0.0)
    assert np.all(np.abs(estimate.mean.imag) <= 5.0 * estimate.stderr_imag)


def test_coherence_rows_match_complex_exp():
    process = CosineSumProcess(((0.7, 1.3), (0.4, 2.9), (1.0, 0.5)))
    sigmas, freqs = np.array(process.components).T
    grid = np.linspace(0.0, 10.0, 41)
    sin_t = np.sin(np.outer(grid, freqs))
    cos_t = 1.0 - np.cos(np.outer(grid, freqs))
    draws = _rng.realization_normals(9, 0, 20000, 6)
    integral = np.matvec(sin_t, sigmas * draws[:, :3] / freqs) + np.matvec(
        cos_t, sigmas * draws[:, 3:] / freqs
    )
    real, imag, imag2 = dephasing._coherence_samples(draws, sigmas, freqs, sin_t, cos_t, 0.8)
    expected = np.exp(-2.0j * 0.8 * integral)
    assert np.max(np.abs(real - expected.real)) <= 1e-15
    assert np.max(np.abs(imag - expected.imag)) <= 1e-15
    assert imag2.tobytes() == (imag**2).tobytes()


def test_channel_construction():
    plus = state_from_bloch(BlochVector(1.0, 0.0, 0.0))
    assert np.allclose(dephasing_channel_at(0.0, 0.0, plus).matrix, plus.matrix, atol=1e-15)
    dark = dephasing_channel_at(200.0, 0.3, plus)
    assert abs(dark.matrix[0, 1]) <= 1e-15
    assert np.allclose(np.diag(dark.matrix), np.diag(plus.matrix), atol=1e-15)
    halved = dephasing_channel_at(math.log(2.0), 0.0, plus)
    assert halved.matrix[0, 1] == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(DomainError):
        dephasing_channel_at(-0.1, 0.0, plus)


def test_channel_equals_dressed_kraus(rng, random_state):
    for _ in range(50):
        rho = random_state()
        gamma = rng.uniform(0.0, 3.0)
        phase = rng.uniform(-6.0, 6.0)
        direct = dephasing_channel_at(gamma, phase, rho)
        kraus = dress_with_phase(
            kraus_phase_damping(1.0 - math.exp(-gamma)),
            PhaseDressing(phase, GENERATOR_SIGMA3_HALF),
        )
        assert np.max(np.abs(direct.matrix - apply_kraus(kraus, rho).matrix)) <= 1e-12


def test_decoherence_function_validation():
    t = np.linspace(0.0, 2.0, 5)
    DecoherenceFunction(t, np.array([0.0, 0.1, 0.3, 0.2, 0.4]), "closed-form")
    with pytest.raises(DomainError):
        DecoherenceFunction(t, np.array([0.5, 0.1, 0.3, 0.2, 0.4]), "closed-form")
    with pytest.raises(DomainError):
        DecoherenceFunction(t, np.array([0.0, -0.1, 0.3, 0.2, 0.4]), "closed-form")
    with pytest.raises(DomainError):
        DecoherenceFunction(t, np.zeros(5), "guesswork")
    # the Monte Carlo estimate takes the same ascending grid
    with pytest.raises(DomainError):
        monte_carlo_coherence(CosineSumProcess(((1.0, 1.0),)), 1.0, t[::-1], 10, seed=0)


def test_bath_validation():
    with pytest.raises(DomainError):
        DiscreteBosonBath((), beta=1.0)
    with pytest.raises(DomainError):
        DiscreteBosonBath(((1.0, -1.0),), beta=1.0)
    with pytest.raises(DomainError):
        DiscreteBosonBath(((1.0, 1.0),), beta=0.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: TabulatedDensity([0.0, 1.0, 2.0], [0.0, math.nan, 1.0]),
        lambda: TabulatedDensity([0.0, 1.0, math.inf], [0.0, 1.0, 1.0]),
        lambda: CosineSumProcess(((math.nan, 1.0),)),
        lambda: WhiteNoiseProcess(math.inf),
        lambda: OhmicExpDensity(math.inf, 1.0),
        lambda: DiscreteBosonBath(((1.0, math.inf),)),
    ],
    ids=["table-value", "table-frequency", "cosine", "white-noise", "ohmic", "bath-frequency"],
)
def test_non_finite_parameters_rejected(build):
    with pytest.raises(DomainError):
        build()
