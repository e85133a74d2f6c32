from fractions import Fraction

import numpy as np
import pytest

from qchan import (
    BlochVector,
    CustomEnsemble,
    DomainError,
    FixedCoupling,
    GaussianCoupling,
    LorentzianCoupling,
    PoleError,
    ResourceError,
    SpinStar,
    UniformCoupling,
    asymptotic_factor,
    bloch_factor,
    decay_rate,
    degeneracy,
    depolarization_probability,
    half_integer,
    max_depolarization,
    sector_weights,
    state_from_bloch,
)
from qchan import spin_bath
from qchan.exact import exact_spin_bath
from qchan.spin_bath import SPIN_STAR_CAP

ALL_ENSEMBLES = (
    FixedCoupling(1, 1.0),
    GaussianCoupling(1, 0.7, 0.5),
    LorentzianCoupling(1, 0.8),
    UniformCoupling(1, 0.5, 1.5),
    SpinStar(3, 1.0),
    CustomEnsemble(((0.5, 1.0, 0.25), (1.5, 0.3, 0.75),)),
)


def test_half_integer_accepts_exact_halves():
    assert half_integer(0.5) == Fraction(1, 2)
    assert half_integer(2) == Fraction(2)
    assert half_integer(Fraction(7, 2)) == Fraction(7, 2)
    with pytest.raises(DomainError):
        half_integer(0.3)
    with pytest.raises(DomainError):
        half_integer("x")


def test_degeneracy_small_cases():
    assert degeneracy(2, 1) == 1
    assert degeneracy(2, 0) == 1
    assert degeneracy(4, 2) == 1
    assert degeneracy(4, 1) == 3
    assert degeneracy(4, 0) == 2
    assert degeneracy(1, 0.5) == 1
    # dimension checksum for N = 4: 1*5 + 3*3 + 2*1 = 16
    assert sum(degeneracy(4, l) * int(2 * l + 1) for l in (2, 1, 0)) == 16


def test_degeneracy_rejects_mismatched_sector():
    with pytest.raises(DomainError):
        degeneracy(2, 0.5)
    with pytest.raises(DomainError):
        degeneracy(3, 2)
    with pytest.raises(DomainError):
        degeneracy(0, 0)


@pytest.mark.parametrize("n", range(1, 21))
def test_sector_dimension_identity(n):
    table = sector_weights(n)
    assert sum(r.count * (2 * r.spin + 1) for r in table.rows) == 2**n
    assert sum(r.weight for r in table.rows) == 1


@pytest.mark.parametrize("ensemble", ALL_ENSEMBLES)
def test_factor_starts_at_one(ensemble):
    assert bloch_factor(ensemble, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert depolarization_probability(ensemble, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_fixed_half_spin_closed_form():
    ensemble = FixedCoupling(0.5, 1.0)
    t = np.linspace(0.0, 10.0, 101)
    assert np.allclose(bloch_factor(ensemble, t), 0.5 * (1.0 + np.cos(t)), atol=1e-14)
    assert bloch_factor(ensemble, np.pi) == pytest.approx(0.0, abs=1e-15)


def test_lorentzian_long_time_floor():
    ensemble = LorentzianCoupling(1, 0.8)
    assert bloch_factor(ensemble, 1e6) == pytest.approx(11.0 / 27.0, abs=1e-12)
    assert float(asymptotic_factor(1)) == pytest.approx(11.0 / 27.0, abs=1e-15)


def test_gaussian_degenerates_to_fixed():
    narrow = GaussianCoupling(1.5, 1.2, 1e-8)
    sharp = FixedCoupling(1.5, 1.2)
    t = np.linspace(0.0, 10.0 / 1.2, 200)
    assert np.max(np.abs(bloch_factor(narrow, t) - bloch_factor(sharp, t))) <= 1e-6


def test_contraction_floor_bounds():
    for twice_l in range(1, 21):
        x = asymptotic_factor(Fraction(twice_l, 2))
        assert Fraction(1, 3) < x <= Fraction(1, 2)
    assert asymptotic_factor(0.5) == Fraction(1, 2)


def test_gaussian_saturation_probability():
    ensemble = GaussianCoupling(1, 0.0, 1.0)
    assert depolarization_probability(ensemble, 1e6) == pytest.approx(16.0 / 27.0, abs=1e-12)
    assert float(max_depolarization(1)) == pytest.approx(16.0 / 27.0, abs=1e-15)
    for twice_l in range(1, 21):
        assert max_depolarization(Fraction(twice_l, 2)) < Fraction(2, 3)


def test_smooth_ensembles_stay_below_saturation():
    # monotone approach to p_inf for the zero-mean Gaussian and Lorentzian
    # averages (a biased Gaussian can overshoot p_inf transiently)
    t = np.linspace(0.0, 50.0, 2000)
    ceiling = float(max_depolarization(1)) + 1e-12
    for ensemble in (GaussianCoupling(1, 0.0, 0.5), LorentzianCoupling(1, 0.8)):
        p = depolarization_probability(ensemble, t)
        assert np.all(p <= ceiling)
        assert np.all(np.diff(p) >= -1e-12)


def test_negative_time_rejected():
    with pytest.raises(DomainError):
        bloch_factor(FixedCoupling(1, 1.0), -0.1)


def test_gaussian_zero_mean_rate_nonnegative():
    ensemble = GaussianCoupling(1, 0.0, 1.0)
    t = np.linspace(0.0, 20.0, 2000)
    assert np.all(decay_rate(ensemble, t) >= -1e-12)


def test_lorentzian_rate_nonnegative():
    ensemble = LorentzianCoupling(1, 0.8)
    t = np.linspace(0.0, 50.0, 2000)
    rates = decay_rate(ensemble, t)
    assert np.all(rates >= -1e-12)
    # closed form: the rate interpolates between 0 and (2l+1)a/2
    assert np.max(rates) <= (2 * 1 + 1) * 0.8 / 2 + 1e-12


def test_fixed_rate_negative_each_period():
    ensemble = FixedCoupling(0.5, 1.0)  # F = (1 + cos t)/2, period 2 pi
    for cycle in range(3):
        t = np.linspace(cycle * 2 * np.pi + np.pi + 0.05, (cycle + 1) * 2 * np.pi - 0.05, 200)
        assert np.all(decay_rate(ensemble, t) < 0.0)


def test_rate_pole_at_full_depolarization():
    with pytest.raises(PoleError):
        decay_rate(FixedCoupling(0.5, 1.0), np.pi)


def test_spin_star_and_uniform_show_negative_rates():
    t = np.linspace(1e-3, 20.0, 4000)
    for size in (2, 3, 4):
        ensemble = SpinStar(size, 1.0)
        factor = bloch_factor(ensemble, t)
        ok = factor > 1e-6
        assert np.min(decay_rate(ensemble, t[ok])) < -1e-3
    uniform = UniformCoupling(1, 0.5, 1.5)
    factor = bloch_factor(uniform, t)
    ok = factor > 1e-6
    assert np.min(decay_rate(uniform, t[ok])) < -1e-3


def test_gaussian_negative_rate_needs_mean():
    t = np.linspace(1e-3, 10.0, 4000)
    biased = GaussianCoupling(1, 3.0, 1.0)  # mean = 3 sigma
    assert np.min(decay_rate(biased, t)) < -1e-3
    centered = GaussianCoupling(1, 0.0, 1.0)
    assert np.min(decay_rate(centered, t)) >= -1e-12


def test_custom_matches_manual_mixture():
    ensemble = CustomEnsemble(((0.5, 1.0, 0.25), (1.5, 0.3, 0.75),))
    t = np.linspace(0.0, 8.0, 100)
    manual = 0.25 * bloch_factor(FixedCoupling(0.5, 1.0), t) + 0.75 * bloch_factor(
        FixedCoupling(1.5, 0.3), t
    )
    assert np.allclose(bloch_factor(ensemble, t), manual, atol=1e-14)


def test_custom_weight_validation():
    with pytest.raises(DomainError):
        CustomEnsemble(((0.5, 1.0, 0.6), (1, 1.0, 0.5)))
    with pytest.raises(DomainError):
        CustomEnsemble(((0.5, 1.0, -0.2), (1, 1.0, 1.2)))
    with pytest.raises(DomainError):
        CustomEnsemble(())


def test_ensemble_parameter_validation():
    with pytest.raises(DomainError):
        FixedCoupling(0, 1.0)
    with pytest.raises(DomainError):
        GaussianCoupling(1, 0.0, 0.0)
    with pytest.raises(DomainError):
        LorentzianCoupling(1, -1.0)
    with pytest.raises(DomainError):
        UniformCoupling(1, 1.5, 0.5)
    with pytest.raises(DomainError):
        SpinStar(0, 1.0)
    nan, inf = float("nan"), float("inf")
    for build in (
        lambda: FixedCoupling(0.5, nan),
        lambda: FixedCoupling(0.5, inf),
        lambda: GaussianCoupling(0.5, 0, inf),
        lambda: GaussianCoupling(0.5, nan, 1.0),
        lambda: LorentzianCoupling(0.5, inf),
        lambda: UniformCoupling(0.5, 0, inf),
        lambda: UniformCoupling(0.5, nan, 1.0),
        lambda: SpinStar(3, nan),
        lambda: CustomEnsemble(((0.5, inf, 1.0),)),
        lambda: CustomEnsemble(((0.5, 1.0, nan), (1, 1.0, 1.0))),
    ):
        with pytest.raises(DomainError):
            build()


def test_spin_star_matches_sector_mixture():
    star = SpinStar(4, 0.9)
    t = np.linspace(0.0, 12.0, 50)
    table = sector_weights(4)
    manual = np.zeros_like(t)
    for row in table.rows:
        if row.spin == 0:
            manual += float(row.weight) * np.ones_like(t)
        else:
            manual += float(row.weight) * bloch_factor(FixedCoupling(row.spin, 0.9), t)
    assert np.allclose(bloch_factor(star, t), manual, atol=1e-14)


def test_oracle_equivalence_and_isotropy(rng):
    state = state_from_bloch(BlochVector(0.32, -0.41, 0.52))
    s_in = state.bloch().as_array()
    for twice_l in (1, 2, 3, 4, 6, 8):
        spin = Fraction(twice_l, 2)
        g = rng.uniform(0.3, 2.0)
        for t in rng.uniform(0.0, 12.0, 8):
            evolved = exact_spin_bath(spin, g, state, t)
            s_out = evolved.bloch().as_array()
            factor = bloch_factor(FixedCoupling(spin, g), float(t))
            assert np.max(np.abs(s_out - factor * s_in)) <= 1e-10


def test_spin_star_cap_fails_before_table_work(monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("sector table built above the cap")

    monkeypatch.setattr(spin_bath, "degeneracy", no_table)
    with pytest.raises(ResourceError):
        SpinStar(SPIN_STAR_CAP + 1, 1.0)
    with pytest.raises(ResourceError):
        sector_weights(SPIN_STAR_CAP + 1)


def test_spin_star_factor_and_rate_share_one_table(monkeypatch):
    calls = []
    original = spin_bath.degeneracy

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(spin_bath, "degeneracy", counted)
    spin_bath._sector_table.cache_clear()
    star = SpinStar(7, 1.0)
    t = np.linspace(0.0, 1.0, 11)
    bloch_factor(star, t)
    decay_rate(star, t)
    assert len(calls) == 4  # l = 7/2, 5/2, 3/2, 1/2, built once
    assert sector_weights(7) is sector_weights(7)


# ------------------------------------------------- tangent envelopes vs libm

EPS = np.finfo(float).eps


def _libm_sharp(g):
    def envelope(m, t):
        theta = m * g / 2.0 * t
        return np.cos(theta), -(m * g / 2.0) * np.sin(theta), m * abs(g) / 2.0

    return envelope


def _libm_gaussian(mean, sigma):
    def envelope(m, t):
        decay = np.exp(-((m * sigma) ** 2) * t**2 / 8.0)
        phase = m * mean / 2.0
        drift = (m * sigma) ** 2 * t / 4.0
        slope = -decay * (drift * np.cos(phase * t) + phase * np.sin(phase * t))
        return decay * np.cos(phase * t), slope, decay * (drift + abs(phase))

    return envelope


def _libm_uniform(low, high):
    def envelope(m, t):
        kappa, mid, half = m / 2.0, (low + high) / 2.0, (high - low) / 2.0
        u, v = kappa * mid * t, kappa * half * t
        sinc = np.sinc(v / np.pi)
        # d sinc / dv: its series below |v| = 1e-4; above, (cos v - sinc v) / v
        # cancels, and its rounding grows as 2 eps / |v|
        series = np.abs(v) < 1e-4
        vs = np.where(series, 1.0, v)
        dsinc = np.where(series, -v / 3.0 + v**3 / 30.0, (np.cos(vs) - np.sinc(vs / np.pi)) / vs)
        slope = kappa * (-mid * np.sin(u) * sinc + half * np.cos(u) * dsinc)
        return np.cos(u) * sinc, slope, kappa * (abs(mid) + half * np.where(series, 1.0, 2.0 / vs))

    return envelope


TANGENT_CASES = {
    "fixed": (FixedCoupling(2.5, 1.3), [(Fraction(5, 2), 1.0, _libm_sharp(1.3))]),
    "spin-star": (SpinStar(40, 1.0), [(row.spin, float(row.weight), _libm_sharp(1.0))
                                      for row in sector_weights(40).rows]),
    "custom": (CustomEnsemble(((0.5, 1.0, 0.25), (1.5, -0.3, 0.5), (4, 2.2, 0.25))),
               [(Fraction(1, 2), 0.25, _libm_sharp(1.0)), (Fraction(3, 2), 0.5, _libm_sharp(-0.3)),
                (Fraction(4), 0.25, _libm_sharp(2.2))]),
    "gaussian": (GaussianCoupling(1.5, 0.7, 0.05), [(Fraction(3, 2), 1.0, _libm_gaussian(0.7, 0.05))]),
    "uniform": (UniformCoupling(1, 0.5, 1.5), [(Fraction(1), 1.0, _libm_uniform(0.5, 1.5))]),
}


def _libm_factor(sectors, t):
    """F, F' and the scale of F' (its terms with each sine and cosine at 1)
    by the mixture rule, from np.cos, np.sin and np.sinc."""
    f, df, scale = np.zeros((3, t.size))
    for l, q, envelope in sectors:
        a, b, d = (float(x) for x in (4 * l * l + 4 * l + 3, 8 * l * (l + 1), 3 * (2 * l + 1) ** 2))
        phi, dphi, size = envelope(float(2 * l + 1), t)
        f += q * (a + b * phi) / d
        df += q * b * dphi / d
        scale += q * b * size / d
    return f, df, scale


@pytest.mark.parametrize("case", TANGENT_CASES)
def test_tangent_envelopes_match_libm(case):
    ensemble, sectors = TANGENT_CASES[case]
    # times down into the series window of the uniform law's sinc (|v| < 1e-4
    # at t < 1.3e-4), and a grid up to 1e3
    t = np.concatenate([[0.0], np.geomspace(1e-9, 1e-2, 71), np.linspace(0.0, 1e3, 20001)])
    f, df = spin_bath._factor_and_slope(ensemble, t)
    ref, ref_slope, scale = _libm_factor(sectors, t)
    assert np.max(np.abs(f - ref)) <= 8 * EPS
    assert np.all(np.abs(df - ref_slope) <= 8 * EPS * scale)
    assert f[0] == 1.0 and bloch_factor(ensemble, 0.0) == 1.0
    # 0-d times, through the public functions
    for i in (1, 40, 5000, -1):
        value = bloch_factor(ensemble, float(t[i]))
        assert isinstance(value, float) and abs(value - ref[i]) <= 8 * EPS
        if ref[i] > 1e-3:
            rate = decay_rate(ensemble, float(t[i]))
            assert isinstance(rate, float)
            assert abs(rate * ref[i] + ref_slope[i]) <= 8 * EPS * scale[i] + 16 * EPS * abs(ref_slope[i])
