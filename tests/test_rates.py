import math

import numpy as np
import pytest

from qchan import (
    CosineSumProcess,
    CustomEnsemble,
    DomainError,
    FixedCoupling,
    GaussianCoupling,
    LorentzianCoupling,
    MarkovClass,
    MarkovKind,
    RateSeries,
    SpinStar,
    TimeSeries,
    UnclassifiableError,
    UniformCoupling,
    WhiteNoiseProcess,
    bloch_factor,
    classify,
    decay_rate,
    gamma_classical,
    rate_from_series,
)
from qchan.rates import (
    MEANING_BLOCH_FACTOR,
    MEANING_DAMPING_GAMMA,
    MEANING_DEPHASING_GAMMA,
    MEANING_PROBABILITY,
)


def make_series(t_max, n, fn, meaning):
    t = np.linspace(0.0, t_max, n)
    return TimeSeries(t, fn(t), meaning)


def test_exponential_calibration():
    series = make_series(2.0, 2001, lambda t: np.exp(-2.0 * t), MEANING_BLOCH_FACTOR)
    rs = rate_from_series(series)
    assert np.max(np.abs(rs.values - 2.0)) <= 1e-6
    verdict = classify(rs)
    assert verdict.kind is MarkovKind.CONSTANT_RATE
    assert verdict.rate == pytest.approx(2.0, rel=1e-8)


def test_probability_series_constant_rate():
    gamma0 = 0.7
    series = make_series(3.0, 3001, lambda t: 1.0 - np.exp(-gamma0 * t), MEANING_PROBABILITY)
    verdict = classify(rate_from_series(series))
    assert verdict.kind is MarkovKind.CONSTANT_RATE
    assert verdict.rate == pytest.approx(gamma0, rel=1e-8)


def test_fourth_order_convergence():
    errors = []
    for n in (51, 101, 201):
        series = make_series(1.0, n, lambda t: np.exp(-2.0 * t), MEANING_BLOCH_FACTOR)
        rs = rate_from_series(series)
        errors.append(np.max(np.abs(rs.values - 2.0)))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for order in orders:
        assert order == pytest.approx(4.0, abs=0.5)


@pytest.mark.parametrize(
    "ensemble, t_max, steps",
    [
        (FixedCoupling(1, 1.0), 1.5, 1501),  # F > 0.03 on each window
        (GaussianCoupling(1.5, 0.8, 0.6), 6.0, 1501),  # F > 0.28
        (LorentzianCoupling(1, 0.8), 10.0, 1501),  # F > 0.4
        (UniformCoupling(1, 0.5, 1.5), 1.4, 1401),  # F > 0.1
        (UniformCoupling(1, 0.5, 6.5), 2e-5, 201),  # all in the sinc' series branch
        (SpinStar(6, 1.0), 1.0, 1001),  # F > 0.17
        (CustomEnsemble(((0.5, 1.0, 0.3), (1, 0.7, 0.7))), 1.5, 1501),  # F > 0.44
    ],
    ids=["fixed", "gaussian", "lorentzian", "uniform", "uniform-near-0", "spin-star", "custom"],
)
def test_finite_difference_matches_analytic_rate(ensemble, t_max, steps):
    t = np.linspace(0.0, t_max, steps)
    series = TimeSeries(t, bloch_factor(ensemble, t), MEANING_BLOCH_FACTOR)
    rs = rate_from_series(series)
    analytic = decay_rate(ensemble, t)
    assert np.max(np.abs(rs.values - analytic)) <= 1e-5


def test_error_estimate_covers_actual_error():
    series = make_series(2.0, 201, lambda t: np.exp(-2.0 * t), MEANING_BLOCH_FACTOR)
    rs = rate_from_series(series)
    actual = np.abs(rs.values - 2.0)
    assert np.all(actual <= rs.error + 1e-12)


def test_gamma_tagged_series_differentiates():
    series = make_series(5.0, 501, lambda t: 0.5 * t**2, MEANING_DAMPING_GAMMA)
    rs = rate_from_series(series)
    assert np.max(np.abs(rs.values - series.times)) <= 1e-9
    assert not np.any(rs.flagged)


def test_pole_points_get_flagged_not_dropped():
    ensemble = FixedCoupling(1, 1.0)  # F dips below zero within a period
    t = np.linspace(0.0, 4.0, 801)
    series = TimeSeries(t, bloch_factor(ensemble, t), MEANING_BLOCH_FACTOR)
    rs = rate_from_series(series)
    assert np.any(rs.flagged)
    assert rs.values.size == t.size
    assert np.all(np.isnan(rs.values[rs.flagged]))


def test_lorentzian_is_time_dependent_markovian():
    ensemble = LorentzianCoupling(1, 0.8)
    t = np.linspace(0.0, 20.0, 2001)
    series = TimeSeries(t, bloch_factor(ensemble, t), MEANING_BLOCH_FACTOR)
    verdict = classify(rate_from_series(series))
    assert verdict.kind is MarkovKind.TIME_DEPENDENT_MARKOVIAN
    assert verdict.negative_intervals == ()


def test_gaussian_zero_mean_is_time_dependent_markovian():
    ensemble = GaussianCoupling(1, 0.0, 1.0)
    t = np.linspace(0.0, 6.0, 1201)
    series = TimeSeries(t, bloch_factor(ensemble, t), MEANING_BLOCH_FACTOR)
    verdict = classify(rate_from_series(series))
    assert verdict.kind is MarkovKind.TIME_DEPENDENT_MARKOVIAN


def test_thresholds_must_be_finite_and_nonnegative():
    # gamma = tan(t/2) < 0 on (pi, 2 pi): each bad threshold would give a
    # wrong verdict (or a wrong interval) without a word
    t = np.linspace(0.0, 10.0, 2001)
    rates = rate_from_series(TimeSeries(t, bloch_factor(FixedCoupling(0.5, 1.0), t),
                                        MEANING_BLOCH_FACTOR))
    for name, value in [("eps_abs", math.nan), ("eps_abs", -1.0), ("eps_abs", math.inf),
                        ("eps_rel", math.nan), ("eps_rel", -1.0), ("eps_rel", math.inf)]:
        with pytest.raises(DomainError, match=f"^{name} must be finite and >= 0, got {value}$"):
            classify(rates, **{name: value})
    verdict = classify(rates, eps_abs=0.0, eps_rel=0.0)
    assert verdict.kind is MarkovKind.NON_MARKOVIAN
    assert verdict.negative_intervals[0][0] == pytest.approx(math.pi, abs=0.05)


def test_fixed_coupling_is_non_markovian():
    ensemble = FixedCoupling(0.5, 1.0)
    t = np.linspace(0.0, 12.0, 2401)
    series = TimeSeries(t, bloch_factor(ensemble, t), MEANING_BLOCH_FACTOR)
    verdict = classify(rate_from_series(series))
    assert verdict.kind is MarkovKind.NON_MARKOVIAN
    assert len(verdict.negative_intervals) >= 1
    lo, hi = verdict.negative_intervals[0]
    assert lo == pytest.approx(math.pi, abs=0.05)


def test_single_oscillator_dephasing_three_intervals():
    # Gamma = 1 - cos(omega t): gamma < 0 on the second half of each period
    omega = 0.8
    periods = 3
    t = np.linspace(0.0, periods * 2.0 * math.pi / omega, 1801)
    series = TimeSeries(t, 1.0 - np.cos(omega * t), MEANING_DEPHASING_GAMMA)
    verdict = classify(rate_from_series(series))
    assert verdict.kind is MarkovKind.NON_MARKOVIAN
    assert len(verdict.negative_intervals) >= 3
    lo, hi = verdict.negative_intervals[0]
    assert lo == pytest.approx(math.pi / omega, abs=0.05)
    assert hi == pytest.approx(2.0 * math.pi / omega, abs=0.05)


def test_white_noise_dephasing_constant_rate():
    process = WhiteNoiseProcess(1.3)
    t = np.linspace(0.0, 5.0, 501)
    series = TimeSeries(t, gamma_classical(process, 1.0, t), MEANING_DEPHASING_GAMMA)
    verdict = classify(rate_from_series(series))
    assert verdict.kind is MarkovKind.CONSTANT_RATE
    assert verdict.rate == pytest.approx(2.0 * 1.3, rel=1e-10)


def test_cosine_dephasing_non_markovian():
    process = CosineSumProcess(((1.0, 1.0),))
    t = np.linspace(0.0, 6.0 * math.pi, 1501)
    series = TimeSeries(t, gamma_classical(process, 1.0, t), MEANING_DEPHASING_GAMMA)
    verdict = classify(rate_from_series(series))
    assert verdict.kind is MarkovKind.NON_MARKOVIAN
    assert len(verdict.negative_intervals) >= 3


def test_classification_stable_under_refinement():
    cases = [
        (lambda t: bloch_factor(LorentzianCoupling(1, 0.8), t), MEANING_BLOCH_FACTOR,
         MarkovKind.TIME_DEPENDENT_MARKOVIAN),
        (lambda t: bloch_factor(FixedCoupling(0.5, 1.0), t), MEANING_BLOCH_FACTOR,
         MarkovKind.NON_MARKOVIAN),
        (lambda t: 1.0 - np.exp(-0.5 * t), MEANING_PROBABILITY, MarkovKind.CONSTANT_RATE),
    ]
    for fn, meaning, expected in cases:
        for n in (801, 1601):
            series = make_series(12.0, n, fn, meaning)
            assert classify(rate_from_series(series)).kind is expected


def test_all_flagged_is_unclassifiable():
    t = np.linspace(0.0, 1.0, 11)
    rs = RateSeries(t, np.full(11, np.nan), np.full(11, np.nan), np.ones(11, dtype=bool))
    with pytest.raises(UnclassifiableError):
        classify(rs)


def test_interval_merging_of_short_gaps():
    t = np.linspace(0.0, 1.0, 101)
    values = -np.ones(101)
    values[50] = 1.0  # one-point gap, shorter than 2h
    rs = RateSeries(t, values, np.full(101, 1e-12), np.zeros(101, dtype=bool))
    verdict = classify(rs)
    assert verdict.kind is MarkovKind.NON_MARKOVIAN
    assert len(verdict.negative_intervals) == 1


def test_series_validation():
    with pytest.raises(DomainError):
        TimeSeries(np.array([0.0, 1.0, 2.0, 3.5, 4.0]), np.zeros(5), MEANING_BLOCH_FACTOR)
    with pytest.raises(DomainError):
        TimeSeries(np.array([0.0, 1e-10, 5e-9, 6e-9, 9e-9]), np.zeros(5), MEANING_BLOCH_FACTOR)
    with pytest.raises(DomainError):
        TimeSeries(np.linspace(0, 1, 4), np.zeros(4), MEANING_BLOCH_FACTOR)
    with pytest.raises(DomainError):
        TimeSeries(np.linspace(0, 1, 5), np.zeros(5), "mystery")
    with pytest.raises(DomainError):
        TimeSeries(np.linspace(0, 1, 5), np.array([0, 1, np.inf, 3, 4.0]), MEANING_PROBABILITY)


def test_markov_class_consistency_enforced():
    with pytest.raises(DomainError):
        MarkovClass(MarkovKind.NON_MARKOVIAN)
    with pytest.raises(DomainError):
        MarkovClass(MarkovKind.TIME_DEPENDENT_MARKOVIAN, negative_intervals=((0.0, 1.0),))
    with pytest.raises(DomainError):
        MarkovClass(MarkovKind.CONSTANT_RATE)
    MarkovClass(MarkovKind.CONSTANT_RATE, rate=2.0)
