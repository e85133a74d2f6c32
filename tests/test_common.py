import math

import numpy as np
import pytest

import qchan
from qchan import AmplitudeKernelSpec, DomainError, ResourceError
from qchan import _common
from qchan._common import (NS_PER_UNIT, WORK_BUDGET_S, check_square, check_work, double_angle,
                           finite, line_sums, positive)
from qchan.damping import _solve_with_slope

EPS = np.finfo(float).eps


def _assert_within_ulps(got, expected, ulps):
    assert np.all(np.abs(got - expected) <= ulps * EPS * np.abs(expected))


def test_double_angle_matches_sines():
    rng = np.random.default_rng(3)
    uniform = rng.uniform(0.0, 1e5, 200_000)
    # the doubles nearest (k + 1/2) pi, where T = tan x is largest
    middles = (np.arange(31_831) + 0.5) * math.pi
    poles = np.concatenate([middles, np.nextafter(middles, 0.0), np.nextafter(middles, np.inf)])
    for x in (uniform, poles):
        sin2x, vers = double_angle(x)
        # relative: both stay accurate near the zeros of sin 2x and sin x
        _assert_within_ulps(sin2x, np.sin(2.0 * x), 4)
        _assert_within_ulps(vers, 2.0 * np.sin(x) ** 2, 4)
    assert np.max(np.abs(double_angle(poles)[1] - 2.0)) <= 4 * EPS


def test_double_angle_at_zero_and_in_place():
    sin2x, vers = double_angle(np.zeros(3))
    assert sin2x.tobytes() == np.zeros(3).tobytes()
    assert vers.tobytes() == np.zeros(3).tobytes()
    x = np.linspace(0.0, 7.0, 11)
    expected = double_angle(x)
    buffer, out = x.copy(), np.empty_like(x)
    sin2x, vers = double_angle(buffer, sin2x=out, vers=buffer)
    assert sin2x is out and vers is buffer
    assert sin2x.tobytes() == expected[0].tobytes()
    assert vers.tobytes() == expected[1].tobytes()


def test_check_square_names_the_scale():
    check_square("sigma", 1e154)
    check_square("sigma", -1e154)
    for value in (1e155, -1e200, math.inf):
        with pytest.raises(DomainError, match="^sigma = "):
            check_square("sigma", value)


def test_finite_and_positive_return_the_float():
    assert finite("x", -2) == -2.0 and type(finite("x", np.float32(0.5))) is float
    assert positive("x", "1e-300") == 1e-300  # float() takes numeric strings
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match=f"^x must be finite, got {value}$"):
            finite("x", value)
    for value in (math.nan, math.inf, 0.0, -0.0, -1):
        with pytest.raises(DomainError, match=f"^x must be finite and > 0, got {float(value)}$"):
            positive("x", value)


# each site that checks a scalar through finite or positive, with one bad value
_CHECKED_SITES = [
    (lambda: qchan.FixedCoupling(0.5, math.nan), "coupling must be finite, got nan"),
    (lambda: qchan.GaussianCoupling(0.5, math.inf, 1.0), "mean must be finite, got inf"),
    (lambda: qchan.GaussianCoupling(0.5, 0.0, 0.0), "sigma must be finite and > 0, got 0.0"),
    (lambda: qchan.LorentzianCoupling(0.5, -1), "half_width must be finite and > 0, got -1.0"),
    (lambda: qchan.UniformCoupling(0.5, -math.inf, 1.0), "low must be finite, got -inf"),
    (lambda: qchan.UniformCoupling(0.5, 0.0, math.nan), "high must be finite, got nan"),
    (lambda: qchan.SpinStar(3, math.inf), "coupling must be finite, got inf"),
    (lambda: qchan.CustomEnsemble(((0.5, math.nan, 1.0),)), "coupling must be finite, got nan"),
    (lambda: qchan.IsotropicGaussianNoise(0.0, 1.0), "coupling must be finite and > 0, got 0.0"),
    (lambda: qchan.IsotropicGaussianNoise(1.0, math.inf), "sigma must be finite and > 0, got inf"),
    (lambda: qchan.NoiseSample(0.0, math.nan, 0.0), "xi2 must be finite, got nan"),
    (lambda: qchan.DiscreteBosonBath(((1.0, 2.0), (1.0, -1.0))),
     "mode frequency must be finite and > 0, got -1.0"),
    (lambda: qchan.OhmicExpDensity(1.0, 0.0), "cutoff_time must be finite and > 0, got 0.0"),
    (lambda: qchan.CosineSumProcess(((math.nan, 1.0),)),
     "component amplitude must be finite and > 0, got nan"),
    (lambda: qchan.CosineSumProcess(((1.0, 1.0), (1.0, math.inf))),
     "component frequency must be finite and > 0, got inf"),
    (lambda: qchan.WhiteNoiseProcess(-2.0), "intensity must be finite and > 0, got -2.0"),
    (lambda: qchan.dephasing_channel_at(0.0, math.inf, qchan.QubitState(np.diag([1.0, 0.0]))),
     "phase must be finite, got inf"),
    (lambda: AmplitudeKernelSpec(math.nan, ((1.0, 1.0),)), "qubit frequency must be finite, got nan"),
    (lambda: qchan.solve_amplitude(AmplitudeKernelSpec(1.0, ((1.0, 1.0),)), math.inf, 10),
     "t_max must be finite and > 0, got inf"),
    (lambda: qchan.kraus_depolarizing(math.nan), "probability must be finite, got nan"),
    (lambda: qchan.PhaseDressing(-math.inf, "sigma3-half"),
     "accumulated phase must be finite, got -inf"),
]


@pytest.mark.parametrize("make, message", _CHECKED_SITES, ids=[m for _, m in _CHECKED_SITES])
def test_checked_sites_name_the_value(make, message):
    with pytest.raises(DomainError) as info:
        make()
    assert str(info.value) == message


def _random_table(rng, rows=()):
    lines = int(rng.integers(1, 51))
    freqs = rng.uniform(-1e3, 1e3, lines) * 10.0 ** rng.integers(-2, 1, lines)
    return freqs, rng.normal(size=rows + (lines,)), rng.normal(size=rows + (lines,))


@pytest.mark.parametrize("seed", range(40))
def test_line_sums_match_sines_and_cosines(seed):
    rng = np.random.default_rng(seed)
    freqs, a, b = _random_table(rng)
    # w t up to 1e5
    times = rng.uniform(0.0, 1e5 / np.max(np.abs(freqs)), 500)
    vers, sin = line_sums(freqs, [a, b], times)
    phases = np.multiply.outer(times, freqs)
    for got, weights, trig in ((vers, a, 1.0 - np.cos(phases)), (sin, b, np.sin(phases))):
        expected = np.array([math.fsum(row) for row in trig * weights])
        # |terms| <= 2 |w|: a few ulps a term plus the rounding of the sum
        bound = 2 * (freqs.size + 5) * EPS * np.sum(np.abs(weights))
        assert np.all(np.abs(got - expected) <= bound)


@pytest.mark.parametrize("seed", range(20))
def test_line_sums_keep_relative_accuracy_at_small_times(seed):
    rng = np.random.default_rng(seed)
    freqs, _, _ = _random_table(rng)
    weights = rng.uniform(0.0, 1.0, freqs.size)
    times = 10.0 ** rng.uniform(-12.0, -6.0, 200)
    vers, _ = line_sums(freqs, [weights, weights], times)
    # vers x = x^2/2 - x^4/24 + ..., and |w t| <= 1e-3 here
    x2 = np.multiply.outer(times, freqs) ** 2
    series = np.sum(weights * x2 / 2.0 * (1.0 - x2 / 12.0), axis=1)
    assert np.all(np.abs(vers - series) <= 1e-14 * series)


def test_line_sums_are_zero_at_zero_and_take_any_shapes():
    rng = np.random.default_rng(5)
    freqs, a, b = _random_table(rng, rows=(2,))
    for zero in (0.0, np.zeros(3)):
        sums = line_sums(freqs, [a, b], zero)
        assert sums.tobytes() == np.zeros((2, 2, *np.shape(zero))).tobytes()
    # the weights' middle axes come before the times', which keep their
    # shape, and each row is the sum of that row alone
    times = rng.uniform(0.0, 10.0, (3, 4))
    sums = line_sums(freqs, [a, b], times)
    assert sums.shape == (2, 2, 3, 4)
    for row in range(2):
        alone = line_sums(freqs, [a[row], b[row]], times)
        assert sums[:, row].tobytes() == alone.tobytes()
    assert line_sums(freqs, [a[0], b[0]], 2.5).shape == (2,)


@pytest.mark.parametrize("seed", range(10))
def test_amplitude_starts_at_one_exactly(seed):
    rng = np.random.default_rng(seed)
    lines = int(rng.integers(1, 51))
    spec = AmplitudeKernelSpec(
        rng.uniform(-2.0, 2.0), tuple(zip(rng.normal(size=lines), rng.uniform(-3.0, 3.0, lines)))
    )
    u, gamma, _, _, slope = _solve_with_slope(spec, np.array([0.0, 1.0]))
    assert u[0] == 1.0 and gamma[0] == 0.0 and slope[0] == 0.0


class Summed(Exception):
    pass


def no_sum(*args, **kwargs):
    raise Summed


def test_line_work_cap(monkeypatch):
    # every kernel's work at the budget proceeds, and one unit more is refused
    for kernel, ns in NS_PER_UNIT.items():
        at_budget = WORK_BUDGET_S * 10**9 // ns
        check_work(**{kernel: at_budget})
        with pytest.raises(ResourceError, match=rf"^work units {kernel}=.* above the budget of "):
            check_work(**{kernel: at_budget + 1})
    # the kernels of one check share the budget
    check_work(line=500_000, line_term=1_000_000_000)
    with pytest.raises(ResourceError, match="line=500,000, line_term=1,000,000,001 would take"):
        check_work(line=500_000, line_term=1_000_000_001)
    # a term is one (line, time, weight row), and a line costs as much as 2000
    # terms: 500,000 lines of two rows at 1000 times are at the budget, and
    # line_sums checks before its first sum
    monkeypatch.setattr(_common, "double_angle", no_sum)
    times = np.linspace(0.0, 1.0, 1000)
    with pytest.raises(Summed):
        line_sums(np.ones(500_000), np.ones((2, 500_000)), times)
    with pytest.raises(ResourceError, match="above the budget"):
        line_sums(np.ones(500_001), np.ones((2, 500_001)), times)
