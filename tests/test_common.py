import math

import numpy as np
import pytest

from qchan import DomainError
from qchan._common import check_square, double_angle

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
