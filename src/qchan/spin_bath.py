"""Depolarizing channel from a central spin coupled to effective bath spins.

A spin-1/2 coupled to an effective spin ``l`` (bath initially maximally
mixed) contracts its Bloch vector isotropically by

    F(t) = [4l^2 + 4l + 3 + 8l(l+1) cos((2l+1) g t / 2)] / [3 (2l+1)^2],

so the evolution is a depolarizing channel with p(t) = 1 - F(t).  Every
ensemble is a mixture of sectors k with spin l_k, weight q_k and a coupling
law for g, and obeys one rule:

    F(t) = sum_k q_k [a(l_k) + b(l_k) phi_k(t)] / d(l_k),
    a = 4l^2 + 4l + 3,  b = 8l(l+1),  d = 3 (2l+1)^2,

where phi_k(t) = E_g[cos((2l_k+1) g t / 2)] is the characteristic function
of the sector's coupling law, and a + b = d.  Gaussian, Lorentzian and
uniform laws give their closed-form averages.  A sharp coupling g_k (fixed,
spin-star and custom sectors) gives the cosine itself, so those sectors are
lines of frequency w_k = (2l_k+1) g_k / 2 and weight c_k = q_k b(l_k) / d(l_k):

    F(t) = sum_k q_k - sum_k c_k (1 - cos w_k t),

summed by :func:`qchan._common.line_sums` under its work budget.  Decay
rates gamma(t) = -F'(t)/F(t) come from the analytic derivative
F'(t) = sum_k q_k b(l_k) phi_k'(t) / d(l_k), for lines -sum_k c_k w_k sin w_k t.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import Union

import numpy as np

from ._common import (check_square, check_times, double_angle, finite, line_sums, positive, rate_view,
                      scalar_or_array)
from .errors import DomainError, ResourceError

_WEIGHT_TOL = 1e-12
# The exact big-integer sector table grows ~N^2.1: about 0.12 s at the cap
# (0.03 s at N = 2000) on a 2-core x86-64 VM.
SPIN_STAR_CAP = 4000


def half_integer(value) -> Fraction:
    """Validate and normalize a spin quantum number to an exact Fraction.

    Accepts ints, Fractions and floats that are exact multiples of 1/2
    (0.5, 1.0, 1.5, ... are all binary-exact).
    """
    try:
        f = Fraction(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"spin {value!r} is not a number") from exc
    if f.denominator not in (1, 2):
        raise DomainError(f"spin {value} is not a half-integer")
    return f


def _positive_spin(value) -> Fraction:
    spin = half_integer(value)
    if spin < Fraction(1, 2):
        raise DomainError(f"spin must be >= 1/2, got {spin}")
    return spin


def _cos_sin(theta: np.ndarray):
    """(cos theta, sin theta) from one tangent of theta / 2."""
    sin, vers = double_angle(0.5 * theta)
    return np.subtract(1.0, vers, out=vers), sin


# An ensemble is either sharp, with ``_couplings()`` giving its sectors as
# (spin l, coupling g, weight q), or one bath spin ``spin`` whose coupling
# follows a law, with ``_envelope(m, t)`` giving the law's
# phi = E_g[cos(m g t / 2)] and phi' for m = 2l + 1.


@dataclass(frozen=True)
class FixedCoupling:
    """Single bath spin with a sharp coupling constant."""

    spin: object
    coupling: float

    def __post_init__(self):
        object.__setattr__(self, "spin", _positive_spin(self.spin))
        object.__setattr__(self, "coupling", finite("coupling", self.coupling))

    def _couplings(self):
        return ((self.spin, self.coupling, 1.0),)


@dataclass(frozen=True)
class GaussianCoupling:
    """Coupling constant normally distributed with the given mean and sigma."""

    spin: object
    mean: float
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "spin", _positive_spin(self.spin))
        object.__setattr__(self, "mean", finite("mean", self.mean))
        object.__setattr__(self, "sigma", positive("sigma", self.sigma))
        check_square("sigma", self.sigma)

    def _envelope(self, m, t):
        decay = np.exp(-(m**2) * self.sigma**2 * t**2 / 8.0)
        phase = m * self.mean / 2.0
        cos, sin = _cos_sin(phase * t)
        return decay * cos, decay * (-(m**2) * self.sigma**2 * t / 4.0 * cos - phase * sin)


@dataclass(frozen=True)
class LorentzianCoupling:
    """Coupling constant Lorentzian-distributed around zero."""

    spin: object
    half_width: float

    def __post_init__(self):
        object.__setattr__(self, "spin", _positive_spin(self.spin))
        object.__setattr__(self, "half_width", positive("half_width", self.half_width))

    def _envelope(self, m, t):
        rate = m * self.half_width / 2.0
        env = np.exp(-rate * t)
        return env, -rate * env


@dataclass(frozen=True)
class UniformCoupling:
    """Coupling constant uniform on [low, high]."""

    spin: object
    low: float
    high: float

    def __post_init__(self):
        object.__setattr__(self, "spin", _positive_spin(self.spin))
        object.__setattr__(self, "low", finite("low", self.low))
        object.__setattr__(self, "high", finite("high", self.high))
        if not self.low < self.high:
            raise DomainError(f"need low < high, got [{self.low}, {self.high}]")

    def _envelope(self, m, t):
        # average of cos(kappa g t) over g in [low, high]:
        #   cos(kappa mid t) * sinc(kappa halfspan t)
        kappa = m / 2.0
        mid = 0.5 * (self.low + self.high)
        halfspan = 0.5 * (self.high - self.low)
        cos, sin = _cos_sin(kappa * mid * t)
        sinc, dsinc = _sinc(kappa * halfspan * t)
        return cos * sinc, -kappa * mid * sin * sinc + kappa * halfspan * cos * dsinc


@dataclass(frozen=True)
class SpinStar:
    """N bath spin-1/2's with identical couplings, decomposed into sectors."""

    size: int
    coupling: float

    def __post_init__(self):
        object.__setattr__(self, "size", _star_size(self.size))
        object.__setattr__(self, "coupling", finite("coupling", self.coupling))

    def _couplings(self):
        return tuple((row.spin, self.coupling, row.weight) for row in sector_weights(self.size).rows)


@dataclass(frozen=True)
class CustomEnsemble:
    """Finite weighted mixture of (spin, coupling) sectors.

    ``components`` is a sequence of (spin, coupling, weight) triples with
    positive weights summing to one.
    """

    components: tuple

    def __post_init__(self):
        comps = tuple(
            (_positive_spin(l), finite("coupling", g), float(q)) for (l, g, q) in self.components
        )
        if not comps:
            raise DomainError("custom ensemble needs at least one component")
        if any(not q > 0 for (_, _, q) in comps):
            raise DomainError("custom ensemble weights must be positive")
        total = sum(q for (_, _, q) in comps)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise DomainError(f"custom ensemble weights sum to {total}, expected 1")
        object.__setattr__(self, "components", comps)

    def _couplings(self):
        return self.components


CouplingEnsemble = Union[
    FixedCoupling,
    GaussianCoupling,
    LorentzianCoupling,
    UniformCoupling,
    SpinStar,
    CustomEnsemble,
]


def degeneracy(n_spins: int, spin) -> int:
    """Number of angular-momentum-``spin`` sectors of n spin-1/2's.

    nu(N, l) = C(N, N/2 - l) - C(N, N/2 - l - 1), exact integer arithmetic.
    """
    if not (isinstance(n_spins, (int, np.integer)) and n_spins >= 1):
        raise DomainError(f"n_spins must be a positive integer, got {n_spins}")
    l = half_integer(spin)
    if l < 0:
        raise DomainError(f"spin must be >= 0, got {l}")
    k = Fraction(n_spins, 2) - l
    if k.denominator != 1 or k < 0:
        raise DomainError(f"spin {l} does not occur for {n_spins} spins")
    # C(N, k) - C(N, k - 1) = C(N, k) (N - 2k + 1) / (N - k + 1): one comb
    k = int(k)
    return comb(n_spins, k) * (n_spins - 2 * k + 1) // (n_spins - k + 1)


@dataclass(frozen=True)
class SectorWeight:
    spin: Fraction
    count: int
    weight: Fraction


@dataclass(frozen=True)
class SectorWeightTable:
    """Angular-momentum sectors of N spin-1/2's with their mixing weights."""

    n_spins: int
    rows: tuple

    def __post_init__(self):
        total_dim = sum(r.count * (int(2 * r.spin) + 1) for r in self.rows)
        if total_dim != 2**self.n_spins:
            raise DomainError(
                f"sector dimensions sum to {total_dim}, expected 2^{self.n_spins}"
            )
        # exact integers over the weights' common denominator
        common = lcm(*(r.weight.denominator for r in self.rows))
        if sum(r.weight.numerator * (common // r.weight.denominator) for r in self.rows) != common:
            raise DomainError("sector weights must sum to exactly 1")


def _star_size(n_spins) -> int:
    if not (isinstance(n_spins, (int, np.integer)) and n_spins >= 1):
        raise DomainError(f"spin-star size must be a positive integer, got {n_spins}")
    if n_spins > SPIN_STAR_CAP:
        raise ResourceError(f"spin-star size {n_spins} above the cap of {SPIN_STAR_CAP}")
    return int(n_spins)


def sector_weights(n_spins: int) -> SectorWeightTable:
    """Sector table for a spin star of ``n_spins`` environmental spins.

    The table is immutable and cached, so the factor and the rate of one
    spin star share it.
    """
    return _sector_table(_star_size(n_spins))


@lru_cache(maxsize=8)
def _sector_table(n_spins: int) -> SectorWeightTable:
    # spin l = N/2 - k has nu = C(N, k) (N - 2k + 1) / (N - k + 1) sectors, as
    # in degeneracy, with C(N, k + 1) = C(N, k) (N - k) / (k + 1) carried
    # from one row to the next in exact integers
    rows, binomial, dim = [], 1, 2**n_spins
    for k in range(n_spins // 2 + 1):
        multiplicity = n_spins - 2 * k + 1
        nu = binomial * multiplicity // (n_spins - k + 1)
        weight = Fraction(nu * multiplicity, dim)
        rows.append(SectorWeight(Fraction(n_spins - 2 * k, 2), nu, weight))
        binomial = binomial * (n_spins - k) // (k + 1)
    return SectorWeightTable(n_spins, tuple(rows))


def asymptotic_factor(spin) -> Fraction:
    """Long-time Bloch contraction floor x(l) = (4l^2+4l+3)/(3(2l+1)^2)."""
    l = _positive_spin(spin)
    return (4 * l * l + 4 * l + 3) / (3 * (2 * l + 1) ** 2)


def max_depolarization(spin) -> Fraction:
    """Saturation value 1 - x(l) = 8l(l+1)/(3(2l+1)^2) of p(t); always < 2/3."""
    l = _positive_spin(spin)
    return 8 * l * (l + 1) / (3 * (2 * l + 1) ** 2)


# Taylor coefficients of sin(x)/x in x^2, (-1)^k / (2k+1)!, and the window
# |x| < 1 where they replace (cos x - sin(x)/x)/x: that difference cancels
# as x -> 0 (to ~16 ulp at 0.5, 3 ulp at 1); at |x| = 1 the first omitted
# terms are below 2e-18 of either series
_SINC_TAYLOR = tuple((-1) ** k / factorial(2 * k + 1) for k in range(10))
_SINC_WINDOW = 1.0


def _sinc(x: np.ndarray):
    """sin(x)/x and its derivative (cos x - sin(x)/x)/x for 1-d ``x``; inside
    ``_SINC_WINDOW`` both from their Taylor series, by Horner's rule."""
    cos, sin = _cos_sin(x)
    small = np.flatnonzero(np.abs(x) < _SINC_WINDOW)
    xs = x.copy()
    xs[small] = 1.0
    sinc = np.divide(sin, xs, out=sin)
    dsinc = np.divide(np.subtract(cos, sinc, out=cos), xs, out=cos)
    v = x[small]
    y = v * v
    value = slope = 0.0
    for k in range(len(_SINC_TAYLOR) - 1, 0, -1):
        value = value * y + _SINC_TAYLOR[k]
        slope = slope * y + 2 * k * _SINC_TAYLOR[k]
    sinc[small] = value * y + 1.0
    dsinc[small] = v * slope
    return sinc, dsinc


def _factor_and_slope(ensemble: CouplingEnsemble, t):
    """(F, dF/dt) at any array of times ``t`` by the mixture rule of the
    module docstring; every view of the ensemble projects this."""
    t = check_times(t)
    times = t.reshape(-1)  # 0-d t as 1-d: the sums work in place
    if hasattr(ensemble, "_couplings"):
        spins, couplings, q = (np.array(col, dtype=float) for col in zip(*ensemble._couplings()))
        freqs = (2.0 * spins + 1.0) * couplings / 2.0
        weights = q * (8.0 * spins * (spins + 1.0) / (3.0 * (2.0 * spins + 1.0) ** 2))
        vers, sin = line_sums(freqs, [weights, weights * freqs], times)
        # F(0) is sum q added in sector order, to the last bit; F' = +0 - ...,
        # so that gamma(0) = -F'/F is -0 as for every ensemble
        f = np.subtract(np.add.accumulate(q)[-1], vers, out=vers)
        df = np.subtract(0.0, sin, out=sin)
    elif hasattr(ensemble, "_envelope"):
        l = ensemble.spin
        a, b, d = (float(x) for x in (4 * l * l + 4 * l + 3, 8 * l * (l + 1), 3 * (2 * l + 1) ** 2))
        phi, dphi = ensemble._envelope(float(2 * l + 1), times)
        # f = (a + b phi) / d and df = b phi' / d, rounded in that order
        phi *= b
        dphi *= b
        f = np.divide(np.add(phi, a, out=phi), d, out=phi)
        df = np.add(0.0, np.divide(dphi, d, out=dphi), out=dphi)
    else:
        raise DomainError(f"unknown ensemble type {type(ensemble).__name__}")
    return f.reshape(t.shape), df.reshape(t.shape)


def bloch_factor(ensemble: CouplingEnsemble, t):
    """Isotropic Bloch contraction factor F(t); F(0) = 1.

    ``t`` may be a scalar or an array of nonnegative times.
    """
    return scalar_or_array(_factor_and_slope(ensemble, t)[0], t)


def depolarization_probability(ensemble: CouplingEnsemble, t):
    """Channel parameter p(t) = 1 - F(t)."""
    return 1.0 - bloch_factor(ensemble, t)


def decay_rate(ensemble: CouplingEnsemble, t):
    """Generalized-Lindblad decay rate gamma(t) = -F'(t)/F(t).

    Computed from the analytic derivative of the closed form.  Raises
    :class:`PoleError` wherever F(t) is at or below the rate floor
    (rate undefined at full depolarization).
    """
    return rate_view(*_factor_and_slope(ensemble, t), t, "Bloch factor")
