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
of the sector's coupling law.  A sharp coupling (fixed, spin-star and custom
sectors) gives the cosine itself; Gaussian, Lorentzian and uniform laws give
their closed-form averages.  Decay rates gamma(t) = -F'(t)/F(t) come from
the analytic derivative F'(t) = sum_k q_k b(l_k) phi_k'(t) / d(l_k).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, inf, isfinite
from typing import Union

import numpy as np

from ._common import POLE_FLOOR, check_times, double_angle, pole_rate, scalar_or_array
from .errors import DomainError, PoleError, ResourceError

_WEIGHT_TOL = 1e-12
# The exact big-integer sector table grows ~N^2.3: about 2 s at the cap on a
# 2-core x86 VM.
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


def _finite(name: str, value) -> float:
    value = float(value)
    if not isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")
    return value


def _cos_sin(theta: np.ndarray):
    """(cos theta, sin theta) from one tangent of theta / 2."""
    sin, vers = double_angle(0.5 * theta)
    return np.subtract(1.0, vers, out=vers), sin


def _sharp(g: float, m: float, t: np.ndarray):
    """Envelope of a sharp coupling g: cos(m g t / 2) and its time derivative."""
    half_freq = m * g / 2.0
    cos, sin = _cos_sin(half_freq * t)
    return cos, np.multiply(sin, -half_freq, out=sin)


class _SingleSpin:
    """One bath spin whose coupling follows a law; ``_envelope(m, t)`` returns
    the law's phi = E_g[cos(m g t / 2)] and phi' for m = 2l + 1."""

    def _sectors(self):
        return ((self.spin, 1.0, self._envelope),)


@dataclass(frozen=True)
class FixedCoupling(_SingleSpin):
    """Single bath spin with a sharp coupling constant."""

    spin: object
    coupling: float

    def __post_init__(self):
        object.__setattr__(self, "spin", _positive_spin(self.spin))
        object.__setattr__(self, "coupling", _finite("coupling", self.coupling))

    def _envelope(self, m, t):
        return _sharp(self.coupling, m, t)


@dataclass(frozen=True)
class GaussianCoupling(_SingleSpin):
    """Coupling constant normally distributed with the given mean and sigma."""

    spin: object
    mean: float
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "spin", _positive_spin(self.spin))
        object.__setattr__(self, "mean", _finite("mean", self.mean))
        if not 0 < self.sigma < inf:
            raise DomainError(f"sigma must be finite and > 0, got {self.sigma}")
        object.__setattr__(self, "sigma", float(self.sigma))

    def _envelope(self, m, t):
        decay = np.exp(-(m**2) * self.sigma**2 * t**2 / 8.0)
        phase = m * self.mean / 2.0
        cos, sin = _cos_sin(phase * t)
        return decay * cos, decay * (-(m**2) * self.sigma**2 * t / 4.0 * cos - phase * sin)


@dataclass(frozen=True)
class LorentzianCoupling(_SingleSpin):
    """Coupling constant Lorentzian-distributed around zero."""

    spin: object
    half_width: float

    def __post_init__(self):
        object.__setattr__(self, "spin", _positive_spin(self.spin))
        if not 0 < self.half_width < inf:
            raise DomainError(f"half_width must be finite and > 0, got {self.half_width}")
        object.__setattr__(self, "half_width", float(self.half_width))

    def _envelope(self, m, t):
        rate = m * self.half_width / 2.0
        env = np.exp(-rate * t)
        return env, -rate * env


@dataclass(frozen=True)
class UniformCoupling(_SingleSpin):
    """Coupling constant uniform on [low, high]."""

    spin: object
    low: float
    high: float

    def __post_init__(self):
        object.__setattr__(self, "spin", _positive_spin(self.spin))
        object.__setattr__(self, "low", _finite("low", self.low))
        object.__setattr__(self, "high", _finite("high", self.high))
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
        object.__setattr__(self, "coupling", _finite("coupling", self.coupling))

    def _sectors(self):
        envelope = partial(_sharp, self.coupling)
        return tuple(
            (row.spin, float(row.weight), envelope) for row in sector_weights(self.size).rows
        )


@dataclass(frozen=True)
class CustomEnsemble:
    """Finite weighted mixture of (spin, coupling) sectors.

    ``components`` is a sequence of (spin, coupling, weight) triples with
    positive weights summing to one.
    """

    components: tuple

    def __post_init__(self):
        comps = tuple(
            (_positive_spin(l), _finite("coupling", g), float(q)) for (l, g, q) in self.components
        )
        if not comps:
            raise DomainError("custom ensemble needs at least one component")
        if any(not q > 0 for (_, _, q) in comps):
            raise DomainError("custom ensemble weights must be positive")
        total = sum(q for (_, _, q) in comps)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise DomainError(f"custom ensemble weights sum to {total}, expected 1")
        object.__setattr__(self, "components", comps)

    def _sectors(self):
        return tuple((l, q, partial(_sharp, g)) for (l, g, q) in self.components)


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
    k = int(k)
    return comb(n_spins, k) - (comb(n_spins, k - 1) if k >= 1 else 0)


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
        total_dim = sum(r.count * (2 * r.spin + 1) for r in self.rows)
        if total_dim != 2**self.n_spins:
            raise DomainError(
                f"sector dimensions sum to {total_dim}, expected 2^{self.n_spins}"
            )
        if sum(r.weight for r in self.rows) != 1:
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
    rows = []
    l = Fraction(n_spins, 2)
    dim = 2**n_spins
    while l >= 0:
        nu = degeneracy(n_spins, l)
        multiplicity = int(2 * l + 1)
        rows.append(SectorWeight(l, nu, Fraction(nu * multiplicity, dim)))
        l -= 1
    return SectorWeightTable(n_spins, tuple(rows))


def asymptotic_factor(spin) -> Fraction:
    """Long-time Bloch contraction floor x(l) = (4l^2+4l+3)/(3(2l+1)^2)."""
    l = _positive_spin(spin)
    return (4 * l * l + 4 * l + 3) / (3 * (2 * l + 1) ** 2)


def max_depolarization(spin) -> Fraction:
    """Saturation value 1 - x(l) = 8l(l+1)/(3(2l+1)^2) of p(t); always < 2/3."""
    l = _positive_spin(spin)
    return 8 * l * (l + 1) / (3 * (2 * l + 1) ** 2)


def _sinc(x: np.ndarray):
    """sin(x)/x and its derivative (cos x - sin(x)/x)/x; below |x| = 1e-4
    their Taylor series, whose next terms are under 1e-18."""
    cos, sin = _cos_sin(x)
    small = np.abs(x) < 1e-4
    xs = np.where(small, 1.0, x)
    sinc = np.where(small, 1.0 - x * x / 6.0, sin / xs)
    return sinc, np.where(small, -x / 3.0 + x**3 / 30.0, (cos - sinc) / xs)


def _factor_and_slope(ensemble: CouplingEnsemble, t: np.ndarray):
    """(F, dF/dt) by the mixture rule of the module docstring."""
    sectors = getattr(ensemble, "_sectors", None)
    if sectors is None:
        raise DomainError(f"unknown ensemble type {type(ensemble).__name__}")
    times = t.reshape(-1)  # 0-d t as 1-d: the sums work in place
    f, df = np.zeros((2, times.size))
    for l, q, envelope in sectors():
        a = float(4 * l * l + 4 * l + 3)
        b = float(8 * l * (l + 1))
        d = float(3 * (2 * l + 1) ** 2)
        phi, dphi = envelope(float(2 * l + 1), times)
        # f += q ((a + b phi) / d) and df += q (b phi' / d), rounded in that order
        phi *= b
        dphi *= b
        f += np.multiply(np.divide(np.add(phi, a, out=phi), d, out=phi), q, out=phi)
        df += np.multiply(np.divide(dphi, d, out=dphi), q, out=dphi)
    return f.reshape(t.shape), df.reshape(t.shape)


def bloch_factor(ensemble: CouplingEnsemble, t):
    """Isotropic Bloch contraction factor F(t); F(0) = 1.

    ``t`` may be a scalar or an array of nonnegative times.
    """
    times = check_times(t)
    f, _ = _factor_and_slope(ensemble, times)
    return scalar_or_array(f, times)


def depolarization_probability(ensemble: CouplingEnsemble, t):
    """Channel parameter p(t) = 1 - F(t)."""
    f = bloch_factor(ensemble, t)
    return 1.0 - f


def decay_rate(ensemble: CouplingEnsemble, t):
    """Generalized-Lindblad decay rate gamma(t) = -F'(t)/F(t).

    Computed from the analytic derivative of the closed form.  Raises
    :class:`PoleError` wherever F(t) is at or below the rate floor
    (rate undefined at full depolarization).
    """
    times = check_times(t)
    rate, poles = pole_rate(*_factor_and_slope(ensemble, times))
    if np.any(poles):
        raise PoleError(
            f"Bloch factor at or below {POLE_FLOOR}; decay rate undefined there"
        )
    return scalar_or_array(rate, times)
