"""Depolarizing channel from a static, isotropic classical random field.

Each realization draws a dimensionless field direction xi with i.i.d.
Gaussian components and rotates the Bloch vector coherently by the unitary
exp(-i g t xi.sigma).  Averaging over realizations contracts every Bloch
component by the polarization factor

    f(t) = (1/3) (1 + 2 (1 - 4 g^2 s^2 t^2) exp(-2 g^2 s^2 t^2)),

which saturates at 1/3 (partial depolarization) and whose decay rate
-f'(t)/f(t) turns negative past the minimum of f.  One function gives f and
its analytic derivative f', so the factor and the rate share one formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._common import (
    check_grid,
    check_square,
    check_times,
    pole_rate,
    scalar_or_array,
)
from ._rng import monte_carlo_sums, realization_normals
from .errors import DomainError, PoleError
from .states import BlochVector


@dataclass(frozen=True)
class IsotropicGaussianNoise:
    """Coupling frequency and per-component standard deviation of the field."""

    coupling: float
    sigma: float

    def __post_init__(self):
        if not 0 < self.coupling < math.inf:
            raise DomainError(f"coupling must be finite and > 0, got {self.coupling}")
        if not 0 < self.sigma < math.inf:
            raise DomainError(f"sigma must be finite and > 0, got {self.sigma}")
        object.__setattr__(self, "coupling", float(self.coupling))
        object.__setattr__(self, "sigma", float(self.sigma))
        check_square("coupling*sigma", self.coupling * self.sigma)


@dataclass(frozen=True)
class NoiseSample:
    """One realization of the dimensionless field vector."""

    xi1: float
    xi2: float
    xi3: float

    def __post_init__(self):
        if not all(np.isfinite(x) for x in (self.xi1, self.xi2, self.xi3)):
            raise DomainError("noise components must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.xi1, self.xi2, self.xi3], dtype=float)


@dataclass(frozen=True, eq=False)
class MonteCarloEstimate:
    """Sample mean and standard error of a scalar observable on a time grid."""

    times: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    realizations: int
    seed: int

    def __post_init__(self):
        if self.realizations < 1:
            raise DomainError("need at least one realization")
        if np.any(self.stderr < 0):
            raise DomainError("standard errors must be nonnegative")


def _factor_and_slope(noise: IsotropicGaussianNoise, t):
    """(f, f') at the times ``t``; with u = 2 g^2 s^2 t^2,
    f'(t) = (2/3) e^{-u} (2u - 3) du/dt and du/dt = 4 g^2 s^2 t."""
    tt = check_times(t)
    # u <= (2 g s t)^2 / 2 and |f'| < (2 g s)^2 max(t, t^2): both must be finite
    scale = 2.0 * noise.coupling * noise.sigma
    check_square("2*coupling*sigma", scale)
    check_square("2*coupling*sigma*t", scale * float(np.max(tt, initial=0.0)))
    gs2 = (noise.coupling * noise.sigma) ** 2
    u = 2.0 * (noise.coupling * noise.sigma * tt) ** 2
    f = (1.0 + 2.0 * (1.0 - 2.0 * u) * np.exp(-u)) / 3.0
    df = (2.0 / 3.0) * np.exp(-u) * (2.0 * u - 3.0) * 4.0 * gs2 * tt
    return f, df


def polarization_factor(noise: IsotropicGaussianNoise, t):
    """Ensemble-averaged Bloch contraction f(t); f(0) = 1, f(inf) = 1/3."""
    tt = check_times(t)
    return scalar_or_array(_factor_and_slope(noise, tt)[0], tt)


def classical_decay_rate(noise: IsotropicGaussianNoise, t):
    """gamma(t) = -f'(t)/f(t) from the analytic derivative of f."""
    tt = check_times(t)
    rate, poles = pole_rate(*_factor_and_slope(noise, tt))
    if np.any(poles):
        raise PoleError("polarization factor at its floor; rate undefined")
    return scalar_or_array(rate, tt)


def rotate_bloch(sample: NoiseSample, coupling, t, start: BlochVector) -> BlochVector:
    """Rotate a Bloch vector by the single-realization unitary exp(-i g t xi.sigma).

    The rotation angle is 2 g t |xi| about the axis xi; the xi -> 0 limit is
    handled analytically (returns ``start``).  Matches
    :func:`qchan.exact.unitary_noise_conjugation` to 1e-12.
    """
    tt = float(check_times(t))
    xi = sample.as_array()
    s0 = start.as_array()
    gt = float(coupling) * tt
    norm = float(np.linalg.norm(xi))
    angle = 2.0 * gt * norm
    # sin(angle)/|xi| = 2gt sinc(angle), (1-cos(angle))/|xi|^2 = 2 (gt)^2 sinc^2(angle/2)
    sinc_full = np.sinc(angle / np.pi)
    sinc_half = np.sinc(gt * norm / np.pi)
    out = (
        s0 * np.cos(angle)
        + 2.0 * gt * sinc_full * np.cross(xi, s0)
        + 2.0 * gt**2 * sinc_half**2 * xi * float(xi @ s0)
    )
    return BlochVector.from_array(out)


def _alignment_samples(normals, sigma, coupling, times, axis):
    """Overlaps s(t).s0 = (1 - b) + b/(1 + T^2), with b = 2 (1 - (n^.a)^2) and
    T = tan(g t sigma |n|), of the realizations whose unscaled normals n are
    the rows of ``normals`` (the field is sigma n), and their squares: two
    (realizations, times) arrays.  One tangent and one reciprocal per point;
    the direction factor comes from n, so no sigma gives 0/0 or inf/inf.
    """
    length = np.vecdot(normals, normals)
    off_axis = 2.0 * (1.0 - np.square(np.vecdot(normals, axis)) / length)
    phase = np.multiply.outer(sigma * np.sqrt(length), coupling * times)
    # exactly 1 where 1 + T^2 rounds to 1; T^2 < 1e38 for finite phases
    overlap = np.square(np.tan(phase, out=phase), out=phase)
    overlap += 1.0
    np.divide(off_axis[:, None], overlap, out=overlap)
    overlap += (1.0 - off_axis)[:, None]
    return overlap, overlap * overlap


def monte_carlo_polarization(
    noise: IsotropicGaussianNoise,
    t_grid,
    realizations: int,
    seed: int,
    axis=(0.0, 0.0, 1.0),
) -> MonteCarloEstimate:
    """Monte Carlo estimate of f(t) by averaging s(t).s0 over realizations.

    Deterministic for a fixed seed: realization ``j`` draws its field from a
    counter-based stream keyed by (seed, j), and partial sums are combined
    in a fixed order.
    """
    times = check_grid(t_grid)
    # the phase g t sigma |n| must be finite; |n| < 16 for any three normals drawn
    product = noise.coupling * noise.sigma * float(times[-1])
    if not math.isfinite(16.0 * product):
        raise DomainError(
            f"coupling*sigma*t = {product} is too large: the Monte Carlo phase overflows"
        )
    n = int(realizations)
    axis = np.asarray(axis, dtype=float)
    if axis.shape != (3,) or not np.isclose(np.linalg.norm(axis), 1.0, atol=1e-9):
        raise DomainError("axis must be a unit 3-vector")

    total, total_sq = monte_carlo_sums(
        n,
        times.size,
        3,
        lambda start, stop: realization_normals(seed, start, stop, 3),
        lambda normals: _alignment_samples(normals, noise.sigma, noise.coupling, times, axis),
    )
    mean = total / n
    variance = np.maximum(total_sq / n - mean**2, 0.0) * (n / (n - 1.0))
    return MonteCarloEstimate(times, mean, np.sqrt(variance / n), n, int(seed))
