"""Depolarizing channel from a static, isotropic classical random field.

Each realization draws a dimensionless field direction xi with i.i.d.
Gaussian components and rotates the Bloch vector coherently by the unitary
exp(-i g t xi.sigma).  Averaging over realizations contracts every Bloch
component by the polarization factor

    f(t) = (1/3) (1 + 2 (1 - 4 g^2 s^2 t^2) exp(-2 g^2 s^2 t^2)),

which saturates at 1/3 (partial depolarization) and whose decay rate
-f'(t)/f(t) turns negative past the minimum of f.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._common import POLE_FLOOR, check_times, scalar_or_array
from ._rng import accumulate_chunks, realization_normals
from .errors import DomainError, PoleError
from .states import BlochVector


@dataclass(frozen=True)
class IsotropicGaussianNoise:
    """Coupling frequency and per-component standard deviation of the field."""

    coupling: float
    sigma: float

    def __post_init__(self):
        if not self.coupling > 0:
            raise DomainError(f"coupling must be > 0, got {self.coupling}")
        if not self.sigma > 0:
            raise DomainError(f"sigma must be > 0, got {self.sigma}")
        object.__setattr__(self, "coupling", float(self.coupling))
        object.__setattr__(self, "sigma", float(self.sigma))


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


def polarization_factor(noise: IsotropicGaussianNoise, t):
    """Ensemble-averaged Bloch contraction f(t); f(0) = 1, f(inf) = 1/3."""
    tt = check_times(t)
    u = 2.0 * (noise.coupling * noise.sigma * tt) ** 2
    f = (1.0 + 2.0 * (1.0 - 2.0 * u) * np.exp(-u)) / 3.0
    return scalar_or_array(f, tt)


def classical_decay_rate(noise: IsotropicGaussianNoise, t):
    """gamma(t) = -f'(t)/f(t) from the analytic derivative of f."""
    tt = check_times(t)
    gs2 = (noise.coupling * noise.sigma) ** 2
    u = 2.0 * gs2 * tt**2
    f = (1.0 + 2.0 * (1.0 - 2.0 * u) * np.exp(-u)) / 3.0
    if np.any(f <= POLE_FLOOR):
        raise PoleError("polarization factor at its floor; rate undefined")
    # f'(t) = (2/3) e^{-u} (2u - 3) du/dt, du/dt = 4 gs2 t
    df = (2.0 / 3.0) * np.exp(-u) * (2.0 * u - 3.0) * 4.0 * gs2 * tt
    rate = -df / f
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


def _alignment_samples(seed, start, stop, sigma, coupling, times, axis):
    """Per-realization overlap s(t).s0 for realizations [start, stop);
    returns (sum, sum of squares) over the chunk."""
    total = np.zeros_like(times)
    total_sq = np.zeros_like(times)
    for j in range(start, stop):
        xi = sigma * realization_normals(seed, j, 3)
        norm = np.sqrt(xi @ xi)
        gt = coupling * times
        angle = 2.0 * gt * norm
        overlap2 = float(xi @ axis) ** 2
        sinc_half = np.sinc(gt * norm / np.pi)
        fj = np.cos(angle) + 2.0 * gt**2 * sinc_half**2 * overlap2
        total += fj
        total_sq += fj * fj
    return total, total_sq


def monte_carlo_polarization(
    noise: IsotropicGaussianNoise,
    t_grid,
    realizations: int,
    seed: int,
    axis=(0.0, 0.0, 1.0),
    workers=None,
) -> MonteCarloEstimate:
    """Monte Carlo estimate of f(t) by averaging s(t).s0 over realizations.

    Deterministic for a fixed seed: realization ``j`` draws its field from a
    counter-based stream keyed by (seed, j), and partial sums are combined
    in fixed chunk order regardless of the worker count.
    """
    times = check_times(t_grid)
    if times.ndim != 1 or times.size == 0:
        raise DomainError("t_grid must be a nonempty 1-d array")
    if np.any(np.diff(times) < 0):
        raise DomainError("t_grid must be ascending")
    n = int(realizations)
    if n < 2:
        raise DomainError("need >= 2 realizations to estimate a standard error")
    axis = np.asarray(axis, dtype=float)
    if axis.shape != (3,) or not np.isclose(np.linalg.norm(axis), 1.0, atol=1e-9):
        raise DomainError("axis must be a unit 3-vector")

    chunks = accumulate_chunks(
        n,
        lambda a, b: _alignment_samples(seed, a, b, noise.sigma, noise.coupling, times, axis),
        workers=workers,
    )
    total = np.zeros_like(times)
    total_sq = np.zeros_like(times)
    for part, part_sq in chunks:
        total += part
        total_sq += part_sq
    mean = total / n
    variance = np.maximum(total_sq / n - mean**2, 0.0) * (n / (n - 1.0))
    return MonteCarloEstimate(times, mean, np.sqrt(variance / n), n, int(seed))
