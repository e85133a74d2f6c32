"""Dephasing channels from boson baths and from classical stationary noise.

The channel is parameterized by the decoherence exponent Gamma(t): the
populations of the qubit are conserved while the coherence is multiplied by
exp(-Gamma(t)) (times a phase exp(-i Omega(t)) when a unitary drift is
present), i.e. a phase-damping channel with p(t) = 1 - exp(-Gamma(t)).

Three routes to Gamma(t) are provided:

* a discrete sum over bath modes, weighted by the thermal coth factor,
* an integral over a spectral density J(omega): a digamma closed form for
  the Ohmic density, adaptive quadrature for a tabulated one,
* closed forms for classical Gaussian stationary processes (cosine sums
  and white noise), plus a Monte Carlo estimator that validates them.

Units: hbar = 1 throughout, so the inverse temperature ``beta`` carries
units of time and the finite-temperature weight is coth(beta omega / 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import psi

from ._common import check_times, scalar_or_array
from ._quadrature import integrate_adaptive
from ._rng import accumulate_chunks, realization_normals
from .errors import DomainError, UnsupportedQueryError
from .states import QubitState

GAMMA_SLACK = 1e-12


@dataclass(frozen=True)
class DiscreteBosonBath:
    """Finite list of bath modes (coupling c_k, frequency omega_k > 0) at
    inverse temperature ``beta`` (``math.inf`` for zero temperature)."""

    modes: tuple
    beta: float = math.inf

    def __post_init__(self):
        modes = tuple((complex(c), float(w)) for (c, w) in self.modes)
        if not modes:
            raise DomainError("bath needs at least one mode")
        if any(not 0 < w < math.inf for (_, w) in modes):
            raise DomainError("mode frequencies must be finite and > 0")
        if any(not np.isfinite(abs(c)) for (c, _) in modes):
            raise DomainError("mode couplings must be finite")
        if not self.beta > 0:
            raise DomainError(f"beta must be > 0 (or inf), got {self.beta}")
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "beta", float(self.beta))


@dataclass(frozen=True)
class OhmicExpDensity:
    """Ohmic spectral density with exponential cutoff: J(w) = A w exp(-w tau)."""

    amplitude: float
    cutoff_time: float

    def __post_init__(self):
        if not 0 <= self.amplitude < math.inf:
            raise DomainError(f"amplitude must be finite and >= 0, got {self.amplitude}")
        if not 0 < self.cutoff_time < math.inf:
            raise DomainError(f"cutoff_time must be finite and > 0, got {self.cutoff_time}")
        object.__setattr__(self, "amplitude", float(self.amplitude))
        object.__setattr__(self, "cutoff_time", float(self.cutoff_time))

    def __call__(self, omega):
        w = np.asarray(omega, dtype=float)
        return self.amplitude * w * np.exp(-w * self.cutoff_time)


@dataclass(frozen=True, eq=False)
class TabulatedDensity:
    """Spectral density sampled on an ascending frequency grid.

    Values are interpolated linearly between knots and are zero outside the
    tabulated range.
    """

    frequencies: np.ndarray
    values: np.ndarray
    interpolation: str = "linear"

    def __post_init__(self):
        w = np.asarray(self.frequencies, dtype=float)
        j = np.asarray(self.values, dtype=float)
        if w.ndim != 1 or w.size < 2 or j.shape != w.shape:
            raise DomainError("need matching 1-d frequency and value arrays (>= 2 points)")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(j))):
            raise DomainError("frequencies and spectral density values must be finite")
        if np.any(np.diff(w) <= 0):
            raise DomainError("frequency grid must be strictly ascending")
        if np.any(w < 0):
            raise DomainError("frequencies must be nonnegative")
        if np.any(j < 0):
            raise DomainError("spectral density must be nonnegative")
        if self.interpolation != "linear":
            raise DomainError(f"unsupported interpolation rule {self.interpolation!r}")
        w.flags.writeable = False
        j.flags.writeable = False
        object.__setattr__(self, "frequencies", w)
        object.__setattr__(self, "values", j)

    def __call__(self, omega):
        return np.interp(omega, self.frequencies, self.values, left=0.0, right=0.0)


SpectralDensity = OhmicExpDensity | TabulatedDensity


def load_tabulated(path) -> TabulatedDensity:
    """Read a tabulated spectral density from a two-column text file.

    Columns are (omega, J) separated by whitespace, ascending in omega;
    lines starting with ``#`` are comments.
    """
    try:
        data = np.loadtxt(path, comments="#", ndmin=2)
    except ValueError as exc:
        raise DomainError(f"cannot parse spectral file {path}: {exc}") from exc
    if data.shape[1] != 2:
        raise DomainError(f"expected two columns (omega, J) in {path}, got {data.shape[1]}")
    return TabulatedDensity(data[:, 0], data[:, 1])


@dataclass(frozen=True)
class CosineSumProcess:
    """Stationary Gaussian process xi(t) = sum_i x_i cos(w_i t) + y_i sin(w_i t)
    with x_i, y_i ~ N(0, sigma_i^2); components are (sigma_i, omega_i)."""

    components: tuple

    def __post_init__(self):
        comps = tuple((float(s), float(w)) for (s, w) in self.components)
        if not comps:
            raise DomainError("process needs at least one component")
        if any(not 0 < s < math.inf for (s, _) in comps):
            raise DomainError("component amplitudes must be finite and > 0")
        if any(not 0 < w < math.inf for (_, w) in comps):
            raise DomainError("component frequencies must be finite and > 0")
        object.__setattr__(self, "components", comps)


@dataclass(frozen=True)
class WhiteNoiseProcess:
    """Delta-correlated noise: correlation sigma2 * delta(t1 - t2)."""

    intensity: float

    def __post_init__(self):
        if not 0 < self.intensity < math.inf:
            raise DomainError(f"intensity must be finite and > 0, got {self.intensity}")
        object.__setattr__(self, "intensity", float(self.intensity))


StationaryProcess = CosineSumProcess | WhiteNoiseProcess

_PROVENANCES = ("discrete-sum", "quadrature", "closed-form", "monte-carlo")


@dataclass(frozen=True, eq=False)
class DecoherenceFunction:
    """Sampled decoherence exponent Gamma(t) with its provenance."""

    times: np.ndarray
    values: np.ndarray
    provenance: str

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        g = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or g.shape != t.shape or t.size == 0:
            raise DomainError("need matching nonempty 1-d time and value arrays")
        if np.any(np.diff(t) <= 0):
            raise DomainError("time grid must be strictly ascending")
        if self.provenance not in _PROVENANCES:
            raise DomainError(f"unknown provenance {self.provenance!r}")
        if t[0] == 0.0 and abs(g[0]) > GAMMA_SLACK:
            raise DomainError(f"Gamma(0) must be 0, got {g[0]}")
        if np.any(g < -GAMMA_SLACK):
            raise DomainError("Gamma must be nonnegative")
        t.flags.writeable = False
        g.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", g)


def _coth(x):
    """coth(x) for x > 0, with x = inf -> 1."""
    return 1.0 / np.tanh(x)


def gamma_discrete(bath: DiscreteBosonBath, t):
    """Decoherence exponent of a finite mode list:

    Gamma(t) = (1/4) sum_k |c_k|^2 (1 - cos(w_k t)) coth(beta w_k / 2) / w_k^2.
    """
    tt = check_times(t)
    total = np.zeros_like(tt)
    for c, w in bath.modes:
        weight = abs(c) ** 2 / w**2
        if math.isfinite(bath.beta):
            weight *= _coth(0.5 * bath.beta * w)
        total += 0.25 * weight * 2.0 * np.sin(0.5 * w * tt) ** 2
    return scalar_or_array(total, tt)


def _continuum_integrand(density: TabulatedDensity, beta: float, t: float):
    """Integrand (1/(8 pi)) (J(w)/w) 2 sin^2(wt/2) coth(beta w/2), with the
    w -> 0 limit of the coth factor taken from its series (removes the 0/0);
    beta = inf gives coth = 1."""

    def integrand(w):
        x = 0.5 * beta * w
        small = x < 1e-4
        xs = np.where(small, 1.0, x)
        coth = np.where(small, 1.0 / np.where(small, x, 1.0) + x / 3.0, 1.0 / np.tanh(xs))
        return density(w) / w * 2.0 * np.sin(0.5 * w * t) ** 2 * coth / (8.0 * np.pi)

    return integrand


def _ohmic_gamma(density: OhmicExpDensity, beta: float, t: float) -> float:
    """Closed form of the Ohmic exponent (see :func:`gamma_continuum`)."""
    tau = density.cutoff_time
    value = t * t / (tau * (tau * tau + t * t))
    if math.isfinite(beta):
        z = 1.0 + tau / beta
        value += (2.0 / beta) * (psi(complex(z, t / beta)).real - psi(z))
    # the digamma difference cancels at tiny t and may round below zero
    return max(density.amplitude * value / (8.0 * math.pi), 0.0)


_MAX_EDGES = 4000


def _oscillation_edges(lo: float, hi: float, t: float) -> np.ndarray:
    """Panel edges on [lo, hi] at the half-periods of cos(w t)."""
    if t <= 0.0:
        return np.array([lo, hi])
    step = math.pi / t
    count = int((hi - lo) / step)
    if count > _MAX_EDGES:
        step = (hi - lo) / _MAX_EDGES
    interior = np.arange(lo + step, hi, step)
    return np.concatenate([[lo], interior, [hi]])


def gamma_continuum(
    density: SpectralDensity, beta: float, t, tol: float = 1e-8, max_panels: int = 50000
) -> float:
    """Decoherence exponent for a continuum of modes:

    Gamma(t) = (1/4) int_0^inf (J(w) / (2 pi w)) (1 - cos(w t)) coth(beta w/2) dw.

    For the Ohmic density J(w) = A w exp(-w tau), expanding
    coth(beta w/2) = 1 + 2 sum_n exp(-n beta w) and summing with the digamma
    function psi gives the closed form

    Gamma(t) = (A/8pi) [t^2/(tau(tau^2+t^2))
                        + (2/beta) Re(psi(1+(tau+it)/beta) - psi(1+tau/beta))],

    whose second term vanishes at beta = inf.  A tabulated density is
    integrated by adaptive quadrature with panel edges at the knots and the
    cosine half-periods; ``tol`` and ``max_panels`` bound that quadrature,
    whose value has an estimated error <= ``tol``.  Non-convergence raises
    :class:`QuadratureError` carrying the partial estimate.
    """
    if not (beta > 0):
        raise DomainError(f"beta must be > 0 (or inf), got {beta}")
    if not tol > 0:
        raise DomainError(f"tol must be > 0, got {tol}")
    t = float(check_times(t))
    if t == 0.0:
        return 0.0
    if isinstance(density, OhmicExpDensity):
        return _ohmic_gamma(density, beta, t)

    knots = density.frequencies
    edges = np.union1d(knots, _oscillation_edges(knots[0], knots[-1], t))
    if knots[0] > 0.0:
        edges = np.union1d(edges, [0.0])
    value, err = integrate_adaptive(
        _continuum_integrand(density, beta, t), edges, tol, max_panels=max_panels
    )
    return value


def gamma_classical(process: StationaryProcess, coupling, t):
    """Closed-form decoherence exponent Gamma(t) = 2 g^2 int_0^t int_0^t Phi.

    Cosine sums give 4 g^2 sum_i sigma_i^2 (1 - cos(w_i t)) / w_i^2; white
    noise gives the linear (constant-rate) 2 g^2 sigma2 t.
    """
    g = float(coupling)
    tt = check_times(t)
    if isinstance(process, WhiteNoiseProcess):
        out = 2.0 * g**2 * process.intensity * tt
    elif isinstance(process, CosineSumProcess):
        out = np.zeros_like(tt)
        for sigma, w in process.components:
            out += 4.0 * g**2 * sigma**2 * 2.0 * np.sin(0.5 * w * tt) ** 2 / w**2
    else:
        raise DomainError(f"unknown process type {type(process).__name__}")
    return scalar_or_array(out, tt)


def correlation(process: StationaryProcess, dt):
    """Two-point correlation Phi(dt) of the process (even in dt).

    White noise has a distributional correlation and is rejected with
    :class:`UnsupportedQueryError`.
    """
    if isinstance(process, WhiteNoiseProcess):
        raise UnsupportedQueryError(
            "white noise has a delta correlation; no pointwise value exists"
        )
    dd = np.asarray(dt, dtype=float)
    out = np.zeros_like(dd)
    for sigma, w in process.components:
        out = out + sigma**2 * np.cos(w * dd)
    return scalar_or_array(out, dd)


@dataclass(frozen=True, eq=False)
class CoherenceEstimate:
    """Monte Carlo estimate of the complex coherence factor on a time grid."""

    times: np.ndarray
    mean: np.ndarray
    stderr_real: np.ndarray
    stderr_imag: np.ndarray
    realizations: int
    seed: int


def _coherence_samples(seed, start, stop, process, coupling, times):
    sigmas = np.array([s for s, _ in process.components])
    freqs = np.array([w for _, w in process.components])
    m = len(sigmas)
    sin_t = np.sin(np.outer(times, freqs))
    cos_t = 1.0 - np.cos(np.outer(times, freqs))
    total = np.zeros(times.shape, dtype=complex)
    total_sq_re = np.zeros_like(times)
    total_sq_im = np.zeros_like(times)
    for j in range(start, stop):
        draws = realization_normals(seed, j, 2 * m)
        x = sigmas * draws[:m]
        y = sigmas * draws[m:]
        # exact per-realization integral of xi over [0, t]
        integral = (sin_t @ (x / freqs)) + (cos_t @ (y / freqs))
        value = np.exp(-2.0j * coupling * integral)
        total += value
        total_sq_re += value.real**2
        total_sq_im += value.imag**2
    return total, total_sq_re, total_sq_im


def monte_carlo_coherence(
    process: CosineSumProcess,
    coupling,
    t_grid,
    realizations: int,
    seed: int,
    workers=None,
) -> CoherenceEstimate:
    """Estimate E[exp(-2ig int_0^t xi)] by sampling the process coefficients.

    The real part converges to exp(-Gamma(t)); the imaginary part is
    statistically zero.  Deterministic for a fixed seed (counter-based
    per-realization streams, fixed combination order).
    """
    if not isinstance(process, CosineSumProcess):
        raise DomainError("Monte Carlo coherence requires a cosine-sum process")
    times = check_times(t_grid)
    if times.ndim != 1 or times.size == 0:
        raise DomainError("t_grid must be a nonempty 1-d array")
    n = int(realizations)
    if n < 2:
        raise DomainError("need >= 2 realizations to estimate a standard error")
    g = float(coupling)

    chunks = accumulate_chunks(
        n,
        lambda a, b: _coherence_samples(seed, a, b, process, g, times),
        workers=workers,
    )
    total = np.zeros(times.shape, dtype=complex)
    total_sq_re = np.zeros_like(times)
    total_sq_im = np.zeros_like(times)
    for part, part_re, part_im in chunks:
        total += part
        total_sq_re += part_re
        total_sq_im += part_im
    mean = total / n
    var_re = np.maximum(total_sq_re / n - mean.real**2, 0.0) * (n / (n - 1.0))
    var_im = np.maximum(total_sq_im / n - mean.imag**2, 0.0) * (n / (n - 1.0))
    return CoherenceEstimate(
        times, mean, np.sqrt(var_re / n), np.sqrt(var_im / n), n, int(seed)
    )


def dephasing_channel_at(gamma: float, phase: float, rho: QubitState) -> QubitState:
    """Apply the dephasing channel with exponent ``gamma`` and accumulated
    unitary phase ``phase`` (convention: dressing by exp(-i phase sigma3/2)).

    Populations are unchanged; the upper coherence rho01 is multiplied by
    exp(-gamma) exp(-i phase).  Equal (to 1e-12) to applying the dressed
    phase-damping Kraus set with p = 1 - exp(-gamma).
    """
    gamma = float(gamma)
    if not gamma >= 0.0:
        raise DomainError(f"gamma must be >= 0, got {gamma}")
    phase = float(phase)
    if not np.isfinite(phase):
        raise DomainError("phase must be finite")
    m = rho.matrix
    factor = np.exp(-gamma) * np.exp(-1j * phase)
    out = np.array(
        [[m[0, 0], m[0, 1] * factor], [m[1, 0] * np.conj(factor), m[1, 1]]],
        dtype=complex,
    )
    return QubitState(out)
