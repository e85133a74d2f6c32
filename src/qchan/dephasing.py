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

Each route gives Gamma(t) together with its time derivative Gamma'(t), the
channel's decay rate: analytic for the closed forms, and from the same
quadrature pass (with its own error estimate) for a tabulated density.

Units: hbar = 1 throughout, so the inverse temperature ``beta`` carries
units of time and the finite-temperature weight is coth(beta omega / 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._common import check_grid, check_square, check_times, double_angle, scalar_or_array
from . import _quadrature
from ._quadrature import chebyshev, filon, integrate_adaptive, integrated
from ._rng import monte_carlo_sums, realization_normals
from .errors import DomainError, QuadratureError, UnsupportedQueryError
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
        for c, w in modes:
            check_square("mode coupling |c|", abs(c))
            check_square("mode frequency", w)
            if w * w == 0.0:  # the weight |c|^2 / omega^2 divides by it
                raise DomainError(f"mode frequency = {w} is too small: its square underflows")
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
        for s, w in comps:
            check_square("component amplitude", s)
            check_square("component frequency", w)
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


def _discrete_and_slope(bath: DiscreteBosonBath, t):
    """(Gamma, Gamma') of a finite mode list at the times ``t``, with

    Gamma'(t) = (1/4) sum_k |c_k|^2 coth(beta w_k / 2) sin(w_k t) / w_k.
    """
    tt = check_times(t)
    weights = []
    for c, w in bath.modes:
        weight = abs(c) ** 2 / w**2
        if math.isfinite(bath.beta) and weight:
            # coth is inf where beta omega / 2 underflows; the check below catches it
            with np.errstate(divide="ignore", over="ignore"):
                weight = float(weight * _coth(0.5 * bath.beta * w))
        weights.append(weight)
    # |Gamma| <= sum of the weights and |Gamma'| <= sum of weight * omega
    bound = sum(wt * max(w, 1.0) for wt, (_, w) in zip(weights, bath.modes))
    if not math.isfinite(bound):
        raise DomainError(
            "mode weights |c|^2 coth(beta omega/2)/omega^2 are too large: "
            f"their sum times max(omega, 1) is {bound}, so Gamma or Gamma' overflows"
        )
    total = np.zeros_like(tt)
    slope = np.zeros_like(tt)
    for weight, (_, w) in zip(weights, bath.modes):
        total += 0.25 * weight * 2.0 * np.sin(0.5 * w * tt) ** 2
        slope += 0.25 * weight * w * np.sin(w * tt)
    return total, slope


def gamma_discrete(bath: DiscreteBosonBath, t):
    """Decoherence exponent of a finite mode list:

    Gamma(t) = (1/4) sum_k |c_k|^2 (1 - cos(w_k t)) coth(beta w_k / 2) / w_k^2.
    """
    tt = check_times(t)
    return scalar_or_array(_discrete_and_slope(bath, tt)[0], tt)


def _thermal_weight(density: TabulatedDensity, beta: float, w):
    """W(w) = J(w) coth(beta w/2) / (8 pi) at nodes w > 0.  The w -> 0 limit
    of the coth factor is taken from its series (removes the 0/0); beta = inf
    gives coth = 1."""
    x = 0.5 * beta * w
    coth = 1.0 / np.tanh(x)
    small = x < 1e-4
    if np.any(small):
        coth[small] = 1.0 / x[small] + x[small] / 3.0
    return density(w) * coth / (8.0 * np.pi)


def _continuum_integrand(density: TabulatedDensity, beta: float, times: np.ndarray):
    """Integrands of Gamma and Gamma' at the ``times`` as 2 len(times) rows,
    the Gamma rows first: the t-independent weight W(w), computed once per
    node, times 2 sin^2(x) / w and sin(2x) with x = wt/2, both from one
    tangent per (time, node)."""

    def integrand(w):
        weight = _thermal_weight(density, beta, w)
        rows = np.empty((2 * times.size, w.size))
        value, slope = rows[: times.size], rows[times.size :]
        # in place, in the rows: the tangent is the cost, and a
        # (times, nodes) temporary would add to it
        np.multiply.outer(times, w, out=value)
        double_angle(np.multiply(value, 0.5, out=value), sin2x=slope, vers=value)
        np.multiply(slope, weight, out=slope)
        np.multiply(value, weight / w, out=value)
        return rows

    return integrand


def _filon_weights(density: TabulatedDensity, beta: float):
    """The non-oscillatory factors of the Gamma and Gamma' integrands as two
    rows, (W(w) / w, W(w)): smooth on every knot interval away from w = 0."""

    def weights(w):
        weight = _thermal_weight(density, beta, w)
        return np.stack([weight / w, weight])

    return weights


# asymptotic series of psi and psi' in 1/z^2: B_2k / (2k) and B_2k
_PSI_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)
_TRIGAMMA_SERIES = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


def _digamma_trigamma(z):
    """Digamma psi(z) and trigamma psi'(z) for complex z with Re z > 0.

    The recurrences psi(z) = psi(z+1) - 1/z and psi'(z) = psi'(z+1) + 1/z^2
    shift z to Re z >= 10, where the asymptotic Bernoulli series are summed
    to 1/z^14 (relative error ~1e-15 there).
    """
    z = np.array(z, dtype=complex)
    psi = np.zeros_like(z)
    trigamma = np.zeros_like(z)
    low = z.real < 10.0
    while np.any(low):
        inv = np.where(low, 1.0 / np.where(low, z, 1.0), 0.0)
        psi -= inv
        trigamma += inv * inv
        z = z + low
        low = z.real < 10.0
    inv = 1.0 / z
    inv2 = inv * inv
    series = np.zeros_like(z)
    series1 = np.zeros_like(z)
    for b, b1 in zip(_PSI_SERIES[::-1], _TRIGAMMA_SERIES[::-1]):
        series = (series + b) * inv2
        series1 = (series1 + b1) * inv2
    psi += np.log(z) - 0.5 * inv - series
    trigamma += inv + 0.5 * inv2 + series1 * inv
    return psi, trigamma


def _ohmic_and_slope(density: OhmicExpDensity, beta: float, t: np.ndarray):
    """Closed forms of the Ohmic Gamma and Gamma' (see :func:`gamma_continuum`)."""
    tau = density.cutoff_time
    value = t * t / (tau * (tau * tau + t * t))
    slope = 2.0 * t * tau / (tau * tau + t * t) ** 2
    if math.isfinite(beta):
        z = 1.0 + tau / beta
        psi, trigamma = _digamma_trigamma(z + 1j * (t / beta))
        value += (2.0 / beta) * (psi.real - _digamma_trigamma(z)[0].real)
        slope -= (2.0 / beta**2) * trigamma.imag
    # the digamma difference cancels at tiny t and may round below zero
    value = np.maximum(density.amplitude * value / (8.0 * math.pi), 0.0)
    return value, density.amplitude * slope / (8.0 * math.pi)


# The first knot interval's pass takes the times in groups whose two
# integrand rows per time fill about one slab per panel.
_FIRST_GROUP = _quadrature._SLAB // (2 * _quadrature._CHEB_X.size)
# Its first panels have kappa = h max(t) / 2 at most this: the trailing Chebyshev
# coefficients of exp(i kappa x) bound nothing until they decay, for k > kappa.
_FIRST_KAPPA = 0.5 * _quadrature._P


# a knot interval too narrow for the nodes gives inf or NaN: a QuadratureError
@np.errstate(all="ignore")
def _tabulated(density: TabulatedDensity, beta: float, times, tol, max_panels):
    """(Gamma, Gamma', their error estimates) of a tabulated density at the
    1-d ``times``.

    Gamma = int (W/w)(1 - cos wt) and Gamma' = int W sin wt with
    W = J coth(beta w/2) / (8 pi).  From the second knot on, W and W/w are
    smooth on every knot interval: their Chebyshev interpolants are refined
    to tol/2 by a bound that holds for every t, then integrated exactly
    against the oscillators (:func:`_quadrature.filon`).  On the first knot
    interval W/w ~ 1/w at finite beta and only 1 - cos wt cancels it, so
    the same rule integrates the full integrands there, to tol/2, at nodes
    other than w = 0, from panels that resolve the largest time
    (``_FIRST_KAPPA``).  ``max_panels`` bounds the Filon panels plus these.
    """
    knots = density.frequencies
    totals = np.zeros((4, times.size))  # Gamma, Gamma', their error estimates
    panels = first_panels = floor = 0
    if knots.size > 2:
        # |1 - cos wt| <= 2 and |sin wt| <= 1 scale the bounds of (W/w, W)
        lo, hi, coef, errors, floor = integrate_adaptive(
            _filon_weights(density, beta), knots[1:], tol / 2, max_panels - 1,
            rule=chebyshev((2.0, 1.0)),
        )
        totals[:2] = filon(times, lo, hi, coef)
        # both integrands vanish at t = 0, and so does the bound's part there
        totals[2:] = np.where(times > 0.0, errors.sum(axis=1)[:, None], 0.0)
        panels = lo.size
    for start in range(0, times.size, _FIRST_GROUP):
        group = times[start : start + _FIRST_GROUP]
        kappa = 0.5 * (knots[1] - knots[0]) * np.max(group)
        pieces = max(1, min(math.ceil(kappa / _FIRST_KAPPA), max_panels - panels))
        lo, hi, values, errors, first_floor = integrate_adaptive(
            _continuum_integrand(density, beta, group),
            np.linspace(knots[0], knots[1], pieces + 1), tol / 2,
            max_panels - panels, rule=integrated(chebyshev(np.ones(2 * group.size))),
        )
        first_panels = max(first_panels, lo.size)
        floor = max(floor, first_floor)
        # rows: Gamma, then Gamma', at each time of the group
        sums = np.concatenate([values, errors]).sum(axis=1)
        totals[:, start : start + group.size] += sums.reshape(4, group.size)
    if not np.all(np.isfinite(totals)):
        raise QuadratureError(
            f"quadrature gave a non-finite Gamma or Gamma' after {panels + first_panels} panels"
        )
    worst = np.max(totals[2:], initial=0.0)
    if worst > tol:
        message = (f"quadrature error estimate {worst:.3e} above tolerance {tol:.3e} "
                   f"after {panels + first_panels} panels")
        if 2 * floor > tol:
            # each pass has tol/2, and stops at once if its rounding floors
            # exceed that: no panel budget would help
            message = (f"quadrature tolerance {tol:.3e} lies below its rounding floor "
                       f"{2 * floor:.3e} (error estimate {worst:.3e})")
        raise QuadratureError(message, estimate=totals[0, 0], error=totals[2, 0])
    return tuple(totals)


def _continuum_and_slope(
    density: SpectralDensity, beta: float, t, tol: float = 1e-8, max_panels: int = 50000
):
    """(Gamma, Gamma', error estimate of Gamma') at the times ``t``, as in
    :func:`gamma_continuum`; the error is 0 for the Ohmic closed form.

    A tabulated density is integrated for all times in one pass (see
    :func:`_tabulated`); a :class:`QuadratureError` carries the partial
    Gamma of the first time.
    """
    if not (beta > 0):
        raise DomainError(f"beta must be > 0 (or inf), got {beta}")
    if not tol > 0:
        raise DomainError(f"tol must be > 0, got {tol}")
    tt = check_times(t)
    if isinstance(density, OhmicExpDensity):
        value, slope = _ohmic_and_slope(density, beta, tt)
        return value, slope, np.zeros_like(tt)
    value, slope, _, slope_err = _tabulated(density, beta, tt.ravel(), tol, max_panels)
    return tuple(col.reshape(tt.shape) for col in (value, slope, slope_err))


def gamma_continuum(
    density: SpectralDensity, beta: float, t, tol: float = 1e-8, max_panels: int = 50000
) -> float:
    """Decoherence exponent for a continuum of modes:

    Gamma(t) = (1/4) int_0^inf (J(w) / (2 pi w)) (1 - cos(w t)) coth(beta w/2) dw,

    with the decay rate Gamma'(t) = (1/8pi) int_0^inf J(w) sin(w t) coth(beta w/2) dw.
    For the Ohmic density J(w) = A w exp(-w tau), expanding
    coth(beta w/2) = 1 + 2 sum_n exp(-n beta w) and summing with the digamma
    function psi gives the closed forms

    Gamma(t) = (A/8pi) [t^2/(tau(tau^2+t^2))
                        + (2/beta) Re(psi(1+(tau+it)/beta) - psi(1+tau/beta))],
    Gamma'(t) = (A/8pi) [2 t tau/(tau^2+t^2)^2 - (2/beta^2) Im psi'(1+(tau+it)/beta)],

    whose psi terms vanish at beta = inf.  A tabulated density is
    integrated by Filon-Chebyshev product integration on panels that do not
    depend on t, and by the same Chebyshev rule on the first knot interval
    (see :func:`_tabulated`); Gamma and Gamma' share the panels, and ``tol`` and
    ``max_panels`` bound that quadrature: both values have an estimated
    error <= ``tol``.  Non-convergence raises :class:`QuadratureError`
    carrying the partial estimate of Gamma.
    """
    return float(_continuum_and_slope(density, beta, float(t), tol, max_panels)[0])


def _classical_and_slope(process: StationaryProcess, coupling, t):
    """(Gamma, Gamma') of a classical process at the times ``t``: cosine sums
    have Gamma' = 4 g^2 sum_i sigma_i^2 sin(w_i t) / w_i, white noise the
    constant 2 g^2 sigma2."""
    g = float(coupling)
    tt = check_times(t)
    if isinstance(process, WhiteNoiseProcess):
        rate = 2.0 * g**2 * process.intensity
        return rate * tt, np.full_like(tt, rate)
    if not isinstance(process, CosineSumProcess):
        raise DomainError(f"unknown process type {type(process).__name__}")
    check_square("coupling", g)
    out = np.zeros_like(tt)
    slope = np.zeros_like(tt)
    for sigma, w in process.components:
        check_square("coupling*amplitude", g * sigma)
        out += 4.0 * g**2 * sigma**2 * 2.0 * np.sin(0.5 * w * tt) ** 2 / w**2
        slope += 4.0 * g**2 * sigma**2 * np.sin(w * tt) / w
    return out, slope


def gamma_classical(process: StationaryProcess, coupling, t):
    """Closed-form decoherence exponent Gamma(t) = 2 g^2 int_0^t int_0^t Phi.

    Cosine sums give 4 g^2 sum_i sigma_i^2 (1 - cos(w_i t)) / w_i^2; white
    noise gives the linear (constant-rate) 2 g^2 sigma2 t.
    """
    tt = check_times(t)
    return scalar_or_array(_classical_and_slope(process, coupling, tt)[0], tt)


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


def _coherence_samples(draws, sigmas, freqs, sin_t, cos_t, coupling):
    """cos 2u, sin 2u and sin^2 2u at u = -g int_0^t xi for the realizations
    whose coefficient draws are the rows of ``draws``: (realizations, times)
    arrays.  From T = tan u, cos 2u = 2/(1 + T^2) - 1 and sin 2u =
    2T/(1 + T^2), one tangent and one reciprocal per point.  The caller takes
    the sum of cos^2 as n minus that of sin^2; the other way round, the small
    sin^2 of early times would cancel away."""
    m = len(sigmas)
    x = sigmas * draws[:, :m]
    y = sigmas * draws[:, m:]
    # exact per-realization integral of xi over [0, t]; matvec rounds as
    # the per-realization product sin_t @ v does, a matrix product does not
    integral = np.matvec(sin_t, x / freqs) + np.matvec(cos_t, y / freqs)
    tan = np.tan(np.multiply(integral, -coupling, out=integral), out=integral)
    scale = np.square(tan)
    scale += 1.0
    np.divide(2.0, scale, out=scale)
    sin2u = np.multiply(tan, scale, out=tan)
    cos2u = np.subtract(scale, 1.0, out=scale)
    return cos2u, sin2u, sin2u * sin2u


def monte_carlo_coherence(
    process: CosineSumProcess,
    coupling,
    t_grid,
    realizations: int,
    seed: int,
) -> CoherenceEstimate:
    """Estimate E[exp(-2ig int_0^t xi)] by sampling the process coefficients.

    The real part converges to exp(-Gamma(t)); the imaginary part is
    statistically zero.  Deterministic for a fixed seed (counter-based
    per-realization streams, fixed combination order).
    """
    if not isinstance(process, CosineSumProcess):
        raise DomainError("Monte Carlo coherence requires a cosine-sum process")
    times = check_grid(t_grid)
    n = int(realizations)
    g = float(coupling)

    sigmas, freqs = np.array(process.components).T
    normals = 2 * len(sigmas)
    sin_t = np.sin(np.outer(times, freqs))
    cos_t = 1.0 - np.cos(np.outer(times, freqs))
    total_re, total_im, total_sq_im = monte_carlo_sums(
        n,
        times.size,
        normals,
        lambda start, stop: realization_normals(seed, start, stop, normals),
        lambda draws: _coherence_samples(draws, sigmas, freqs, sin_t, cos_t, g),
    )
    mean = (total_re + 1j * total_im) / n
    var_re = np.maximum((n - total_sq_im) / n - mean.real**2, 0.0) * (n / (n - 1.0))
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
