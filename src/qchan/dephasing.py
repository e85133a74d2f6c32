"""Dephasing channels from boson baths and from classical stationary noise.

The channel is parameterized by the decoherence exponent Gamma(t): the
populations of the qubit are conserved while the coherence is multiplied by
exp(-Gamma(t)) (times a phase exp(-i Omega(t)) when a unitary drift is
present), i.e. a phase-damping channel with p(t) = 1 - exp(-Gamma(t)).

Three routes to Gamma(t) are provided:

* a discrete sum over bath modes, weighted by the thermal coth factor,
* an integral over a spectral density J(omega): a digamma closed form for
  the Ohmic density; for a tabulated one, adaptive Filon quadrature with
  the part singular at omega = 0 in closed form,
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

from ._common import (check_grid, check_square, check_times, check_work, double_angle, finite,
                      line_sums, positive, scalar_or_array)
from ._quadrature import _ROUNDING, _SI_MAX, filon, integrate_adaptive, si_cin
from ._rng import monte_carlo_sums
from .errors import DomainError, QuadratureError, UnsupportedQueryError
from .states import QubitState

GAMMA_SLACK = 1e-12
# The most quadrature panels one tabulated-density evaluation may use.
MAX_PANELS = 50000


@dataclass(frozen=True)
class DiscreteBosonBath:
    """Finite list of bath modes (coupling c_k, frequency omega_k > 0) at
    inverse temperature ``beta`` (``math.inf`` for zero temperature)."""

    modes: tuple
    beta: float = math.inf

    def __post_init__(self):
        modes = tuple((complex(c), positive("mode frequency", w)) for (c, w) in self.modes)
        if not modes:
            raise DomainError("bath needs at least one mode")
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
        object.__setattr__(self, "amplitude", float(self.amplitude))
        object.__setattr__(self, "cutoff_time", positive("cutoff_time", self.cutoff_time))

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
    lines starting with ``#`` are comments.  Every error names the file.
    The path is opened as a plain local file: numpy would also decompress
    it by its suffix, or fetch a URL.
    """
    try:
        with open(path) as handle:
            data = np.loadtxt(handle, comments="#", ndmin=2)
        if data.shape[1] != 2:
            raise DomainError(f"expected two columns (omega, J), got {data.shape[1]}")
        return TabulatedDensity(data[:, 0], data[:, 1])
    except (OSError, ValueError, DomainError) as exc:
        # a file that is not text is a ValueError too (UnicodeDecodeError)
        raise DomainError(f"spectral file {path}: {exc}") from exc


@dataclass(frozen=True)
class CosineSumProcess:
    """Stationary Gaussian process xi(t) = sum_i x_i cos(w_i t) + y_i sin(w_i t)
    with x_i, y_i ~ N(0, sigma_i^2); components are (sigma_i, omega_i)."""

    components: tuple

    def __post_init__(self):
        comps = tuple((positive("component amplitude", s), positive("component frequency", w))
                      for (s, w) in self.components)
        if not comps:
            raise DomainError("process needs at least one component")
        for s, w in comps:
            check_square("component amplitude", s)
            check_square("component frequency", w)
        object.__setattr__(self, "components", comps)


@dataclass(frozen=True)
class WhiteNoiseProcess:
    """Delta-correlated noise: correlation sigma2 * delta(t1 - t2)."""

    intensity: float

    def __post_init__(self):
        object.__setattr__(self, "intensity", positive("intensity", self.intensity))


StationaryProcess = CosineSumProcess | WhiteNoiseProcess


def _coth(x):
    """coth(x) for x > 0, as an array: 1 / tanh(x), 1 at x = inf, and below
    x = 1e-4 the series 1/x + x/3 (its next term is below an ulp there)."""
    x = np.asarray(x, dtype=float)
    return np.where(x < 1e-4, 1.0 / x + x / 3.0, 1.0 / np.tanh(x))


# x coth x - 1 = x^2 P(x^2) / S(x^2), with P and S the series of
# (x cosh x - sinh x) / x^3 and sinh(x) / x: positive terms that fall as
# 1/(2k + 1)!, 10 of which reach an ulp below x = 1 (highest power first)
_REST_P = [2 * k / math.factorial(2 * k + 1) for k in range(10, 0, -1)]
_REST_S = [1 / math.factorial(2 * k + 1) for k in range(10, -1, -1)]


def _coth_rest(x):
    """r(x) = coth(x) - 1/x for x >= 0, as an array, from sums of positive
    terms: below 1 x P(x^2) / S(x^2); above it (1 - 1/x) + 2 e^-2x / (1 - e^-2x),
    1 at x = inf, where 1 / tanh(x) - 1/x would lose 2 bits next to 1."""
    x = np.asarray(x, dtype=float)
    s, y = np.minimum(x, 1.0), np.maximum(x, 1.0)
    return np.where(x < 1.0, s * np.polyval(_REST_P, s * s) / np.polyval(_REST_S, s * s),
                    (1.0 - 1.0 / y) + 2.0 * np.exp(-2.0 * y) / -np.expm1(-2.0 * y))


def _discrete_and_slope(bath: DiscreteBosonBath, t):
    """(Gamma, Gamma') of a finite mode list at any array of times ``t``, with

    Gamma'(t) = (1/4) sum_k |c_k|^2 coth(beta w_k / 2) sin(w_k t) / w_k.
    """
    tt = check_times(t)
    couplings, freqs = np.array(bath.modes).T
    weights = np.abs(couplings) ** 2 / freqs.real**2
    if math.isfinite(bath.beta):
        # coth is inf where beta omega / 2 underflows; the check below catches it
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            weights = np.where(weights > 0, weights * _coth(0.5 * bath.beta * freqs.real), 0.0)
    # |Gamma| <= sum of the weights and |Gamma'| <= sum of weight * omega
    bound = np.sum(weights * np.maximum(freqs.real, 1.0))
    if not math.isfinite(bound):
        raise DomainError(
            "mode weights |c|^2 coth(beta omega/2)/omega^2 are too large: "
            f"their sum times max(omega, 1) is {bound}, so Gamma or Gamma' overflows"
        )
    return line_sums(freqs.real, [0.25 * weights, 0.25 * weights * freqs.real], tt)


def gamma_discrete(bath: DiscreteBosonBath, t):
    """Decoherence exponent of a finite mode list:

    Gamma(t) = (1/4) sum_k |c_k|^2 (1 - cos(w_k t)) coth(beta w_k / 2) / w_k^2.
    """
    return scalar_or_array(_discrete_and_slope(bath, t)[0], t)


def _filon_weights(density: TabulatedDensity, beta: float, end: float = 0.0, j1: float = 0.0):
    """The non-oscillatory factors of the Gamma and Gamma' integrands as two
    rows, (W(w) / w, W(w)), smooth on every knot interval away from w = 0.
    Below ``end``, on a first knot interval whose singular part
    :func:`_tabulated` integrates in closed form, they lose that part: with
    J = J0 + J1 w there (``j1`` = J1) and r = r(beta w/2)
    (:func:`_coth_rest`), they are (J r / (8 pi w), J r / (8 pi) +
    J1 / (4 pi beta)), and (J1 / (8 pi), W) at beta = inf."""

    def weights(w):
        weight = density(w) * _coth(0.5 * beta * w) / (8.0 * np.pi)
        rows = np.stack([weight / w, weight])
        near = w < end
        if math.isinf(beta):
            rows[0, near] = j1 / (8.0 * np.pi)
        else:
            rest = density(w[near]) * _coth_rest(0.5 * beta * w[near]) / (8.0 * np.pi)
            rows[:, near] = rest / w[near], rest + j1 / (4.0 * np.pi * beta)
        return rows

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


# a knot interval too narrow for the nodes gives inf or NaN: a QuadratureError
@np.errstate(all="ignore")
def _tabulated(density: TabulatedDensity, beta: float, times, tol):
    """(Gamma, Gamma', their error estimates) of a tabulated density at the
    1-d ``times``.

    Gamma = int (W/w)(1 - cos wt) and Gamma' = int W sin wt with
    W = J coth(beta w/2) / (8 pi).  W and W/w are smooth on every knot
    interval but near w = 0, where W/w ~ 1/w^2 at finite beta.  On the first
    knot interval [a, b], J = J0 + J1 w, and the parts singular at w = 0,
    p / w^2 + q / w in W/w and p / w in W, integrate over [0, b] to
    F(b) = (p (t Si(bt) - vers(bt)/b) + q Cin(bt), p Si(bt))
    (:func:`_quadrature.si_cin`), with p = J0 / (4 pi beta) and
    q = J1 / (4 pi beta), or p = 0 and q = J0 / (8 pi) at beta = inf.  When
    a = 0, or when F(b) - F(a) has the smaller rounding floor, that closed
    form is taken and what is left is smooth (:func:`_filon_weights`).  One
    pass over all knots refines the Chebyshev interpolants of the smooth
    factors by a bound that holds for every t, to ``tol`` less the closed
    form's floor, then integrates them exactly against the oscillators
    (:func:`_quadrature.filon`).  The pass starts with one panel per knot
    interval and bisects up to ``MAX_PANELS`` in all; those first panels and
    one Filon sum per (time, knot interval), the least work, are charged to
    the budget before it.
    """
    knots, values = density.frequencies, density.values
    check_work(panel=knots.size - 1, filon=times.size * (knots.size - 1))
    a, b = knots[0], knots[1]
    j1 = (values[1] - values[0]) / (b - a)
    j0 = values[0] - j1 * a
    p = j0 / (4.0 * np.pi * beta)
    q = j0 / (8.0 * np.pi) if math.isinf(beta) else j1 / (4.0 * np.pi * beta)
    # F(b) - F(a), F(0) = 0, rounds as a panel does (bounded with
    # Si <= _SI_MAX and Cin(x) <= 1 + log(1 + x)), and cancels as a t grows;
    # the panels' floor on p / w^2 grows as 1/a, to ~_ROUNDING J(a) / (pi beta a)
    ends = [end for end in (b, a) if end > 0.0]
    bound = _ROUNDING * len(ends) * np.stack([
        abs(p) * _SI_MAX * times + abs(q) * (1.0 + np.log1p(b * times)),
        np.full(times.size, abs(p) * _SI_MAX),
    ])
    closed_floor = np.max(bound, initial=0.0)
    if a > 0.0 and closed_floor >= _ROUNDING * values[0] / (np.pi * beta * a):
        ends, bound, closed_floor = [], np.zeros_like(bound), 0.0
    weights = _filon_weights(density, beta, b if ends else 0.0, j1)
    lo, hi, coef, errors, floor = integrate_adaptive(weights, knots, tol - closed_floor, MAX_PANELS)
    floor += closed_floor
    totals = np.zeros((4, times.size))  # Gamma, Gamma', their error estimates
    # filon charges the budget before any sum, with Si and Cin as one set per
    # time and end
    totals[:2] = filon(times, lo, hi, coef, len(ends))
    for end, sign in zip(ends, (1.0, -1.0)):
        si, cin = si_cin(end * times)
        totals[0] += sign * (p * (times * si - double_angle(0.5 * end * times)[1] / end) + q * cin)
        totals[1] += sign * p * si
    # both integrands vanish at t = 0, and so does the bound's part there
    totals[2:] = np.where(times > 0.0, errors.sum(axis=1)[:, None] + bound, 0.0)
    if not np.all(np.isfinite(totals)):
        raise QuadratureError(f"quadrature gave a non-finite Gamma or Gamma' after {lo.size} panels")
    worst = np.max(totals[2:], initial=0.0)
    if worst > tol:
        message = (f"quadrature error estimate {worst:.3e} above tolerance {tol:.3e} "
                   f"after {lo.size} panels")
        if floor > tol:
            # the pass stops at once if its rounding floors and the closed
            # form's exceed tol: no panel budget would help
            message = (f"quadrature tolerance {tol:.3e} lies below its rounding floor "
                       f"{floor:.3e} (error estimate {worst:.3e})")
        raise QuadratureError(message, estimate=totals[0, 0], error=totals[2, 0])
    return tuple(totals)


def _continuum_and_slope(density: SpectralDensity, beta: float, t, tol: float = 1e-8):
    """(Gamma, Gamma', error estimate of Gamma') at any array of times ``t``,
    as in :func:`gamma_continuum`; the error is 0 for the Ohmic closed form.

    A tabulated density is integrated for all times in one pass (see
    :func:`_tabulated`); a :class:`QuadratureError` carries the partial
    Gamma of the first time.  Its Gamma within ``tol`` below zero is zero,
    and one further below raises :class:`DomainError`.
    """
    if not (beta > 0):
        raise DomainError(f"beta must be > 0 (or inf), got {beta}")
    if not tol > 0:
        raise DomainError(f"tol must be > 0, got {tol}")
    tt = check_times(t)
    if isinstance(density, OhmicExpDensity):
        value, slope = _ohmic_and_slope(density, beta, tt)
        return value, slope, np.zeros_like(tt)
    value, slope, _, slope_err = _tabulated(density, beta, tt.ravel(), tol)
    value[(value < 0.0) & (value >= -tol)] = 0.0
    if np.any(value < -GAMMA_SLACK):
        raise DomainError("Gamma must be nonnegative")
    return tuple(col.reshape(tt.shape) for col in (value, slope, slope_err))


def gamma_continuum(density: SpectralDensity, beta: float, t, tol: float = 1e-8):
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
    depend on t, but for the part of the first knot interval singular at
    w = 0, which has a closed form in Si and Cin (see :func:`_tabulated`);
    Gamma and Gamma' share the panels, and ``tol`` and ``MAX_PANELS``
    bound that quadrature: both values have an estimated
    error <= ``tol``.  Non-convergence raises :class:`QuadratureError`
    carrying the partial estimate of Gamma.  ``t`` may be a scalar or an
    array of times, which share one quadrature pass.
    """
    return scalar_or_array(_continuum_and_slope(density, beta, t, tol)[0], t)


def _classical_and_slope(process: StationaryProcess, coupling, t):
    """(Gamma, Gamma') of a classical process at any array of times ``t``: cosine sums
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
    for sigma, _ in process.components:
        check_square("coupling*amplitude", g * sigma)
    sigmas, freqs = np.array(process.components).T
    power = 4.0 * g**2 * sigmas**2
    return line_sums(freqs, [power / freqs**2, power / freqs], tt)


def gamma_classical(process: StationaryProcess, coupling, t):
    """Closed-form decoherence exponent Gamma(t) = 2 g^2 int_0^t int_0^t Phi.

    Cosine sums give 4 g^2 sum_i sigma_i^2 (1 - cos(w_i t)) / w_i^2; white
    noise gives the linear (constant-rate) 2 g^2 sigma2 t.
    """
    return scalar_or_array(_classical_and_slope(process, coupling, t)[0], t)


def correlation(process: StationaryProcess, dt):
    """Two-point correlation Phi(dt) of the process (even in dt).

    White noise has a distributional correlation and is rejected with
    :class:`UnsupportedQueryError`.
    """
    if isinstance(process, WhiteNoiseProcess):
        raise UnsupportedQueryError(
            "white noise has a delta correlation; no pointwise value exists"
        )
    sigmas, freqs = np.array(process.components).T
    # Phi = sum sigma^2 cos(w dt) = sum sigma^2 - sum sigma^2 vers(w dt)
    power = sigmas**2
    drop, _ = line_sums(freqs, [power, power], dt)
    return scalar_or_array(power.sum() - drop, dt)


@dataclass(frozen=True, eq=False)
class CoherenceEstimate:
    """Monte Carlo estimate of the complex coherence factor on a time grid,
    from ``realizations`` draws of the stream ``seed`` (:mod:`qchan._rng`)."""

    times: np.ndarray
    mean: np.ndarray
    stderr_real: np.ndarray
    stderr_imag: np.ndarray
    realizations: int
    seed: int


def _coherence_samples(draws, weights, table, coupling):
    """cos 2u, sin 2u and sin^2 2u at u = -g int_0^t xi for the realizations
    whose coefficient draws are the rows of ``draws``: (realizations, times)
    arrays.  ``table`` holds [sin wt | vers wt] and ``weights`` the matching
    sigma/w twice, so int_0^t xi is one product of the table with the
    weighted draws.  From T = tan u, cos 2u = 2/(1 + T^2) - 1 and sin 2u =
    2T/(1 + T^2), one tangent and one reciprocal per point.  The caller takes
    the sum of cos^2 as n minus that of sin^2; the other way round, the small
    sin^2 of early times would cancel away."""
    # exact per-realization integral of xi over [0, t]; matvec rounds as
    # the per-realization product table @ v does, a matrix product does not
    integral = np.matvec(table, draws * weights)
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
    statistically zero.  Deterministic for a fixed seed and numpy build:
    each chunk of realizations draws from numpy's Philox keyed by (seed,
    chunk), and partial sums are combined in a fixed order
    (:mod:`qchan._rng`).
    """
    if not isinstance(process, CosineSumProcess):
        raise DomainError("Monte Carlo coherence requires a cosine-sum process")
    times = check_grid(t_grid)
    n = int(realizations)
    g = float(coupling)

    sigmas, freqs = np.array(process.components).T
    # (sin wt, vers wt) from one double angle of wt/2, side by side
    table = np.hstack(double_angle(np.multiply.outer(times, 0.5 * freqs)))
    weights = np.tile(sigmas / freqs, 2)
    total_re, total_im, total_sq_im = monte_carlo_sums(
        seed,
        n,
        times.size,
        weights.size,
        lambda draws: _coherence_samples(draws, weights, table, g),
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
    phase = finite("phase", phase)
    m = rho.matrix
    factor = np.exp(-gamma) * np.exp(-1j * phase)
    out = np.array(
        [[m[0, 0], m[0, 1] * factor], [m[1, 0] * np.conj(factor), m[1, 1]]],
        dtype=complex,
    )
    return QubitState(out)
