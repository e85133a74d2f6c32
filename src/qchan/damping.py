"""Amplitude damping from a qubit exchanging one excitation with bath modes.

The excited-state amplitude obeys the memory-kernel equation

    d(alpha)/dt + i omega alpha + int_0^t K(t - s) alpha(s) ds = 0,
    K(s) = sum_l |c_l|^2 exp(-i omega_l s).

Because K is a finite sum of modes, this is the Schroedinger equation of
the qubit plus one excitation shared with the modes, with the bath
amplitudes integrated out (Breuer & Petruccione, The Theory of Open Quantum
Systems, sec. 10.1).  In the frame u(t) = exp(i omega t) alpha(t) that
one-excitation Hamiltonian is the real symmetric arrowhead

    A = [[0, |c|^T], [|c|, diag(omega_l - omega)]]

(the phases of the c_l are a gauge: only |c_l|^2 enters K).  With
eigenvalues Delta_k and eigenvectors v_k,

    u(t) = sum_k v_{0k}^2 exp(-i Delta_k t),

exact at every grid point, and so is its derivative
u'(t) = sum_k -i Delta_k v_{0k}^2 exp(-i Delta_k t).  From alpha the
channel data follow: Gamma(t) = -2 ln|alpha/alpha0|, its decay rate
Gamma'(t) = -2 Re(u'/u), and the unwrapped phase Omega(t) =
-arg(alpha/alpha0), giving a dressed amplitude-damping channel with
p(t) = 1 - exp(-Gamma(t)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    GENERATOR_EXCITED_PROJECTOR,
    PhaseDressing,
    apply_kraus,
    dress_with_phase,
    kraus_amplitude_damping,
)
from .errors import DomainError, ResourceError
from .states import QubitState

AMPLITUDE_FLOOR = 1e-12
# Dense diagonalization of the (M+1)^2 one-excitation arrowhead is O(M^3):
# about 1.4 s at the cap on a 2-core x86 VM.
MODE_CAP = 2000
_GAMMA_SLACK = 1e-9


@dataclass(frozen=True)
class AmplitudeKernelSpec:
    """Qubit frequency plus the (coupling, frequency) mode list of the kernel."""

    frequency: float
    modes: tuple

    def __post_init__(self):
        if not np.isfinite(self.frequency):
            raise DomainError(f"qubit frequency must be finite, got {self.frequency}")
        modes = tuple((complex(c), float(w)) for (c, w) in self.modes)
        if not modes:
            raise DomainError("kernel needs at least one mode")
        if any(not np.isfinite(abs(c)) or not np.isfinite(w) for (c, w) in modes):
            raise DomainError("mode parameters must be finite")
        object.__setattr__(self, "frequency", float(self.frequency))
        object.__setattr__(self, "modes", modes)

    def kernel(self, s):
        """K(s) = sum_l |c_l|^2 exp(-i omega_l s)."""
        ss = np.asarray(s, dtype=float)
        out = np.zeros(ss.shape, dtype=complex)
        for c, w in self.modes:
            out += abs(c) ** 2 * np.exp(-1j * w * ss)
        return out


@dataclass(frozen=True, eq=False)
class AmplitudeSolution:
    """Normalized amplitude alpha(t)/alpha(0) on a uniform grid, with the
    extracted decoherence exponent and unwrapped phase.

    ``capped`` marks samples where |alpha/alpha0| fell below the amplitude
    floor; Gamma is capped at -2 ln(floor) there and the phase is carried by
    continuation.
    """

    times: np.ndarray
    ratio: np.ndarray
    gamma: np.ndarray
    phase: np.ndarray
    capped: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        r = np.asarray(self.ratio, dtype=complex)
        g = np.asarray(self.gamma, dtype=float)
        ph = np.asarray(self.phase, dtype=float)
        cp = np.asarray(self.capped, dtype=bool)
        if not (t.shape == r.shape == g.shape == ph.shape == cp.shape) or t.ndim != 1:
            raise DomainError("solution arrays must share one 1-d shape")
        steps = np.diff(t)
        if t.size < 2 or np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=1e-9):
            raise DomainError("time grid must be uniform and ascending")
        if abs(r[0] - 1.0) > 1e-12:
            raise DomainError("normalized amplitude must start at 1")
        if np.any(g < -_GAMMA_SLACK):
            raise DomainError("Gamma must be nonnegative (|alpha| <= |alpha(0)|)")
        live = ~cp
        if not (np.all(np.isfinite(g[live])) and np.all(np.isfinite(ph[live]))):
            raise DomainError("Gamma and Omega must be finite above the amplitude floor")
        for arr in (t, r, g, ph, cp):
            arr.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "ratio", r)
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "phase", ph)
        object.__setattr__(self, "capped", cp)

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0])


@dataclass(frozen=True, eq=False)
class ExcitedPopulation:
    """Excited-state population mu(t) = |alpha0|^2 exp(-Gamma(t)) on the grid."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.size == 0:
            raise DomainError("population series must be nonempty")
        if np.any(values < 0.0):
            raise DomainError("populations must be nonnegative")
        # values[0] is |alpha0|^2 (Gamma(0) = 0); nothing may exceed it
        if np.any(values > values[0] * (1.0 + _GAMMA_SLACK) + 1e-300):
            raise DomainError("populations cannot exceed the initial value")


def _solve_with_slope(spec: AmplitudeKernelSpec, t_max: float, steps: int):
    """The :func:`solve_amplitude` solution and the decay rate Gamma'(t) =
    -2 Re(u'/u), with u'(t) = sum_k -i Delta_k v_{0k}^2 exp(-i Delta_k t)
    summed in the same mode loop; Gamma' is NaN at capped samples."""
    if not 0 < t_max < math.inf:
        raise DomainError(f"t_max must be finite and > 0, got {t_max}")
    steps = int(steps)
    if steps < 1:
        raise DomainError(f"need at least 1 step, got {steps}")
    n_modes = len(spec.modes)
    if n_modes > MODE_CAP:
        raise ResourceError(f"{n_modes} modes above the cap of {MODE_CAP}")

    arrow = np.diag([0.0] + [w - spec.frequency for _, w in spec.modes])
    arrow[0, 1:] = arrow[1:, 0] = [abs(c) for c, _ in spec.modes]
    detunings, vectors = np.linalg.eigh(arrow)
    grid = np.arange(steps + 1) * (t_max / steps)
    u = np.zeros(grid.shape, dtype=complex)
    du = np.zeros(grid.shape, dtype=complex)
    for weight, detuning in zip(vectors[0] ** 2, detunings):
        term = weight * np.exp(-1j * detuning * grid)
        u += term
        du += -1j * detuning * term
    # the weights sum to 1 up to rounding; make u(0) = 1 exact
    du /= u[0]
    u /= u[0]

    magnitude = np.abs(u)
    capped = magnitude < AMPLITUDE_FLOOR
    gamma = -2.0 * np.log(np.maximum(magnitude, AMPLITUDE_FLOOR))
    slope = np.where(capped, np.nan, -2.0 * (du / np.where(capped, 1.0, u)).real)
    # the slowly varying u is unwrapped; the free phase omega*t is exact
    phase = spec.frequency * grid - np.unwrap(np.angle(u))
    ratio = np.exp(-1j * spec.frequency * grid) * u
    return AmplitudeSolution(grid, ratio, gamma, phase, capped), slope


def solve_amplitude(spec: AmplitudeKernelSpec, t_max: float, steps: int) -> AmplitudeSolution:
    """Exact amplitude on ``steps`` uniform steps of [0, t_max], from the
    eigenmodes of the one-excitation arrowhead (see the module docstring).

    Raises :class:`ResourceError` above ``MODE_CAP`` modes, before any
    diagonalization.
    """
    return _solve_with_slope(spec, t_max, steps)[0]


def population(solution: AmplitudeSolution, index: int, initial_amplitude) -> float:
    """Excited-state population |alpha0|^2 exp(-Gamma(t_index))."""
    if not 0 <= index < solution.times.size:
        raise IndexError(f"index {index} outside the solution grid")
    return abs(initial_amplitude) ** 2 * float(np.exp(-solution.gamma[index]))


def excited_population(solution: AmplitudeSolution, initial_amplitude) -> ExcitedPopulation:
    values = abs(initial_amplitude) ** 2 * np.exp(-solution.gamma)
    return ExcitedPopulation(solution.times, values)


def ad_channel_at(solution: AmplitudeSolution, index: int, rho: QubitState) -> QubitState:
    """State after the dressed amplitude-damping channel at grid point ``index``.

    Equals applying exp(-i Omega |1><1|) after amplitude damping with
    p = 1 - exp(-Gamma): the |1> population scales by exp(-Gamma), the
    coherence <1|rho|0> by exp(-Gamma/2) exp(-i Omega).
    """
    if not 0 <= index < solution.times.size:
        raise IndexError(f"index {index} outside the solution grid")
    if solution.capped[index]:
        raise DomainError(
            "amplitude below the floor at this sample; the phase is undefined"
        )
    p = 1.0 - float(np.exp(-solution.gamma[index]))
    dressing = PhaseDressing(float(solution.phase[index]), GENERATOR_EXCITED_PROJECTOR)
    return apply_kraus(dress_with_phase(kraus_amplitude_damping(p), dressing), rho)
