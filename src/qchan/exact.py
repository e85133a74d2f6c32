"""Brute-force reference simulators.

Everything here evolves the full joint system exactly (Hermitian
eigendecomposition, truncated Hilbert spaces) and shares no formula code
with the closed-form modules, so it can serve as an independent check of
every analytic result in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .classical_field import NoiseSample
from .damping import MODE_CAP, AmplitudeKernelSpec
from .errors import AccuracyError, DomainError, ResourceError
from .spin_bath import half_integer
from .states import PAULIS, QubitState

SPIN_CAP = Fraction(25)
# The most quanta exact_dephasing_single_mode keeps: each sigma3 block of its
# dense Hamiltonian (real symmetric for a real coupling) has n_max + 1 rows,
# and at the cap an `oracle` run takes 3.5-4.7 s and ~0.46 GB peak on a 2-core
# x86-64 VM (a complex coupling, 6-7 s and ~0.6 GB).
FOCK_CAP = 2000
# The initial thermal weight the Fock cutoff may leave out.
THERMAL_TAIL = 1e-12
# exact_single_excitation shares damping.MODE_CAP, so it can check every
# input the solver accepts; its dense complex (M+1)^2 block is O(M^3), about
# 10 s at the cap on a 2-core x86 VM.
COMMUTATOR_TOL = 1e-12
# eigh returns energies E with an absolute error of ~eps max|E|, so each phase
# E t of a propagator carries ~eps max|E| max|t| radians of error; past this
# bound the simulators refuse rather than report a phase that lost its digits.
# The tests' and the benchmark's finite phases stay below 25 rad (~6e-15 rad).
PHASE_TOL = 1e-10

# A bath mode entering exact_dephasing_single_mode is specified by the same
# channel-facing coupling c as gamma_discrete, whose convention makes a mode
# contribute |c|^2 coth(beta w/2) (1 - cos(w t)) / (4 w^2) to the exponent.
# For the displaced-oscillator Hamiltonian
#     H = w (a + kappa sigma3 / w)^dag (a + kappa sigma3 / w)
# the exact exponent is 4 |kappa|^2 coth(beta w/2)(1 - cos(w t)) / w^2, so the
# Hamiltonian coupling is kappa = c / 4.
COUPLING_BRIDGE = 0.25


@dataclass(frozen=True, eq=False)
class AngularMomentumOps:
    """Dense spin-l operator matrices (dimension 2l+1)."""

    spin: Fraction
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    squared: np.ndarray

    def __post_init__(self):
        comm = self.sx @ self.sy - self.sy @ self.sx
        if np.max(np.abs(comm - 1j * self.sz)) > COMMUTATOR_TOL:
            raise DomainError("spin operators violate [Sx, Sy] = i Sz")
        l = float(self.spin)
        expected = l * (l + 1.0) * np.eye(self.sx.shape[0])
        if np.max(np.abs(self.squared - expected)) > COMMUTATOR_TOL:
            raise DomainError("S^2 is not l(l+1) I")


def spin_operators(spin) -> AngularMomentumOps:
    """Standard spin-l matrices from the ladder-operator construction."""
    l = half_integer(spin)
    if l < Fraction(1, 2):
        raise DomainError(f"spin must be >= 1/2, got {l}")
    lf = float(l)
    dim = int(2 * l + 1)
    m = lf - np.arange(dim)
    raising = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):
        mm = m[k]
        raising[k - 1, k] = math.sqrt(lf * (lf + 1.0) - mm * (mm + 1.0))
    sx = 0.5 * (raising + raising.conj().T)
    sy = -0.5j * (raising - raising.conj().T)
    sz = np.diag(m).astype(complex)
    squared = sx @ sx + sy @ sy + sz @ sz
    return AngularMomentumOps(l, sx, sy, sz, squared)


def _check_phase(energies: np.ndarray, t) -> None:
    """Refuse exp(-i E t) when rounding leaves its phases above PHASE_TOL rad of error."""
    phase = np.max(np.abs(energies)) * np.max(np.abs(t), initial=0.0)
    error = np.finfo(float).eps * phase
    # an overflowed phase leaves the result non-finite, which the CLI refuses by name
    if math.isfinite(error) and error > PHASE_TOL:
        raise AccuracyError(
            f"phases E t up to {phase:.3g} rad carry ~{error:.2g} rad of rounding error, "
            f"above {PHASE_TOL:g}"
        )


def _propagator(hamiltonian: np.ndarray, t: float) -> np.ndarray:
    energies, basis = np.linalg.eigh(hamiltonian)
    _check_phase(energies, t)
    return (basis * np.exp(-1j * energies * t)) @ basis.conj().T


def _evolve_density(hamiltonian: np.ndarray, rho: np.ndarray, t: float) -> np.ndarray:
    propagator = _propagator(hamiltonian, t)
    return propagator @ rho @ propagator.conj().T


def exact_spin_bath(spin, coupling, rho: QubitState, t: float) -> QubitState:
    """Evolve rho (x) I/(2l+1) under H = g s.S and trace out the bath."""
    l = half_integer(spin)
    if l > SPIN_CAP:
        raise ResourceError(f"spin {l} above the dimension cap {SPIN_CAP}")
    ops = spin_operators(l)
    dim = ops.sx.shape[0]
    g = float(coupling)
    hamiltonian = g * sum(
        np.kron(0.5 * pauli, op) for pauli, op in zip(PAULIS, (ops.sx, ops.sy, ops.sz))
    )
    joint = np.kron(rho.matrix, np.eye(dim) / dim)
    evolved = _evolve_density(hamiltonian, joint, float(t))
    reduced = np.trace(evolved.reshape(2, dim, 2, dim), axis1=1, axis2=3)
    return QubitState(reduced)


def exact_single_excitation(spec: AmplitudeKernelSpec, t_grid) -> np.ndarray:
    """Normalized excited-qubit amplitude alpha(t)/alpha(0) from the exact
    single-excitation block (qubit + one shared excitation)."""
    n_modes = len(spec.modes)
    if n_modes > MODE_CAP:
        raise ResourceError(f"{n_modes} modes above the cap of {MODE_CAP}")
    times = np.asarray(t_grid, dtype=float)
    block = np.zeros((n_modes + 1, n_modes + 1), dtype=complex)
    block[0, 0] = spec.frequency
    for i, (c, w) in enumerate(spec.modes):
        block[0, 1 + i] = c
        block[1 + i, 0] = np.conj(c)
        block[1 + i, 1 + i] = w
    energies, basis = np.linalg.eigh(block)
    _check_phase(energies, times)
    weights = np.abs(basis[0, :]) ** 2
    return (weights[None, :] * np.exp(-1j * np.outer(times, energies))).sum(axis=1)


def thermal_cutoff(beta: float, frequency: float, coupling=0.0) -> int:
    """Truncation level for :func:`exact_dephasing_single_mode`.

    Covers the initial thermal tail (weight below ``THERMAL_TAIL``) plus the
    Fock reach of the dynamical displacement, which climbs to amplitude
    ~4 kappa / omega even from the vacuum (``coupling`` uses the same
    channel-facing normalization as the simulator).  Raises
    :class:`DomainError` unless beta * frequency > 0 with a finite frequency
    and coupling, and :class:`ResourceError` if the level is above ``FOCK_CAP``.
    """
    if not (0 < frequency < math.inf and beta * frequency > 0 and math.isfinite(abs(coupling))):
        raise DomainError(f"need beta * frequency > 0, a finite frequency and a finite "
                          f"coupling, got {beta}, {frequency}, {coupling}")
    if math.isinf(beta):
        n_thermal = 0
        occupancy = 0.0
    else:
        n_thermal = -math.log(THERMAL_TAIL) / (beta * frequency)
        # above 700 the occupancy is 0 to double precision, and expm1 overflows
        occupancy = 1.0 / math.expm1(min(beta * frequency, 700.0))
    reach = 4.0 * abs(coupling) * COUPLING_BRIDGE / frequency
    spread = math.sqrt(2.0 * occupancy + 1.0)
    # either part alone past the cap is refused before its square or ceiling overflows
    if max(n_thermal, reach * spread) <= FOCK_CAP:
        n_max = math.ceil(n_thermal) + math.ceil(reach**2 * spread**2 + 8.0 * reach * spread) + 12
        if n_max <= FOCK_CAP:
            return n_max
    raise ResourceError(f"the mode needs more quanta than the Fock cap of {FOCK_CAP}")


def exact_dephasing_single_mode(coupling, frequency: float, beta: float, rho: QubitState,
                                t: float) -> QubitState:
    """Evolve rho (x) rho_thermal under the displaced-oscillator Hamiltonian
    (truncated at :func:`thermal_cutoff` quanta) and trace out the mode.

    ``coupling`` uses the channel-facing normalization of
    :func:`qchan.dephasing.gamma_discrete` (see ``COUPLING_BRIDGE``), so the
    coherence magnitude equals exp(-Gamma(t)) of the discrete sum.  A real
    coupling keeps the sigma3 blocks real symmetric.
    """
    n_max = thermal_cutoff(beta, frequency, coupling=coupling)
    w = float(frequency)
    kappa = coupling * COUPLING_BRIDGE

    dim = n_max + 1
    lower = np.diag(np.sqrt(np.arange(1, dim)), 1)
    drive = kappa * lower.T + np.conj(kappa) * lower
    energy = np.diag(w * np.arange(dim) + abs(kappa) ** 2 / w)
    t = float(t)
    up = _propagator(energy + drive, t)  # sigma3 = +1 sector (|0>)
    down = _propagator(energy - drive, t)  # sigma3 = -1 sector (|1>)

    if math.isinf(beta):
        weights = np.zeros(dim)
        weights[0] = 1.0
    else:
        weights = np.exp(-beta * w * np.arange(dim))
        weights /= weights.sum()

    # The Hamiltonian keeps sigma3, so block (a, b) of rho (x) thermal evolves
    # to rho_ab U_a thermal U_b^dag, whose trace over the mode is
    # rho_ab sum_mn U_a[m, n] weights[n] conj(U_b[m, n]).
    overlap = np.array([[np.vdot(b, a) for b in (up, down)]
                        for a in (up * weights, down * weights)])
    return QubitState(rho.matrix * overlap)


def unitary_noise_conjugation(sample: NoiseSample, coupling, t, rho: QubitState) -> QubitState:
    """Exact conjugation rho -> exp(-i g t xi.sigma) rho exp(+i g t xi.sigma),
    with the 2x2 exponential taken by Hermitian eigendecomposition."""
    xi = sample.as_array()
    generator = float(coupling) * float(t) * sum(x * s for x, s in zip(xi, PAULIS))
    return QubitState(_evolve_density(generator, rho.matrix, 1.0))
