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
from .errors import DomainError, ResourceError
from .spin_bath import half_integer
from .states import PAULIS, QubitState

SPIN_CAP = Fraction(25)
# exact_single_excitation shares damping.MODE_CAP, so it can check every
# input the solver accepts; its dense complex (M+1)^2 block is O(M^3), about
# 10 s at the cap on a 2-core x86 VM.
COMMUTATOR_TOL = 1e-12

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


def _evolve_density(hamiltonian: np.ndarray, rho: np.ndarray, t: float) -> np.ndarray:
    energies, basis = np.linalg.eigh(hamiltonian)
    propagator = (basis * np.exp(-1j * energies * t)) @ basis.conj().T
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
    weights = np.abs(basis[0, :]) ** 2
    return (weights[None, :] * np.exp(-1j * np.outer(times, energies))).sum(axis=1)


def thermal_cutoff(beta: float, frequency: float, tail: float = 1e-12, coupling=0.0) -> int:
    """Truncation level for :func:`exact_dephasing_single_mode`.

    Covers the initial thermal tail (weight below ``tail``) plus the Fock
    reach of the dynamical displacement, which climbs to amplitude
    ~4 kappa / omega even from the vacuum (``coupling`` uses the same
    channel-facing normalization as the simulator).
    """
    if math.isinf(beta):
        n_thermal = 0
        occupancy = 0.0
    else:
        n_thermal = math.ceil(-math.log(tail) / (beta * frequency))
        occupancy = 1.0 / math.expm1(beta * frequency)
    reach = 4.0 * abs(coupling) * COUPLING_BRIDGE / frequency
    spread = math.sqrt(2.0 * occupancy + 1.0)
    n_displacement = math.ceil(reach**2 * spread**2 + 8.0 * reach * spread)
    return n_thermal + n_displacement + 12


def exact_dephasing_single_mode(
    coupling, frequency: float, beta: float, n_max: int, rho: QubitState, t: float
) -> QubitState:
    """Evolve rho (x) rho_thermal under the displaced-oscillator Hamiltonian
    (truncated at ``n_max`` quanta) and trace out the mode.

    ``coupling`` uses the channel-facing normalization of
    :func:`qchan.dephasing.gamma_discrete` (see ``COUPLING_BRIDGE``), so the
    coherence magnitude equals exp(-Gamma(t)) of the discrete sum.
    """
    w = float(frequency)
    if not w > 0:
        raise DomainError(f"mode frequency must be > 0, got {w}")
    if not beta > 0:
        raise DomainError(f"beta must be > 0 (or inf), got {beta}")
    n_max = int(n_max)
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    if not math.isinf(beta):
        tail = math.exp(-beta * w * (n_max + 1))
        if tail >= 1e-12:
            raise DomainError(
                f"thermal tail weight {tail:.2e} at n_max={n_max} is above 1e-12"
            )
    kappa = complex(coupling) * COUPLING_BRIDGE

    dim = n_max + 1
    lower = np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)
    number = lower.conj().T @ lower
    drive = kappa * lower.conj().T + np.conj(kappa) * lower
    offset = (abs(kappa) ** 2 / w) * np.eye(dim)
    block_up = w * number + drive + offset  # sigma3 = +1 sector (|0>)
    block_down = w * number - drive + offset  # sigma3 = -1 sector (|1>)

    if math.isinf(beta):
        weights = np.zeros(dim)
        weights[0] = 1.0
    else:
        weights = np.exp(-beta * w * np.arange(dim))
        weights /= weights.sum()
    thermal = np.diag(weights).astype(complex)

    hamiltonian = np.zeros((2 * dim, 2 * dim), dtype=complex)
    hamiltonian[:dim, :dim] = block_up
    hamiltonian[dim:, dim:] = block_down
    joint = np.kron(rho.matrix, thermal)
    evolved = _evolve_density(hamiltonian, joint, float(t))
    reduced = np.trace(evolved.reshape(2, dim, 2, dim), axis1=1, axis2=3)
    return QubitState(reduced)


def unitary_noise_conjugation(sample: NoiseSample, coupling, t, rho: QubitState) -> QubitState:
    """Exact conjugation rho -> exp(-i g t xi.sigma) rho exp(+i g t xi.sigma),
    with the 2x2 exponential taken by Hermitian eigendecomposition."""
    xi = sample.as_array()
    generator = float(coupling) * float(t) * sum(x * s for x, s in zip(xi, PAULIS))
    energies, basis = np.linalg.eigh(generator)
    unitary = (basis * np.exp(-1j * energies)) @ basis.conj().T
    return QubitState(unitary @ rho.matrix @ unitary.conj().T)
