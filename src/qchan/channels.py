"""Kraus representations of the canonical one-qubit noise channels.

All channels act on :class:`~qchan.states.QubitState` via the operator sum
rho -> sum_i E_i rho E_i^dag with sum_i E_i^dag E_i = I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._common import finite
from .errors import ContractViolationError, DomainError
from .states import IDENTITY, SIGMA_1, SIGMA_2, SIGMA_3, QubitState

CHANNEL_DEPOLARIZING = "D"
CHANNEL_AMPLITUDE_DAMPING = "AD"
CHANNEL_PHASE_DAMPING = "PD"
CHANNEL_PHASE_DAMPING_ALT = "PD-alt"

GENERATOR_SIGMA3_HALF = "sigma3-half"
GENERATOR_EXCITED_PROJECTOR = "excited-projector"

COMPLETENESS_TOL = 1e-12
# Probabilities coming out of upstream numerics may overshoot [0, 1] by
# roundoff; anything within this slack is clamped, larger violations raise.
PROBABILITY_SLACK = 1e-9


def _clamped_probability(p, upper: float = 1.0) -> float:
    p = finite("probability", p)
    if p < -PROBABILITY_SLACK or p > upper + PROBABILITY_SLACK:
        raise DomainError(f"probability {p} outside [0, {upper}]")
    return min(max(p, 0.0), upper)


def completeness_residual(operators) -> float:
    """Max-abs entry of sum(E^dag E) - I."""
    acc = np.zeros((2, 2), dtype=complex)
    for op in operators:
        acc += op.conj().T @ op
    return float(np.max(np.abs(acc - IDENTITY)))


@dataclass(frozen=True, eq=False)
class KrausSet:
    """An ordered, completeness-checked set of 2x2 Kraus operators.

    Attributes
    ----------
    operators : tuple of np.ndarray
        The Kraus operators, in the fixed order of the defining equations
        (so serialized output is deterministic).
    channel : str
        One of ``"D"``, ``"AD"``, ``"PD"``, ``"PD-alt"``.
    p : float
        The channel parameter the set was built from.
    """

    operators: tuple
    channel: str
    p: float

    def __post_init__(self):
        ops = tuple(np.array(op, dtype=complex) for op in self.operators)
        for op in ops:
            if op.shape != (2, 2):
                raise ContractViolationError(f"Kraus operator must be 2x2, got {op.shape}")
            if not np.all(np.isfinite(op.view(float))):
                raise ContractViolationError("Kraus operator has non-finite entries")
        residual = completeness_residual(ops)
        if residual > COMPLETENESS_TOL:
            raise ContractViolationError(
                f"Kraus set violates probability conservation (residual {residual:.3e})"
            )
        for op in ops:
            op.flags.writeable = False
        object.__setattr__(self, "operators", ops)


@dataclass(frozen=True)
class PhaseDressing:
    """Accumulated unitary phase applied on top of a damping channel.

    ``generator`` selects the Hermitian generator of the phase:
    ``"sigma3-half"`` (dephasing family) or ``"excited-projector"``
    (amplitude-damping family).
    """

    omega: float
    generator: str

    def __post_init__(self):
        object.__setattr__(self, "omega", finite("accumulated phase", self.omega))
        if self.generator not in (GENERATOR_SIGMA3_HALF, GENERATOR_EXCITED_PROJECTOR):
            raise DomainError(f"unknown phase generator {self.generator!r}")

    def unitary(self) -> np.ndarray:
        if self.generator == GENERATOR_SIGMA3_HALF:
            return np.diag([np.exp(-0.5j * self.omega), np.exp(0.5j * self.omega)])
        return np.diag([1.0, np.exp(-1j * self.omega)])


def kraus_depolarizing(p) -> KrausSet:
    """Depolarizing channel: {sqrt(1-3p/4) I, (sqrt(p)/2) sigma_i}."""
    p = _clamped_probability(p)
    scale = 0.5 * np.sqrt(p)
    ops = (
        np.sqrt(1.0 - 0.75 * p) * IDENTITY,
        scale * SIGMA_1,
        scale * SIGMA_2,
        scale * SIGMA_3,
    )
    return KrausSet(ops, CHANNEL_DEPOLARIZING, p)


def kraus_amplitude_damping(p) -> KrausSet:
    """Amplitude damping: |1> decays to |0> with probability p."""
    p = _clamped_probability(p)
    e0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=complex)
    e1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex)
    return KrausSet((e0, e1), CHANNEL_AMPLITUDE_DAMPING, p)


def kraus_phase_damping(p) -> KrausSet:
    """Phase damping, three-operator form: {sqrt(1-p) I, sqrt(p)|0><0|, sqrt(p)|1><1|}."""
    p = _clamped_probability(p)
    ops = (
        np.sqrt(1.0 - p) * IDENTITY,
        np.array([[np.sqrt(p), 0.0], [0.0, 0.0]], dtype=complex),
        np.array([[0.0, 0.0], [0.0, np.sqrt(p)]], dtype=complex),
    )
    return KrausSet(ops, CHANNEL_PHASE_DAMPING, p)


def kraus_phase_damping_alt(p) -> KrausSet:
    """Phase damping, two-operator form: {sqrt(1-p/2) I, sqrt(p/2) sigma_3}.

    Acts identically to :func:`kraus_phase_damping` on every state.
    """
    p = _clamped_probability(p)
    ops = (np.sqrt(1.0 - 0.5 * p) * IDENTITY, np.sqrt(0.5 * p) * SIGMA_3)
    return KrausSet(ops, CHANNEL_PHASE_DAMPING_ALT, p)


def apply_kraus(kraus: KrausSet, rho: QubitState) -> QubitState:
    """Apply the operator sum rho -> sum_i E_i rho E_i^dag."""
    residual = completeness_residual(kraus.operators)
    if residual > COMPLETENESS_TOL:
        raise ContractViolationError(
            f"refusing to apply incomplete Kraus set (residual {residual:.3e})"
        )
    m = rho.matrix
    out = np.zeros((2, 2), dtype=complex)
    for op in kraus.operators:
        out += op @ m @ op.conj().T
    return QubitState(out)


def depolarize_direct(rho: QubitState, p) -> QubitState:
    """rho -> p I/2 + (1-p) rho."""
    p = _clamped_probability(p)
    return QubitState(0.5 * p * IDENTITY + (1.0 - p) * rho.matrix)


def depolarize_pauli(rho: QubitState, p_tilde) -> QubitState:
    """rho -> (p~/3) sum_i sigma_i rho sigma_i + (1-p~) rho, with p~ <= 3/4.

    Identical to ``depolarize_direct(rho, p)`` under p~ = 3p/4.
    """
    p_tilde = _clamped_probability(p_tilde, upper=0.75)
    m = rho.matrix
    mixed = sum(s @ m @ s for s in (SIGMA_1, SIGMA_2, SIGMA_3))
    return QubitState((p_tilde / 3.0) * mixed + (1.0 - p_tilde) * m)


_DRESSABLE = {
    GENERATOR_SIGMA3_HALF: (CHANNEL_PHASE_DAMPING, CHANNEL_PHASE_DAMPING_ALT),
    GENERATOR_EXCITED_PROJECTOR: (CHANNEL_AMPLITUDE_DAMPING,),
}


def dress_with_phase(kraus: KrausSet, dressing: PhaseDressing) -> KrausSet:
    """Left-multiply every Kraus operator by the dressing unitary.

    Completeness is preserved exactly; the channel family must match the
    generator (``sigma3-half`` for PD/PD-alt, ``excited-projector`` for AD).
    """
    if kraus.channel not in _DRESSABLE[dressing.generator]:
        raise ContractViolationError(
            f"generator {dressing.generator!r} cannot dress a {kraus.channel!r} channel"
        )
    u = dressing.unitary()
    return KrausSet(tuple(u @ op for op in kraus.operators), kraus.channel, kraus.p)
