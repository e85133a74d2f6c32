import math
from fractions import Fraction

import numpy as np
import pytest

from qchan import (
    AmplitudeKernelSpec,
    BlochVector,
    DiscreteBosonBath,
    NoiseSample,
    ResourceError,
    gamma_discrete,
    state_from_bloch,
)
from qchan.exact import (
    COUPLING_BRIDGE,
    MODE_CAP,
    exact_dephasing_single_mode,
    exact_single_excitation,
    exact_spin_bath,
    spin_operators,
    thermal_cutoff,
    unitary_noise_conjugation,
    _evolve_density,
)
from qchan.states import PAULIS


def test_spin_half_operators_are_half_paulis():
    ops = spin_operators(0.5)
    for built, pauli in zip((ops.sx, ops.sy, ops.sz), PAULIS):
        assert np.allclose(built, 0.5 * pauli, atol=1e-15)


@pytest.mark.parametrize("spin", [0.5, 1, 1.5, 3, 7.5])
def test_spin_operator_invariants(spin):
    ops = spin_operators(spin)  # constructor checks [Sx,Sy]=iSz and S^2
    l = float(Fraction(ops.spin))
    assert np.allclose(ops.squared, l * (l + 1) * np.eye(ops.sx.shape[0]), atol=1e-12)


def test_joint_spectrum_is_two_level():
    # coupled-basis energies are g l/2 and -g (l+1)/2
    for spin, g in ((0.5, 1.0), (2, 0.7), (4, 1.9)):
        ops = spin_operators(spin)
        h = g * sum(np.kron(0.5 * p, s) for p, s in zip(PAULIS, (ops.sx, ops.sy, ops.sz)))
        levels = np.unique(np.round(np.linalg.eigvalsh(h), 10))
        l = float(Fraction(ops.spin))
        assert levels == pytest.approx([-g * (l + 1) / 2.0, g * l / 2.0], abs=1e-12)


def test_spin_bath_identity_at_zero_time(random_state):
    rho = random_state()
    out = exact_spin_bath(1.5, 1.1, rho, 0.0)
    assert np.max(np.abs(out.matrix - rho.matrix)) <= 1e-12


def test_spin_bath_half_spin_node():
    rho = state_from_bloch(BlochVector(0.0, 0.0, 1.0))
    out = exact_spin_bath(0.5, 1.0, rho, math.pi)
    assert out.bloch().s3 == pytest.approx(0.0, abs=1e-12)


def test_spin_bath_dimension_cap():
    rho = state_from_bloch(BlochVector(0.0, 0.0, 1.0))
    with pytest.raises(ResourceError):
        exact_spin_bath(26, 1.0, rho, 1.0)


def test_propagation_is_unitary(rng):
    dim = 12
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (h + h.conj().T)
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    vec /= np.linalg.norm(vec)
    pure = np.outer(vec, vec.conj())
    evolved = _evolve_density(h, pure, 2.7)
    purity = np.trace(evolved @ evolved).real
    assert purity == pytest.approx(1.0, abs=1e-10)
    assert np.trace(evolved).real == pytest.approx(1.0, abs=1e-12)


def test_single_excitation_free_and_resonant():
    free = AmplitudeKernelSpec(1.7, ((0.0, 1.0),))
    t = np.linspace(0.0, 6.0, 25)
    assert np.max(np.abs(exact_single_excitation(free, t) - np.exp(-1.7j * t))) <= 1e-12
    resonant = AmplitudeKernelSpec(1.0, ((0.8, 1.0),))
    expected = np.exp(-1j * t) * np.cos(0.8 * t)
    assert np.max(np.abs(exact_single_excitation(resonant, t) - expected)) <= 1e-12


def test_single_excitation_cap_fails_before_diagonalizing(monkeypatch):
    def no_eigh(*args, **kwargs):
        raise AssertionError("diagonalized above the mode cap")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    spec = AmplitudeKernelSpec(1.0, ((0.01, 1.0),) * (MODE_CAP + 1))
    with pytest.raises(ResourceError):
        exact_single_excitation(spec, np.array([0.0, 1.0]))


def test_single_excitation_norm_conserved(rng):
    couplings = rng.uniform(0.1, 0.4, 6)
    freqs = rng.uniform(0.5, 2.0, 6)
    spec = AmplitudeKernelSpec(1.0, tuple(zip(couplings, freqs)))
    # rebuild the block to propagate the full vector and check unitarity
    block = np.diag(np.concatenate([[spec.frequency], freqs])).astype(complex)
    block[0, 1:] = couplings
    block[1:, 0] = couplings
    energies, basis = np.linalg.eigh(block)
    start = np.zeros(7, dtype=complex)
    start[0] = 1.0
    for t in (0.7, 3.1, 9.4):
        vec = basis @ (np.exp(-1j * energies * t) * (basis.conj().T @ start))
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-10)
        alpha = exact_single_excitation(spec, np.array([t]))[0]
        assert alpha == pytest.approx(vec[0], abs=1e-12)


def test_dephasing_mode_matches_discrete_sum():
    rho = state_from_bloch(BlochVector(1.0, 0.0, 0.0))
    for beta in (math.inf, 2.0):
        for c, w in ((0.8, 1.0), (2.0, 0.5)):
            bath = DiscreteBosonBath(((c, w),), beta=beta)
            for t in (0.9, 4.0, 11.0):
                out = exact_dephasing_single_mode(c, w, beta, rho, t)
                coherence = 2.0 * abs(out.matrix[0, 1])
                assert coherence == pytest.approx(
                    math.exp(-gamma_discrete(bath, t)), abs=1e-8
                )


def test_dephasing_mode_keeps_populations():
    rho = state_from_bloch(BlochVector(0.6, 0.0, 0.5))
    out = exact_dephasing_single_mode(1.0, 1.0, 2.0, rho, 3.0)
    assert np.allclose(np.diag(out.matrix), np.diag(rho.matrix), atol=1e-12)


def test_dephasing_mode_vacuum_periodicity():
    rho = state_from_bloch(BlochVector(1.0, 0.0, 0.0))
    w = 0.7
    period = 2.0 * math.pi / w
    values = []
    for t in (1.3, 1.3 + period):
        out = exact_dephasing_single_mode(1.1, w, math.inf, rho, t)
        values.append(2.0 * abs(out.matrix[0, 1]))
    assert values[0] == pytest.approx(values[1], abs=1e-10)


def test_dephasing_fig2_dotted_peak():
    # caption parameters: weight 4 at omega = 1/(2 tau) -> coherence e^{-2} at t = 2 pi
    rho = state_from_bloch(BlochVector(1.0, 0.0, 0.0))
    out = exact_dephasing_single_mode(1.0, 0.5, math.inf, rho, 2.0 * math.pi)
    assert 2.0 * abs(out.matrix[0, 1]) == pytest.approx(math.exp(-2.0), abs=1e-10)


def _joint_dephasing_single_mode(coupling, w, beta, n_max, rho, t):
    """The reduced state from the whole 2 (n_max + 1)-row Hamiltonian and the
    dense joint state rho (x) thermal: the reference for the sigma3 blocks."""
    kappa = complex(coupling) * COUPLING_BRIDGE
    dim = n_max + 1
    lower = np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)
    number = lower.conj().T @ lower
    drive = kappa * lower.conj().T + np.conj(kappa) * lower
    offset = (abs(kappa) ** 2 / w) * np.eye(dim)
    hamiltonian = np.zeros((2 * dim, 2 * dim), dtype=complex)
    hamiltonian[:dim, :dim] = w * number + drive + offset
    hamiltonian[dim:, dim:] = w * number - drive + offset
    if math.isinf(beta):
        weights = np.eye(dim)[0]
    else:
        weights = np.exp(-beta * w * np.arange(dim))
    joint = np.kron(rho.matrix, np.diag(weights / weights.sum()))
    evolved = _evolve_density(hamiltonian, joint, t)
    return np.trace(evolved.reshape(2, dim, 2, dim), axis1=1, axis2=3)


@pytest.mark.parametrize("beta", [math.inf, 2.0, 0.7])
def test_dephasing_mode_blocks_match_the_joint_evolution(random_state, beta):
    for c, w in ((0.8, 1.0), (0.8 * np.exp(0.4j), 1.0), (2.0, 0.5), (0.3 + 0.4j, 1.3), (5.0, 2.0)):
        n_max = thermal_cutoff(beta, w, coupling=c)
        for t in (0.0, 0.9, 4.0, 11.0, 37.5):
            rho = random_state()
            out = exact_dephasing_single_mode(c, w, beta, rho, t)
            reference = _joint_dephasing_single_mode(c, w, beta, n_max, rho, t)
            assert np.max(np.abs(out.matrix - reference)) <= 1e-12, (c, w, t)


def test_dephasing_truncation_guard():
    assert thermal_cutoff(0.5, 1.0) >= 56


def test_noise_conjugation_examples():
    plus = state_from_bloch(BlochVector(1.0, 0.0, 0.0))
    same = unitary_noise_conjugation(NoiseSample(0.0, 0.0, 0.0), 1.0, 2.0, plus)
    assert np.max(np.abs(same.matrix - plus.matrix)) <= 1e-14
    aligned = unitary_noise_conjugation(NoiseSample(1.0, 0.0, 0.0), 1.0, 2.0, plus)
    assert np.allclose(aligned.bloch().as_array(), [1.0, 0.0, 0.0], atol=1e-12)
    quarter = unitary_noise_conjugation(NoiseSample(0.0, 0.0, 1.0), 1.0, math.pi / 4.0, plus)
    assert np.allclose(quarter.bloch().as_array(), [0.0, 1.0, 0.0], atol=1e-12)
