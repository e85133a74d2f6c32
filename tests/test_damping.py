import math

import numpy as np
import pytest

from qchan import (
    AmplitudeKernelSpec,
    AmplitudeSolution,
    BlochVector,
    DomainError,
    ResourceError,
    ad_channel_at,
    excited_population,
    population,
    solve_amplitude,
    state_from_bloch,
)
from qchan.damping import MODE_CAP, _solve_with_slope
from qchan.exact import exact_single_excitation

RESONANT = AmplitudeKernelSpec(1.0, ((1.0, 1.0),))


def test_kernel_closed_form():
    spec = AmplitudeKernelSpec(1.0, ((0.5, 1.2), (0.25j, 0.7)))
    lags = np.array([0.0, 0.9, 3.1])
    expected = 0.25 * np.exp(-1.2j * lags) + 0.0625 * np.exp(-0.7j * lags)
    assert np.allclose(spec.kernel(lags), expected, atol=1e-15)
    assert spec.kernel(0.0) == pytest.approx(0.25 + 0.0625)


def test_zero_coupling_is_free_evolution():
    spec = AmplitudeKernelSpec(2.0, ((0.0, 1.0),))
    sol = solve_amplitude(spec, 5.0, 500)
    assert np.max(np.abs(sol.ratio - np.exp(-2.0j * sol.times))) <= 1e-12
    assert np.max(np.abs(sol.gamma)) <= 1e-12
    assert np.max(np.abs(sol.phase - 2.0 * sol.times)) <= 1e-12


def test_resonant_mode_closed_form():
    sol = solve_amplitude(RESONANT, math.pi, 3200)
    expected = np.exp(-1j * sol.times) * np.cos(sol.times)
    assert np.max(np.abs(sol.ratio - expected)) <= 1e-12
    # p(t) = sin^2(gt) away from the revival pole
    live = ~sol.capped
    p = 1.0 - np.exp(-sol.gamma[live])
    assert np.max(np.abs(p - np.sin(sol.times[live]) ** 2)) <= 1e-12


@pytest.mark.parametrize("n_modes", [1, 5, 20])
def test_rate_matches_exact_block_derivative(rng, n_modes):
    # Gamma' = -2 d ln|alpha|/dt by a central difference of the brute-force
    # block, whose error is ~h^2 times the third derivative plus eps/h
    couplings = rng.uniform(0.05, 0.5, n_modes) * np.exp(1j * rng.uniform(0, 2 * np.pi, n_modes))
    spec = AmplitudeKernelSpec(1.0, tuple(zip(couplings, rng.uniform(0.5, 1.5, n_modes))))
    times = np.linspace(0.0, 10.0, 201)
    slope = _solve_with_slope(spec, times)[-1]
    h = 1e-6
    ahead, behind = (np.abs(exact_single_excitation(spec, times + d)) for d in (h, -h))
    central = -(np.log(ahead) - np.log(behind)) / h
    assert np.all(np.abs(slope[1:] - central[1:]) <= 1e-7 * (1.0 + np.abs(central[1:])))
    assert slope[0] == 0.0


def test_resonant_phase_tracks_qubit_frequency():
    # Omega = omega t away from the cosine zero; across the zero it picks up pi
    sol = solve_amplitude(RESONANT, 1.2, 1200)   # g t < pi/2, no crossing
    assert np.max(np.abs(sol.phase - sol.times)) <= 1e-6


def test_phase_unwrap_continuity():
    sol = solve_amplitude(RESONANT, 3.0, 3000)
    assert np.max(np.abs(np.diff(sol.phase))) < math.pi


@pytest.mark.parametrize("n_modes", [1, 5, 20])
def test_mode_lists_match_exact_block(rng, n_modes):
    couplings = rng.uniform(0.05, 0.2, n_modes) * np.exp(
        1j * rng.uniform(0, 2 * np.pi, n_modes)
    )
    freqs = rng.uniform(0.5, 1.5, n_modes)
    spec = AmplitudeKernelSpec(1.0, tuple(zip(couplings, freqs)))
    sol = solve_amplitude(spec, 10.0, 5000)
    expected = exact_single_excitation(spec, sol.times)
    assert np.max(np.abs(sol.ratio - expected)) <= 1e-12


def test_solves_memory_kernel_equation(rng, memory_kernel_march):
    # the modal sum against a direct march of the integro-differential equation
    couplings = rng.uniform(0.05, 0.2, 20) * np.exp(1j * rng.uniform(0, 2 * np.pi, 20))
    freqs = rng.uniform(0.5, 1.5, 20)
    spec = AmplitudeKernelSpec(1.0, tuple(zip(couplings, freqs)))
    sol = solve_amplitude(spec, 10.0, 5000)
    u = memory_kernel_march(spec, 10.0, 5000)
    assert np.max(np.abs(sol.ratio - np.exp(-1j * sol.times) * u)) <= 1e-6


def test_second_order_convergence(memory_kernel_march):
    # the reference march converges at second order to u(t) = cos(g t)
    errors = []
    steps_list = (200, 400, 800)
    for steps in steps_list:
        u = memory_kernel_march(RESONANT, math.pi, steps)
        errors.append(np.max(np.abs(u - np.cos(np.linspace(0.0, math.pi, steps + 1)))))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for order in orders:
        assert order == pytest.approx(2.0, abs=0.3)


def test_amplitude_never_grows():
    sol = solve_amplitude(RESONANT, 4.0 * math.pi, 4000)
    assert np.max(np.abs(sol.ratio)) <= 1.0 + 1e-9
    assert np.min(sol.gamma) >= -1e-9


def test_population_and_revival():
    # resonant case: full revival at g t = pi (Gamma back to ~0)
    steps = 3142
    sol = solve_amplitude(RESONANT, math.pi, steps)
    assert population(sol, 0, 0.8) == pytest.approx(0.64, abs=1e-12)
    assert population(sol, steps, 0.8) == pytest.approx(0.64, abs=1e-4)
    series = excited_population(sol, 1.0)
    assert np.allclose(series.values, np.exp(-sol.gamma), atol=1e-12)
    assert np.all(series.values <= 1.0 + 1e-9)
    # identity mu = |alpha0|^2 e^{-Gamma} at an arbitrary index
    k = 1234
    assert population(sol, k, 0.5) == pytest.approx(0.25 * math.exp(-sol.gamma[k]), rel=1e-12)


def test_population_drains_at_quarter_period():
    # near g t = pi/2 the excited population is ~ h^2
    steps = 3142
    sol = solve_amplitude(RESONANT, math.pi, steps)
    idx = int(round(0.5 * math.pi / sol.step))
    assert population(sol, idx, 1.0) <= 1e-6


def test_channel_identity_at_start(random_state):
    sol = solve_amplitude(RESONANT, 1.0, 100)
    rho = random_state()
    assert np.max(np.abs(ad_channel_at(sol, 0, rho).matrix - rho.matrix)) <= 1e-12


def test_channel_matches_direct_construction(random_state):
    spec = AmplitudeKernelSpec(1.3, ((0.4, 1.0), (0.3, 1.7)))
    sol = solve_amplitude(spec, 6.0, 2000)
    for index in (150, 700, 1999):
        gamma = sol.gamma[index]
        phase = sol.phase[index]
        for _ in range(20):
            rho = random_state()
            got = ad_channel_at(sol, index, rho)
            m = rho.matrix
            rho11 = m[1, 1].real * math.exp(-gamma)
            coherence = m[1, 0] * math.exp(-0.5 * gamma) * np.exp(-1j * phase)
            direct = np.array(
                [[1.0 - rho11, np.conj(coherence)], [coherence, rho11]], dtype=complex
            )
            assert np.max(np.abs(got.matrix - direct)) <= 1e-10


def test_channel_reproduces_evolved_joint_state():
    # the dressed Kraus channel must reproduce the exact single-excitation
    # evolution of a superposition state, coherence phase included
    spec = AmplitudeKernelSpec(0.9, ((0.5, 0.9),))
    sol = solve_amplitude(spec, 2.0, 2000)
    a0, b0 = 0.6, 0.8  # alpha |1> + beta |0>
    rho0 = np.array([[b0 * b0, b0 * a0], [a0 * b0, a0 * a0]], dtype=complex)
    for index in (500, 1500):
        alpha_t = a0 * exact_single_excitation(spec, sol.times[index : index + 1])[0]
        expected = np.array(
            [
                [1.0 - abs(alpha_t) ** 2, np.conj(alpha_t) * b0],
                [alpha_t * b0, abs(alpha_t) ** 2],
            ],
            dtype=complex,
        )
        from qchan import QubitState

        got = ad_channel_at(sol, index, QubitState(rho0))
        assert np.max(np.abs(got.matrix - expected)) <= 1e-6


def test_channel_outputs_remain_states(random_state):
    sol = solve_amplitude(RESONANT, 2.5, 2500)
    rng = np.random.default_rng(17)
    for _ in range(1000):
        rho = random_state()
        out = ad_channel_at(sol, int(rng.integers(0, 2501)), rho)
        assert abs(out.matrix.trace() - 1.0) <= 1e-10
        assert out.min_eigenvalue() >= -1e-10


def test_channel_rejects_capped_samples():
    spec = AmplitudeKernelSpec(0.0, ((1.0, 0.0),))
    plus = state_from_bloch(BlochVector(1.0, 0.0, 0.0))
    # cos(g t) crosses zero at t = pi/2; an even step count samples the zero
    # itself, which is capped, and the channel there has no phase
    sol = solve_amplitude(spec, math.pi, 3142)
    assert np.flatnonzero(sol.capped).tolist() == [1571]
    with pytest.raises(DomainError):
        ad_channel_at(sol, 1571, plus)
    # with an odd count the nearest sample is within ~5e-4 of the zero,
    # staying above the floor -> no cap, no error
    sol = solve_amplitude(spec, math.pi, 3141)
    assert not np.any(sol.capped)
    ad_channel_at(sol, 3141 // 2, plus)


def test_validation():
    with pytest.raises(DomainError):
        AmplitudeKernelSpec(1.0, ())
    with pytest.raises(DomainError):
        solve_amplitude(RESONANT, -1.0, 100)
    with pytest.raises(DomainError):
        solve_amplitude(RESONANT, 1.0, 0)
    with pytest.raises(DomainError):
        solve_amplitude(RESONANT, math.inf, 100)
    with pytest.raises(DomainError):
        solve_amplitude(RESONANT, math.nan, 100)
    uneven = np.array([0.0, 1e-10, 5e-9, 6e-9, 9e-9])  # steps from 1e-10 to 4.9e-9
    with pytest.raises(DomainError):
        AmplitudeSolution(uneven, np.ones(5, complex), np.zeros(5), np.zeros(5), np.zeros(5, bool))
    assert solve_amplitude(RESONANT, 1.0, 1).times.size == 2
    sol = solve_amplitude(RESONANT, 1.0, 100)
    with pytest.raises(IndexError):
        population(sol, 101, 1.0)


def test_mode_cap_checked_before_diagonalizing(monkeypatch):
    class Diagonalized(Exception):
        pass

    def no_eigh(*args, **kwargs):
        raise Diagonalized

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    with pytest.raises(Diagonalized):
        solve_amplitude(AmplitudeKernelSpec(1.0, ((0.01, 1.0),) * MODE_CAP), 1.0, 10)
    with pytest.raises(ResourceError):
        solve_amplitude(AmplitudeKernelSpec(1.0, ((0.01, 1.0),) * (MODE_CAP + 1)), 1.0, 10)
