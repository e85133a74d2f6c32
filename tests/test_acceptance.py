"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines stream.
"""

import math
import time
from fractions import Fraction

import numpy as np

from qchan import (
    AmplitudeKernelSpec,
    BlochVector,
    CosineSumProcess,
    FixedCoupling,
    GaussianCoupling,
    IsotropicGaussianNoise,
    LorentzianCoupling,
    MarkovKind,
    OhmicExpDensity,
    TimeSeries,
    WhiteNoiseProcess,
    apply_kraus,
    bloch_factor,
    classify,
    degeneracy,
    depolarize_direct,
    depolarize_pauli,
    gamma_classical,
    gamma_continuum,
    gamma_discrete,
    kraus_amplitude_damping,
    kraus_depolarizing,
    kraus_phase_damping,
    kraus_phase_damping_alt,
    monte_carlo_coherence,
    monte_carlo_polarization,
    polarization_factor,
    rate_from_series,
    solve_amplitude,
    state_from_bloch,
)
from qchan.channels import completeness_residual
from qchan.dephasing import DiscreteBosonBath
from qchan.exact import exact_single_excitation, exact_spin_bath
from qchan.rates import (
    MEANING_BLOCH_FACTOR,
    MEANING_DAMPING_GAMMA,
    MEANING_DEPHASING_GAMMA,
    MEANING_PROBABILITY,
)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} {name}: {verdict}{suffix}")


def test_criterion_1_fig1_classical_depolarizing():
    start = time.perf_counter()
    noise = IsotropicGaussianNoise(1.0, 1.0)
    grid = np.linspace(0.0, 4.0, 400)
    estimate = monte_carlo_polarization(noise, grid, 10_000, seed=42)
    expected = polarization_factor(noise, grid)
    inside = np.abs(estimate.mean - expected) <= 4.0 * np.maximum(estimate.stderr, 1e-300)
    fraction = float(np.mean(inside))
    elapsed = time.perf_counter() - start
    ok = fraction >= 0.99 and elapsed <= 10.0
    report(1, "fig1-classical-depolarizing", ok,
           f"{fraction:.1%} within 4 se, {elapsed:.2f}s")
    assert fraction >= 0.99
    assert elapsed <= 10.0


def test_criterion_2_spin_bath_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    state = state_from_bloch(BlochVector(0.31, -0.45, 0.53))
    s_in = state.bloch().as_array()
    worst_factor = 0.0
    worst_isotropy = 0.0
    for twice_l in (1, 2, 3, 4, 6, 8):
        spin = Fraction(twice_l, 2)
        for g in rng.uniform(0.3, 2.5, 3):
            times = rng.uniform(0.0, 12.0, 50)
            for t in times:
                s_out = exact_spin_bath(spin, g, state, t).bloch().as_array()
                oracle_factor = float(s_out @ s_in) / float(s_in @ s_in)
                analytic = bloch_factor(FixedCoupling(spin, g), float(t))
                worst_factor = max(worst_factor, abs(analytic - oracle_factor))
                worst_isotropy = max(
                    worst_isotropy, float(np.max(np.abs(s_out - oracle_factor * s_in)))
                )
    elapsed = time.perf_counter() - start
    ok = worst_factor <= 1e-10 and worst_isotropy <= 1e-10 and elapsed <= 5.0
    report(2, "spin-bath-oracle-equivalence", ok,
           f"max |dF| {worst_factor:.2e}, isotropy {worst_isotropy:.2e}, {elapsed:.2f}s")
    assert worst_factor <= 1e-10
    assert worst_isotropy <= 1e-10
    assert elapsed <= 5.0


def test_criterion_3_degeneracy_identity():
    ok = True
    for n in range(1, 21):
        total = 0
        l = Fraction(n, 2)
        while l >= 0:
            total += degeneracy(n, l) * int(2 * l + 1)
            l -= 1
        if total != 2**n:
            ok = False
    report(3, "degeneracy-identity", ok, "N = 1..20 exact")
    assert ok


def test_criterion_4_cptp_and_representation_equivalence(random_state):
    worst_residual = 0.0
    for build in (kraus_depolarizing, kraus_amplitude_damping,
                  kraus_phase_damping, kraus_phase_damping_alt):
        for p in np.linspace(0.0, 1.0, 11):
            worst_residual = max(worst_residual, completeness_residual(build(p).operators))

    rng = np.random.default_rng(12)
    worst_pd = 0.0
    worst_depol = 0.0
    for _ in range(1000):
        rho = random_state()
        p = float(rng.uniform())
        a = apply_kraus(kraus_phase_damping(p), rho)
        b = apply_kraus(kraus_phase_damping_alt(p), rho)
        worst_pd = max(worst_pd, float(np.max(np.abs(a.matrix - b.matrix))))
        c = depolarize_direct(rho, p)
        d = depolarize_pauli(rho, 0.75 * p)
        worst_depol = max(worst_depol, float(np.max(np.abs(c.matrix - d.matrix))))

    ok = worst_residual <= 1e-12 and worst_pd <= 1e-12 and worst_depol <= 1e-12
    report(4, "cptp-and-representations", ok,
           f"residual {worst_residual:.2e}, PD gap {worst_pd:.2e}, depol gap {worst_depol:.2e}")
    assert worst_residual <= 1e-12
    assert worst_pd <= 1e-12
    assert worst_depol <= 1e-12


def _verdict(times, values, meaning):
    return classify(rate_from_series(TimeSeries(times, values, meaning)))


def test_criterion_5_markovianity_verdicts():
    gamma0 = 0.8
    cases = {}

    def check(tag, fn, meaning, t_max, n, expected):
        ok = True
        details = []
        for points in (n, 2 * n - 1):  # grid halving: h -> h/2
            t = np.linspace(0.0, t_max, points)
            verdict = _verdict(t, fn(t), meaning)
            details.append(verdict)
            if verdict.kind is not expected:
                ok = False
        cases[tag] = (ok, details[0])
        return details[0]

    v = check("a", lambda t: 1.0 - np.exp(-gamma0 * t), MEANING_PROBABILITY,
              3.0, 1501, MarkovKind.CONSTANT_RATE)
    rate_ok = v.rate is not None and abs(v.rate - gamma0) <= 1e-8 * gamma0
    cases["a"] = (cases["a"][0] and rate_ok, v)

    check("b", lambda t: bloch_factor(GaussianCoupling(1, 0.0, 1.0), t),
          MEANING_BLOCH_FACTOR, 6.0, 1201, MarkovKind.TIME_DEPENDENT_MARKOVIAN)
    check("c", lambda t: bloch_factor(LorentzianCoupling(1, 0.8), t),
          MEANING_BLOCH_FACTOR, 20.0, 1201, MarkovKind.TIME_DEPENDENT_MARKOVIAN)
    check("d", lambda t: bloch_factor(FixedCoupling(0.5, 1.0), t),
          MEANING_BLOCH_FACTOR, 12.0, 1201, MarkovKind.NON_MARKOVIAN)

    omega = 0.8
    bath = DiscreteBosonBath(((1.2, omega),), beta=math.inf)
    v = check("e", lambda t: gamma_discrete(bath, t), MEANING_DEPHASING_GAMMA,
              3 * 2 * math.pi / omega, 1801, MarkovKind.NON_MARKOVIAN)
    cases["e"] = (cases["e"][0] and len(v.negative_intervals) >= 3, v)

    v = check("f", lambda t: gamma_classical(WhiteNoiseProcess(1.0), 1.0, t),
              MEANING_DEPHASING_GAMMA, 5.0, 1001, MarkovKind.CONSTANT_RATE)
    cases["f"] = (cases["f"][0] and abs(v.rate - 2.0) <= 1e-8, v)

    check("g", lambda t: polarization_factor(IsotropicGaussianNoise(1.0, 1.0), t),
          MEANING_BLOCH_FACTOR, 4.0, 1201, MarkovKind.NON_MARKOVIAN)

    def damping_gamma(t):
        sol = solve_amplitude(AmplitudeKernelSpec(1.0, ((1.0, 1.0),)), float(t[-1]), t.size - 1)
        return sol.gamma

    check("h", damping_gamma, MEANING_DAMPING_GAMMA, 3.0, 1501, MarkovKind.NON_MARKOVIAN)

    ok = all(flag for flag, _ in cases.values())
    summary = ", ".join(f"{tag}:{'ok' if flag else 'BAD'}" for tag, (flag, _) in sorted(cases.items()))
    report(5, "markovianity-verdicts", ok, summary)
    assert ok, summary


def test_criterion_6_fig2_dephasing():
    bath = DiscreteBosonBath(((1.0, 0.5),), beta=math.inf)  # weight 4 at omega = 1/(2 tau)
    p_peak = 1.0 - math.exp(-gamma_discrete(bath, 2.0 * math.pi))
    peak_ok = abs(p_peak - (1.0 - math.exp(-2.0))) <= 1e-6
    grid = np.linspace(0.0, 25.0, 2501)
    grid_ok = np.max(1.0 - np.exp(-gamma_discrete(bath, grid))) <= p_peak + 1e-12

    density = OhmicExpDensity(8.0 * math.pi, 1.0)
    quad_worst = 0.0
    for t in (0.5, 1.0, 2.0, 5.0, 10.0, 25.0):
        got = gamma_continuum(density, math.inf, t, tol=1e-8)
        quad_worst = max(quad_worst, abs(got - t * t / (1.0 + t * t)))
    quad_ok = quad_worst <= 1e-6

    thermal_ok = all(
        gamma_continuum(density, 1.0, t) > gamma_continuum(density, math.inf, t)
        for t in (5.0, 10.0, 25.0)
    )

    ok = peak_ok and grid_ok and quad_ok and thermal_ok
    report(6, "fig2-dephasing", ok,
           f"p_max err {abs(p_peak - (1 - math.exp(-2))):.1e}, quad err {quad_worst:.1e}, "
           f"thermal dominance {thermal_ok}")
    assert peak_ok and grid_ok
    assert quad_ok
    assert thermal_ok


def test_criterion_7_amplitude_damping_solver(rng, memory_kernel_march):
    # resonant single mode at h g <= 0.01 (h g = 1e-3 here)
    spec = AmplitudeKernelSpec(1.0, ((1.0, 1.0),))
    sol = solve_amplitude(spec, math.pi, 3142)
    resonant_err = float(
        np.max(np.abs(sol.ratio - np.exp(-1j * sol.times) * np.cos(sol.times)))
    )
    resonant_ok = sol.step * 1.0 <= 0.01 and resonant_err <= 1e-12

    couplings = rng.uniform(0.05, 0.2, 20) * np.exp(1j * rng.uniform(0, 2 * np.pi, 20))
    freqs = rng.uniform(0.5, 1.5, 20)
    many = AmplitudeKernelSpec(1.0, tuple(zip(couplings, freqs)))
    sol20 = solve_amplitude(many, 10.0, 5000)
    oracle = exact_single_excitation(many, sol20.times)
    mode_err = float(np.max(np.abs(sol20.ratio - oracle)))
    mode_ok = mode_err <= 1e-12

    # the independent memory-kernel march converges to cos(g t) at second order
    errors = []
    for steps in (200, 400, 800):
        u = memory_kernel_march(spec, math.pi, steps)
        errors.append(np.max(np.abs(u - np.cos(np.linspace(0.0, math.pi, steps + 1)))))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    order = float(np.mean(orders))
    order_ok = abs(order - 2.0) <= 0.3

    ok = resonant_ok and mode_ok and order_ok
    report(7, "amplitude-damping-solver", ok,
           f"resonant err {resonant_err:.1e}, 20-mode err {mode_err:.1e}, march order {order:.2f}")
    assert resonant_ok
    assert mode_ok
    assert order_ok


def test_criterion_8_classical_dephasing_monte_carlo():
    process = CosineSumProcess(((1.0, 1.0),))
    coupling = 1.0
    grid = np.linspace(0.0, 2.0 * math.pi, 400)
    estimate = monte_carlo_coherence(process, coupling, grid, 10_000, seed=13)
    expected = np.exp(-4.0 * coupling**2 * (1.0 - np.cos(grid)))
    inside = np.abs(estimate.mean.real - expected) <= 4.0 * np.maximum(
        estimate.stderr_real, 1e-300
    )
    fraction = float(np.mean(inside))
    ok = fraction >= 0.99
    report(8, "classical-dephasing-monte-carlo", ok, f"{fraction:.1%} within 4 se")
    assert ok
