"""The benchmark workloads: their CLI commands, the inputs generated from the
workload seed, and an independent reference for every output.

Why these four (each stresses a different layer, and each layer change has a
workload that bypasses it, where the prediction is "no change"):

* ``mc``: ``reproduce fig1 --mc`` and ``dephasing-classical --mc``.  The random
  draws (``_rng``) and the two Monte Carlo kernels do nearly all the work;
  quadrature and the memory-kernel march are unused.
* ``quad``: ``reproduce fig2`` plus Ohmic dephasing at beta = 0.1 and a
  tabulated spectral density at beta = 1.  Adaptive quadrature dominates; the
  tabulated part keeps quadrature measured once the Ohmic path has a closed
  form.
* ``march``: ``amp-damping`` with one mode (20001 steps) and three modes
  (10001 steps).  The O(N^2) march dominates; about a quarter of the time is
  the CSV writer.
* ``closed-io``: closed-form spin-bath and classical-field models at 20001
  points, then ``analyze`` on each output.  The CSV writer and reader
  dominate; the closed forms and the Markovianity classifier are cheap.

The registered benchmark (BENCHMARK.json) runs them in two pairs, ``mc-quad``
and ``march-io``.  On a shared 2-core VM the host's speed drifts by 20-50% over
seconds to minutes with almost no steal time.  Times are therefore taken
relative to a reference computation run beside the commands (see
``bench/run.py``), and a run still measures for ~50 s, which the run budget
allows for two workloads, not four.
Each pair still has one side that a given layer change bypasses: sampling and
quadrature changes show in ``mc-quad`` only, march and spin-bath changes in
``march-io`` only, and the CSV writer mostly in ``march-io``.

A reference never calls the code path it checks: closed forms are written out
here, the Ohmic exponent uses the digamma series, the tabulated exponent uses
``scipy.integrate.quad_vec``, and the amplitude uses the exact
single-excitation block from ``qchan.exact`` (brute-force diagonalization).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.integrate import quad_vec
from scipy.special import psi

WORKLOADS = ("mc", "quad", "march", "closed-io")
PAIRS = {"mc-quad": ("mc", "quad"), "march-io": ("march", "closed-io")}

# Monte Carlo means must sit within this many reported standard errors of the
# analytic value.  400 + 2 x 201 strongly correlated points per pass make a
# spurious 5-sigma excursion negligible.
MC_SIGMAS = 5.0
# Requested quadrature tolerance on Gamma(t) (the CLI default ``--tol``).
QUAD_TOL = 1e-8
# Closed forms evaluated two ways agree to rounding.
CLOSED_TOL = 1e-12
# The second-order march against the exact single-excitation block at
# h = 5e-4 (one mode) and 1e-3 (three modes); a first-order scheme misses by
# ~1e-3.
MARCH_TOL = 1e-5

VERDICT_TD_MARKOVIAN = "time-dependent-markovian"
VERDICT_NON_MARKOVIAN = "non-markovian"


@dataclass(frozen=True)
class Check:
    """One checked quantity: worst |output - reference| / tolerance over its
    points (``ratio``; NaN for a verdict), and whether it passed."""

    label: str
    ratio: float
    ok: bool
    where: str = ""


@dataclass(frozen=True)
class Command:
    """One CLI invocation, the files it writes (names inside the output
    directory) and the check of its outputs.  ``check(files, stdout)`` gets
    the parsed columns of each output file and the captured stdout."""

    argv: tuple
    outputs: tuple
    check: object


def read_csv(path) -> dict:
    """Columns of a qchan CSV file: floats, except ``flags`` (strings)."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    cols = list(zip(*(ln.split(",") for ln in lines[1:])))
    return {
        name: list(col) if name == "flags" else np.array(col, dtype=float)
        for name, col in zip(header, cols)
    }


def compare(label, got, ref, tol, times) -> Check:
    got = np.asarray(got, dtype=float)
    ref = np.broadcast_to(np.asarray(ref, dtype=float), got.shape)
    tol = np.broadcast_to(np.asarray(tol, dtype=float), got.shape)
    if got.shape != np.shape(times) or not np.all(np.isfinite(got)):
        return Check(label, math.inf, False, "missing or non-finite values")
    ratio = np.abs(got - ref) / tol
    worst = int(np.argmax(ratio))
    value = float(ratio[worst])
    return Check(label, value, value <= 1.0, f"t={times[worst]:.6g}")


def verdict(label, stdout: str, expected: str) -> Check:
    first = stdout.splitlines()[0] if stdout else ""
    got = first.removeprefix("classification: ").strip()
    return Check(label, math.nan, got == expected, f"got {got!r}, expected {expected!r}")


def _out(directory: Path, name: str) -> str:
    return str(directory / name)


# ------------------------------------------------------------------------ mc

FIG1_FILE = "fig1_polarization_factor.csv"
COSINE = ((1.0, 1.0), (0.5, 2.0))  # (sigma_i, omega_i) of the cosine process


def _polarization(t, g=1.0, sigma=1.0):
    """Classical-field factor f(t) and rate -f'/f, g = sigma = 1 in fig1."""
    gs2 = (g * sigma) ** 2
    u = 2.0 * gs2 * t**2
    f = (1.0 + 2.0 * (1.0 - 2.0 * u) * np.exp(-u)) / 3.0
    df = (2.0 / 3.0) * np.exp(-u) * (2.0 * u - 3.0) * 4.0 * gs2 * t
    return f, -df / f


def _check_fig1(files, _stdout):
    c = files[FIG1_FILE]
    t = c["t"]
    f, rate = _polarization(t)
    return [
        compare("fig1 f", c["f_or_coherence"], f, CLOSED_TOL, t),
        compare("fig1 p", c["p"], 1.0 - f, CLOSED_TOL, t),
        compare("fig1 gamma", c["gamma"], rate, 1e-10 * (1.0 + np.abs(rate)), t),
        compare("fig1 mc_f", c["mc_f"], f, MC_SIGMAS * c["mc_se"] + CLOSED_TOL, t),
    ]


def _check_cosine(files, _stdout):
    c = files["dephasing_classical.csv"]
    t = c["t"]
    gamma = sum(4.0 * s**2 * (1.0 - np.cos(w * t)) / w**2 for s, w in COSINE)
    rate = sum(4.0 * s**2 * np.sin(w * t) / w for s, w in COSINE)
    coherence = np.exp(-gamma)
    # 4th-order stencils at h = 0.05: truncation <= h^4 max|Gamma^(5)| / 5 ~ 1.5e-5
    rate_tol = 1e-4
    return [
        compare("cosine coherence", c["f_or_coherence"], coherence, CLOSED_TOL, t),
        compare("cosine gamma", c["gamma"], rate, rate_tol, t),
        compare("cosine mc_re", c["mc_re"], coherence, MC_SIGMAS * c["mc_se_re"] + CLOSED_TOL, t),
        compare("cosine mc_im", c["mc_im"], 0.0, MC_SIGMAS * c["mc_se_im"] + CLOSED_TOL, t),
    ]


def _mc(seed: int, inputs: Path, out: Path):
    fig1_seed, cosine_seed = (int(x) for x in np.random.default_rng(seed).integers(0, 2**63, 2))
    cosine = ",".join(f"{s:g}:{w:g}" for s, w in COSINE)
    return [
        Command(
            ("reproduce", "fig1", "--mc", "10000", "--seed", str(fig1_seed), "--out-dir", str(out)),
            (FIG1_FILE,),
            _check_fig1,
        ),
        Command(
            ("dephasing-classical", "--cosine", cosine, "--t-max", "10", "--steps", "201",
             "--mc", "10000", "--seed", str(cosine_seed),
             "--out", _out(out, "dephasing_classical.csv")),
            ("dephasing_classical.csv",),
            _check_cosine,
        ),
    ]


# ---------------------------------------------------------------------- quad

OHMIC_AMPLITUDE = 8.0 * math.pi  # fig2: J(w) = 8 pi w exp(-w tau), tau = 1
TABLE_RANGE = (0.0, 20.0)
TABLE_KNOTS = 1001


def ohmic_gamma(t, amplitude, tau, beta):
    """Exact Ohmic exponent from coth(x) = 1 + 2 sum_n exp(-2 n x):

    Gamma = (A/8pi) [t^2/(tau(tau^2+t^2)) + (2/beta) Re(psi(1+(tau+it)/beta) - psi(1+tau/beta))].
    """
    value = t**2 / (tau * (tau**2 + t**2))
    if math.isfinite(beta):
        value = value + (2.0 / beta) * np.real(psi(1.0 + (tau + 1j * t) / beta) - psi(1.0 + tau / beta))
    return amplitude / (8.0 * math.pi) * value


def spectral_table(seed: int):
    """Seeded smooth spectral density on 1001 knots: an Ohmic envelope with
    three Gaussian bumps; nonnegative and zero at w = 0."""
    rng = np.random.default_rng([seed, 1])
    w = np.linspace(*TABLE_RANGE, TABLE_KNOTS)
    cutoff = rng.uniform(2.0, 4.0)
    shape = np.full_like(w, rng.uniform(1.0, 3.0))
    for _ in range(3):
        height, centre, width = rng.uniform(0.0, 2.0), rng.uniform(1.0, 10.0), rng.uniform(0.3, 1.5)
        shape += height * np.exp(-((w - centre) ** 2) / (2.0 * width**2))
    return w, w * np.exp(-w / cutoff) * shape


def tabulated_gamma(knots, values, beta, t):
    """Gamma(t) of the linear interpolant by scipy's adaptive quad_vec, split
    at every knot.  Returns (values, error estimate)."""

    def integrand(w):
        if w <= 0.0:
            return np.zeros_like(t)  # the integrand vanishes like w as w -> 0
        j = np.interp(w, knots, values)
        return j / w * 2.0 * np.sin(0.5 * w * t) ** 2 / math.tanh(0.5 * beta * w) / (8.0 * math.pi)

    value, err = quad_vec(
        integrand, knots[0], knots[-1], epsabs=1e-11, epsrel=0.0,
        points=knots[1:-1], norm="max", limit=100000,
    )
    return value, float(err)


def _dephasing_check(name, reference):
    """Check Gamma = -ln(coherence) of output ``name`` against ``reference(t)``
    returning (values, extra tolerance)."""

    def check(files, _stdout):
        c = files[name]
        t = c["t"]
        ref, ref_err = reference(t)
        return [compare(f"{name} Gamma", -np.log(c["f_or_coherence"]), ref, QUAD_TOL + ref_err, t)]

    return check


def _quad(seed: int, inputs: Path, out: Path):
    knots, values = spectral_table(seed)
    table = inputs / "spectral_table.txt"
    np.savetxt(table, np.column_stack([knots, values]), fmt="%.17g", header="omega J")
    cache = {}

    def table_reference(t):
        if "table" not in cache:  # quad_vec over 1000 segments: build once per run
            cache["table"] = tabulated_gamma(knots, values, 1.0, t)
        return cache["table"]

    def fig2(files, stdout):
        single = files["fig2_single_mode.csv"]
        t = single["t"]
        # weight 4 at omega = 1/2: Gamma = 1 - cos(t/2)
        checks = [compare("fig2 single-mode Gamma", -np.log(single["f_or_coherence"]),
                          1.0 - np.cos(0.5 * t), CLOSED_TOL, t)]
        for tag, beta in (("zero_temperature", math.inf), ("beta_tau", 1.0)):
            name = f"fig2_ohmic_{tag}.csv"
            checks += _dephasing_check(
                name, lambda tt, b=beta: (ohmic_gamma(tt, OHMIC_AMPLITUDE, 1.0, b), 0.0)
            )(files, stdout)
        return checks

    grid = ("--t-max", "25", "--steps", "251")
    return [
        Command(
            ("reproduce", "fig2", "--out-dir", str(out)),
            ("fig2_single_mode.csv", "fig2_ohmic_zero_temperature.csv", "fig2_ohmic_beta_tau.csv"),
            fig2,
        ),
        Command(
            ("dephasing-quantum", "--ohmic-amplitude", repr(OHMIC_AMPLITUDE), "--cutoff", "1",
             "--beta", "0.1", *grid, "--out", _out(out, "ohmic_beta_0.1.csv")),
            ("ohmic_beta_0.1.csv",),
            _dephasing_check(
                "ohmic_beta_0.1.csv", lambda t: (ohmic_gamma(t, OHMIC_AMPLITUDE, 1.0, 0.1), 0.0)
            ),
        ),
        Command(
            ("dephasing-quantum", "--spectral-file", str(table), "--beta", "1", *grid,
             "--out", _out(out, "tabulated_beta_1.csv")),
            ("tabulated_beta_1.csv",),
            _dephasing_check("tabulated_beta_1.csv", table_reference),
        ),
    ]


# --------------------------------------------------------------------- march

MARCH_CASES = (
    ("amp_damping_1mode.csv", ((1.0, 1.0),), 20001),
    ("amp_damping_3modes.csv", ((1.0, 1.0), (0.5, 1.5), (0.3, 0.7)), 10001),
)


def _march_check(name, modes):
    from qchan.damping import AmplitudeKernelSpec
    from qchan.exact import exact_single_excitation

    def check(files, _stdout):
        c = files[name]
        t = c["t"]
        amplitude = np.abs(exact_single_excitation(AmplitudeKernelSpec(1.0, modes), t))
        return [
            compare(f"{name} coherence", c["f_or_coherence"], amplitude, MARCH_TOL, t),
            compare(f"{name} p", c["p"], 1.0 - amplitude**2, 2.0 * MARCH_TOL, t),
        ]

    return check


def _march(seed: int, inputs: Path, out: Path):
    commands = []
    for name, modes, steps in MARCH_CASES:
        argv = ["amp-damping", "--steps", str(steps), "--out", _out(out, name)]
        if len(modes) > 1:
            argv[1:1] = ["--modes", ",".join(f"{c:g}:{w:g}" for c, w in modes)]
        commands.append(Command(tuple(argv), (name,), _march_check(name, modes)))
    return commands


# ----------------------------------------------------------------- closed-io

def _sector(l: Fraction):
    """(a, b, d, kappa) of the sharp-coupling factor (a + b cos(kappa g t)) / d."""
    return 4 * l * l + 4 * l + 3, 8 * l * (l + 1), 3 * (2 * l + 1) ** 2, (2 * l + 1) / 2


def _mixture(spin, phi, t):
    """Factor and slope of one spin sector averaged over the coupling
    distribution with characteristic function ``phi(s) -> (phi, phi')``."""
    a, b, d, kappa = (float(x) for x in _sector(Fraction(spin)))
    value, slope = phi(kappa * t)
    return (a + b * value) / d, b * kappa * slope / d


def _gaussian(sigma):
    def phi(s):
        e = np.exp(-0.5 * sigma**2 * s**2)
        return e, -sigma**2 * s * e

    return phi


def _lorentzian(half_width):
    def phi(s):
        e = np.exp(-half_width * s)
        return e, -half_width * e

    return phi


def _uniform(lo, hi):
    def phi(s):
        safe = np.where(s == 0.0, 1.0, s)
        value = np.where(s == 0.0, 1.0, (np.sin(hi * safe) - np.sin(lo * safe)) / ((hi - lo) * safe))
        slope = np.where(
            s == 0.0, 0.0,
            (hi * np.cos(hi * safe) - lo * np.cos(lo * safe)) / ((hi - lo) * safe) - value / safe,
        )
        return value, slope

    return phi


def _spin_star(n, g, t):
    """Mixture of sharp sectors l = N/2, N/2 - 1, ... weighted by the share of
    bath states, (2l+1) (C(N, N/2-l) - C(N, N/2-l-1)) / 2^N."""
    f = np.zeros_like(t)
    df = np.zeros_like(t)
    for k in range(n // 2 + 1):
        l = Fraction(n, 2) - k
        weight = (2 * l + 1) * (math.comb(n, k) - (math.comb(n, k - 1) if k else 0)) / 2**n
        a, b, d, kappa = (float(x) for x in _sector(l))
        f += float(weight) * (a + b * np.cos(kappa * g * t)) / d
        df -= float(weight) * b * kappa * g * np.sin(kappa * g * t) / d
    return f, df


# (spin, coupling, time) points where the sharp-sector formula above is held
# against the brute-force joint evolution of qchan.exact.
ANCHOR_POINTS = ((Fraction(1, 2), 1.0, 0.7), (Fraction(1), 0.8, 2.3),
                 (Fraction(3, 2), 0.3, 5.0), (Fraction(20), 1.0, 1.1))


def _anchor_sharp_sector():
    from qchan.exact import exact_spin_bath
    from qchan.states import BlochVector, state_from_bloch

    up = state_from_bloch(BlochVector(0.0, 0.0, 1.0))
    worst = 0.0
    for l, g, t in ANCHOR_POINTS:
        a, b, d, kappa = (float(x) for x in _sector(l))
        formula = (a + b * math.cos(kappa * g * t)) / d
        exact = exact_spin_bath(l, g, up, t).bloch().as_array()[2]
        worst = max(worst, abs(formula - exact) / 1e-10)
    return Check("sharp-sector anchor vs exact", worst, worst <= 1.0)


SPINBATH_CASES = (
    ("gaussian", ("--l", "1", "--G", "0", "--sigma", "1"),
     lambda t: _mixture(1, _gaussian(1.0), t), VERDICT_TD_MARKOVIAN),
    ("lorentzian", ("--l", "1", "--a", "0.8"),
     lambda t: _mixture(1, _lorentzian(0.8), t), VERDICT_TD_MARKOVIAN),
    ("uniform", ("--l", "1", "--g-lo", "0.5", "--g-hi", "1.5"),
     lambda t: _mixture(1, _uniform(0.5, 1.5), t), VERDICT_NON_MARKOVIAN),
    ("spin-star", ("--N", "40", "--g", "1"),
     lambda t: _spin_star(40, 1.0, t), VERDICT_NON_MARKOVIAN),
)


def _factor_check(name, reference, anchor):
    def check(files, _stdout):
        c = files[name]
        t = c["t"]
        f, df = reference(t)
        gamma = c["gamma"]
        live = np.isfinite(gamma)
        rate = -df[live] / f[live]
        checks = [
            compare(f"{name} f", c["f_or_coherence"], f, CLOSED_TOL, t),
            compare(f"{name} p", c["p"], 1.0 - f, CLOSED_TOL, t),
            compare(f"{name} gamma", gamma[live], rate, 1e-9 * (1.0 + np.abs(rate)), t[live]),
        ]
        if not np.array_equal(live, f > 1e-12):
            checks.append(Check(f"{name} pole flags", math.nan, False, "rate defined where f <= 1e-12"))
        if anchor is not None:
            checks.append(anchor())
        return checks

    return check


def _closed_io(seed: int, inputs: Path, out: Path):
    anchored = {}

    def anchor():
        if "check" not in anchored:
            anchored["check"] = _anchor_sharp_sector()
        return anchored["check"]

    grid = ("--t-max", "10", "--steps", "20001")
    commands, analyses = [], []
    for ensemble, flags, reference, expected in SPINBATH_CASES:
        name = f"spinbath_{ensemble}.csv"
        commands.append(Command(
            ("depol-spinbath", "--ensemble", ensemble, *flags, *grid, "--out", _out(out, name)),
            (name,),
            _factor_check(name, reference, anchor),
        ))
        analyses.append((name, expected))
    commands.append(Command(
        ("depol-classical", "--g", "1", "--sigma", "1", "--t-max", "4", "--steps", "20001",
         "--out", _out(out, "classical.csv")),
        ("classical.csv",),
        _factor_check("classical.csv", _classical_factor, None),
    ))
    analyses.append(("classical.csv", VERDICT_NON_MARKOVIAN))
    for name, expected in analyses:
        commands.append(Command(
            ("analyze", _out(out, name), "--col", "f"),
            (),
            lambda files, stdout, n=name, e=expected: [verdict(f"analyze {n}", stdout, e)],
        ))
    return commands


def _classical_factor(t):
    f, rate = _polarization(t)
    return f, -rate * f


BUILDERS = {"mc": _mc, "quad": _quad, "march": _march, "closed-io": _closed_io}


def build(name: str, seed: int, inputs: Path, out: Path) -> list:
    """Commands of workload or pair ``name``; generated inputs are written to
    ``inputs``.  The workloads' file names do not collide."""
    return [cmd for part in PAIRS.get(name, (name,)) for cmd in BUILDERS[part](seed, inputs, out)]
