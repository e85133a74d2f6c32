"""Command-line front end: generate channel time series, run Monte Carlo
validations, classify Markovianity, and emit figure-reproduction datasets.

Output files are self-describing: ``#``-prefixed metadata lines echo the
full effective configuration, floats carry 17 significant digits (exact
round-trip), and identical (config, seed) pairs produce byte-identical
files.  Every CSV float reads exactly as ``'%.17g' % x``, whatever the CPU and
numpy build: numpy formats them from an error-free product of x and a power
of ten (``qchan._csv``).  Exit codes: 0 ok, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import sys

import numpy as np

from . import classical_field, damping, dephasing, exact, rates, spin_bath
from ._common import POLE_FLOOR
from ._csv import csv_rows
from .errors import DomainError, QChanError
from .states import BlochVector, state_from_bloch

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_BASE_COLUMNS = ("t", "f_or_coherence", "p", "gamma", "gamma_err", "flags")


def _fmt(value) -> str:
    return format(float(value), ".17g")


def _beta_value(text) -> float:
    if isinstance(text, (int, float)):
        beta = float(text)
    elif str(text).strip().lower() in ("inf", "infinity"):
        beta = math.inf
    else:
        try:
            beta = float(text)
        except ValueError as exc:
            raise DomainError(f"beta must be a number or 'inf', got {text!r}") from exc
    if not beta > 0:
        raise DomainError(f"beta must be > 0, got {beta}")
    return beta


def _parse_pairs(text, what: str):
    """Parse 'a:b[,a:b...]' into a tuple of float pairs."""
    pairs = []
    for chunk in str(text).split(","):
        parts = chunk.strip().split(":")
        if len(parts) != 2:
            raise DomainError(f"malformed {what} entry {chunk!r}; expected 'x:y'")
        try:
            pairs.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise DomainError(f"non-numeric {what} entry {chunk!r}") from exc
    return tuple(pairs)


def _parse_vector(text, what: str) -> np.ndarray:
    parts = str(text).split(",")
    if len(parts) != 3:
        raise DomainError(f"{what} must be three comma-separated numbers, got {text!r}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError as exc:
        raise DomainError(f"non-numeric {what} {text!r}") from exc


def _resolve_config(args: argparse.Namespace) -> dict:
    """Defaults, overridden by the JSON config file, overridden by flags.

    A config-file value for a numeric flag must be a number, or a string
    that the flag itself would accept.
    """
    defaults = args.defaults
    cfg = dict(defaults)
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise DomainError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DomainError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise DomainError(f"config file {path} must hold a JSON object")
        for key, value in data.items():
            norm = key.replace("-", "_")
            if norm not in defaults:
                raise DomainError(f"unknown config key {key!r} in {path}")
            kind = args.kinds.get(norm)
            unset = value is None and defaults[norm] is None
            if kind and not unset and not isinstance(value, (int, float)):
                try:
                    value = kind(value)
                except (TypeError, ValueError) as exc:
                    raise DomainError(
                        f"config key {key!r} in {path} must be a number, got {value!r}"
                    ) from exc
            cfg[norm] = value
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    if "t_max" in cfg and not 0 < float(cfg["t_max"]) < math.inf:
        raise DomainError(f"t-max must be finite and > 0, got {cfg['t_max']}")
    if "steps" in cfg and int(cfg["steps"]) < 5:
        raise DomainError(f"steps must be >= 5, got {cfg['steps']}")
    if "mc" in cfg and int(cfg["mc"]) < 0:
        raise DomainError(f"mc must be >= 0, got {cfg['mc']}")
    if "format" in cfg and cfg["format"] not in ("csv", "json"):
        raise DomainError(f"format must be csv or json, got {cfg['format']!r}")
    return cfg


def _grid(cfg: dict) -> np.ndarray:
    return np.linspace(0.0, float(cfg["t_max"]), int(cfg["steps"]))


def _config_echo(cfg: dict) -> str:
    clean = {}
    for key, value in sorted(cfg.items()):
        if isinstance(value, float) and math.isinf(value):
            clean[key] = "inf"
        else:
            clean[key] = value
    return json.dumps(clean, sort_keys=True)


def _write_output(command: str, cfg: dict, columns: dict) -> None:
    path = cfg["out"]
    if cfg["format"] == "json":
        payload = {"meta": {"command": command, "config": json.loads(_config_echo(cfg))}}
        payload["columns"] = {
            name: list(values) if name == "flags"
            else [None if v != v else v for v in np.asarray(values, dtype=float).tolist()]
            for name, values in columns.items()
        }
        chunks = [(json.dumps(payload, sort_keys=True, indent=1) + "\n").encode()]
    else:
        head = f"# qchan {command}\n# config = {_config_echo(cfg)}\n{','.join(columns)}\n"
        chunks = itertools.chain([head.encode()], csv_rows(columns))
    if path == "-":
        sys.stdout.write(b"".join(chunks).decode())
    else:
        # a 64 KiB buffer writes a small file, header and rows, in one call
        with open(path, "wb", buffering=1 << 16) as fh:
            fh.writelines(chunks)


def _columns(times, factor, slope, error=None, exponent=None, capped=None) -> dict:
    """The base columns from a model's value and its time derivative.

    Without ``exponent``, ``factor`` is a Bloch factor F and ``slope`` is F':
    p = 1 - F and gamma = -F'/F, flagged ``pole`` where F <= POLE_FLOOR.
    With a decoherence exponent Gamma, ``slope`` is Gamma' and is gamma
    itself, p = 1 - exp(-Gamma), and ``factor`` is the written coherence or
    amplitude; ``capped`` samples are flagged.  Flagged points get gamma NaN.
    ``error`` is gamma_err: the error estimate of the slope, 0 unless given.
    """
    if exponent is None:
        flagged = factor <= POLE_FLOOR
        p = 1.0 - factor
        gamma = -slope / np.where(flagged, 1.0, factor)
        flag = "pole"
    else:
        flagged = np.zeros(times.shape, dtype=bool) if capped is None else capped
        p = 1.0 - np.exp(-exponent)
        gamma = slope
        flag = "capped"
    gamma = np.where(flagged, np.nan, gamma)
    error = np.zeros_like(times) if error is None else error
    flags = [flag if bad else "" for bad in flagged]
    return dict(zip(_BASE_COLUMNS, (times, factor, p, gamma, error, flags)))


# ---------------------------------------------------------------- spin bath

_SPINBATH_DEFAULTS = {
    "ensemble": "fixed",
    "l": 0.5,
    "g": 1.0,
    "G": 0.0,
    "sigma": 1.0,
    "a": 1.0,
    "g_lo": 0.5,
    "g_hi": 1.5,
    "N": 2,
    "components": None,
    "t_max": 10.0,
    "steps": 201,
    "out": "depol_spinbath.csv",
    "format": "csv",
}


def _build_ensemble(cfg: dict):
    kind = cfg["ensemble"]
    if kind == "fixed":
        return spin_bath.FixedCoupling(cfg["l"], cfg["g"])
    if kind == "gaussian":
        return spin_bath.GaussianCoupling(cfg["l"], cfg["G"], cfg["sigma"])
    if kind == "lorentzian":
        return spin_bath.LorentzianCoupling(cfg["l"], cfg["a"])
    if kind == "uniform":
        return spin_bath.UniformCoupling(cfg["l"], cfg["g_lo"], cfg["g_hi"])
    if kind == "spin-star":
        return spin_bath.SpinStar(int(cfg["N"]), cfg["g"])
    if kind == "custom":
        raw = cfg["components"]
        if raw is None:
            raise DomainError("custom ensemble requires --components")
        try:
            data = json.loads(raw) if isinstance(raw, str) else raw
            rows = tuple((l, float(g), float(q)) for l, g, q in data)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"components must be [[l, g, weight], ...], got {raw!r}") from exc
        return spin_bath.CustomEnsemble(rows)
    raise DomainError(f"unknown ensemble {kind!r}")


def _run_depol_spinbath(cfg: dict, _args=None) -> None:
    ensemble = _build_ensemble(cfg)
    times = _grid(cfg)
    columns = _columns(times, *spin_bath._factor_and_slope(ensemble, times))
    _write_output("depol-spinbath", cfg, columns)


# ---------------------------------------------------------- classical field

_CLASSICAL_DEFAULTS = {
    "g": 1.0,
    "sigma": 1.0,
    "t_max": 4.0,
    "steps": 400,
    "mc": 0,
    "seed": 1234,
    "out": "depol_classical.csv",
    "format": "csv",
}


def _run_depol_classical(cfg: dict, _args=None) -> None:
    noise = classical_field.IsotropicGaussianNoise(cfg["g"], cfg["sigma"])
    times = _grid(cfg)
    factor, slope = classical_field._factor_and_slope(noise, times)
    columns = _columns(times, factor, slope)
    if int(cfg["mc"]) > 0:
        estimate = classical_field.monte_carlo_polarization(
            noise, times, int(cfg["mc"]), int(cfg["seed"])
        )
        columns["mc_f"] = estimate.mean
        columns["mc_se"] = estimate.stderr
        columns["diff"] = estimate.mean - factor
    _write_output("depol-classical", cfg, columns)


# --------------------------------------------------------- quantum dephasing

_DEPHASING_Q_DEFAULTS = {
    "single_mode": None,
    "omega": 0.5,
    "weight": 4.0,
    "modes": None,
    "ohmic_amplitude": None,
    "cutoff": 1.0,
    "spectral_file": None,
    "beta": "inf",
    "tol": 1e-8,
    "t_max": 25.0,
    "steps": 251,
    "out": "dephasing_quantum.csv",
    "format": "csv",
}


def _dephasing_exponent(cfg: dict, times: np.ndarray):
    """Gamma, Gamma' and the error estimate of Gamma' of the configured bath."""
    beta = _beta_value(cfg["beta"])
    sources = [
        cfg["single_mode"] is not None,
        cfg["modes"] is not None,
        cfg["ohmic_amplitude"] is not None,
        cfg["spectral_file"] is not None,
    ]
    if sum(sources) != 1:
        raise DomainError(
            "pick exactly one source: --single-mode, --modes, --ohmic-amplitude "
            "or --spectral-file"
        )
    if cfg["single_mode"] is not None:
        omega = float(cfg["omega"])
        weight = float(cfg["weight"])
        if not omega > 0 or not weight > 0:
            raise DomainError("single mode needs omega > 0 and weight > 0")
        # weight is the combined factor |c|^2 coth(beta omega/2) / omega^2
        coth = 1.0 if math.isinf(beta) else 1.0 / math.tanh(0.5 * beta * omega)
        coupling = omega * math.sqrt(weight / coth)
        bath = dephasing.DiscreteBosonBath(((coupling, omega),), beta)
        return (*dephasing._discrete_and_slope(bath, times), None)
    if cfg["modes"] is not None:
        bath = dephasing.DiscreteBosonBath(_parse_pairs(cfg["modes"], "mode"), beta)
        return (*dephasing._discrete_and_slope(bath, times), None)
    if cfg["spectral_file"] is not None:
        density = dephasing.load_tabulated(cfg["spectral_file"])
    else:
        density = dephasing.OhmicExpDensity(float(cfg["ohmic_amplitude"]), float(cfg["cutoff"]))
    tol = float(cfg["tol"])
    values, slope, error = dephasing._continuum_and_slope(density, beta, times, tol)
    # a value within quadrature tolerance of zero is zero, not a violation
    values[(values < 0.0) & (values >= -tol)] = 0.0
    return values, slope, error


def _run_dephasing_quantum(cfg: dict, _args=None) -> None:
    times = _grid(cfg)
    exponent, slope, error = _dephasing_exponent(cfg, times)
    # checks Gamma(0) = 0 and Gamma >= 0
    dephasing.DecoherenceFunction(times, exponent, "closed-form")
    columns = _columns(times, np.exp(-exponent), slope, error, exponent)
    _write_output("dephasing-quantum", cfg, columns)


# ------------------------------------------------------- classical dephasing

_DEPHASING_C_DEFAULTS = {
    "white_noise": None,
    "intensity": 1.0,
    "cosine": None,
    "g": 1.0,
    "t_max": 10.0,
    "steps": 201,
    "mc": 0,
    "seed": 1234,
    "out": "dephasing_classical.csv",
    "format": "csv",
}


def _run_dephasing_classical(cfg: dict, _args=None) -> None:
    if (cfg["white_noise"] is not None) == (cfg["cosine"] is not None):
        raise DomainError("pick exactly one of --white-noise or --cosine")
    if cfg["white_noise"] is not None:
        process = dephasing.WhiteNoiseProcess(float(cfg["intensity"]))
    else:
        process = dephasing.CosineSumProcess(_parse_pairs(cfg["cosine"], "cosine component"))
    coupling = float(cfg["g"])
    times = _grid(cfg)
    exponent, slope = dephasing._classical_and_slope(process, coupling, times)
    dephasing.DecoherenceFunction(times, exponent, "closed-form")
    columns = _columns(times, np.exp(-exponent), slope, exponent=exponent)
    if int(cfg["mc"]) > 0:
        if not isinstance(process, dephasing.CosineSumProcess):
            raise DomainError("Monte Carlo validation needs a cosine process")
        estimate = dephasing.monte_carlo_coherence(
            process, coupling, times, int(cfg["mc"]), int(cfg["seed"])
        )
        columns["mc_re"] = estimate.mean.real
        columns["mc_im"] = estimate.mean.imag
        columns["mc_se_re"] = estimate.stderr_real
        columns["mc_se_im"] = estimate.stderr_imag
    _write_output("dephasing-classical", cfg, columns)


# ----------------------------------------------------------- amplitude damping

_DAMPING_DEFAULTS = {
    "omega": 1.0,
    "g": 1.0,
    "modes": None,
    "t_max": 10.0,
    "steps": 2001,
    "out": "amp_damping.csv",
    "format": "csv",
}


def _run_amp_damping(cfg: dict, _args=None) -> None:
    omega = float(cfg["omega"])
    if cfg["modes"] is not None:
        modes = _parse_pairs(cfg["modes"], "mode")
    else:
        modes = ((float(cfg["g"]), omega),)  # resonant single mode
    spec = damping.AmplitudeKernelSpec(omega, modes)
    solution, slope = damping._solve_with_slope(spec, float(cfg["t_max"]), int(cfg["steps"]) - 1)
    columns = _columns(
        solution.times,
        np.exp(-0.5 * solution.gamma),
        slope,
        exponent=solution.gamma,
        capped=solution.capped,
    )
    columns["omega_phase"] = solution.phase
    _write_output("amp-damping", cfg, columns)


# ----------------------------------------------------------------- analyze

_ANALYZE_DEFAULTS = {
    "col": "f",
    "eps_abs": None,
    "eps_rel": rates.DEFAULT_EPS_REL,
    "out": None,
}

_COL_MEANINGS = {"f": rates.MEANING_BLOCH_FACTOR, "p": rates.MEANING_PROBABILITY}
_COL_NAMES = {"f": "f_or_coherence", "p": "p"}


# a comment or whitespace-only line, with the newline before it
_SKIPPED_LINE = re.compile(r"\n(?:#[^\n]*|[^\S\n]*)(?=\n|\Z)")


def read_series_csv(path: str, column: str) -> tuple[np.ndarray, np.ndarray]:
    """Read (t, column) from a qchan CSV file."""
    with open(path) as fh:
        # one pass drops the skipped lines; the leading newline exposes the
        # first line to it and splits off as an empty line
        lines = _SKIPPED_LINE.sub("", "\n" + fh.read()).split("\n")[1:]
    if len(lines) < 2:
        raise DomainError(f"{path} holds no data")
    header = lines[0].split(",")
    if "t" not in header or column not in header:
        raise DomainError(f"{path} lacks a 't' or {column!r} column (header: {header})")
    cols = (header.index("t"), header.index(column))
    try:
        data = np.loadtxt(lines[1:], delimiter=",", usecols=cols, comments=None, ndmin=2)
    except ValueError as exc:
        raise DomainError(f"{path}: malformed data: {exc}") from exc
    return data[:, 0], data[:, 1]


def _classification_report(verdict: rates.MarkovClass) -> dict:
    report = {"classification": verdict.kind.value}
    if verdict.rate is not None:
        report["rate"] = verdict.rate
    if verdict.negative_intervals:
        report["negative_intervals"] = [list(iv) for iv in verdict.negative_intervals]
    return report


def _run_analyze(cfg: dict, args: argparse.Namespace) -> None:
    if cfg["col"] not in _COL_MEANINGS:
        raise DomainError(f"--col must be one of {sorted(_COL_MEANINGS)}, got {cfg['col']!r}")
    times, values = read_series_csv(args.file, _COL_NAMES[cfg["col"]])
    series = rates.TimeSeries(times, values, _COL_MEANINGS[cfg["col"]])
    eps_abs = None if cfg["eps_abs"] is None else float(cfg["eps_abs"])
    verdict = rates.classify(rates.rate_from_series(series), eps_abs, float(cfg["eps_rel"]))
    report = _classification_report(verdict)
    print(f"classification: {report['classification']}")
    if "rate" in report:
        print(f"rate: {_fmt(report['rate'])}")
    if "negative_intervals" in report:
        pretty = ", ".join(f"[{_fmt(a)}, {_fmt(b)}]" for a, b in report["negative_intervals"])
        print(f"negative intervals: {pretty}")
    if cfg["out"]:
        with open(cfg["out"], "w", newline="\n") as fh:
            json.dump(report, fh, sort_keys=True, indent=1)
            fh.write("\n")


# ---------------------------------------------------------------- reproduce

_REPRODUCE_DEFAULTS = {
    "out_dir": ".",
    "mc": 10000,
    "seed": 42,
    "format": "csv",
}

_FIG2_OHMIC = {"ohmic_amplitude": 8.0 * math.pi, "cutoff": 1.0, "t_max": 25.0, "steps": 251}

# figure -> (runner, defaults, overrides, file stem) of each dataset it emits
_FIGURES = {
    "fig1": (
        (_run_depol_classical, _CLASSICAL_DEFAULTS,
         {"g": 1.0, "sigma": 1.0, "t_max": 4.0, "steps": 400}, "fig1_polarization_factor"),
    ),
    "fig2": (
        (_run_dephasing_quantum, _DEPHASING_Q_DEFAULTS,
         {"single_mode": True, "omega": 0.5, "weight": 4.0, "beta": "inf", "t_max": 25.0,
          "steps": 251}, "fig2_single_mode"),
        (_run_dephasing_quantum, _DEPHASING_Q_DEFAULTS,
         {**_FIG2_OHMIC, "beta": "inf"}, "fig2_ohmic_zero_temperature"),
        (_run_dephasing_quantum, _DEPHASING_Q_DEFAULTS,
         {**_FIG2_OHMIC, "beta": 1.0}, "fig2_ohmic_beta_tau"),
    ),
}


def _run_reproduce(cfg: dict, args: argparse.Namespace) -> None:
    out_dir = cfg["out_dir"].rstrip("/")
    fmt = cfg["format"]
    for runner, defaults, overrides, stem in _FIGURES[args.figure]:
        sub = {**defaults, **overrides, "format": fmt, "out": f"{out_dir}/{stem}.{fmt}"}
        # the Monte Carlo settings of ``reproduce`` reach the figures that sample
        sub.update({key: int(cfg[key]) for key in ("mc", "seed") if key in defaults})
        runner(sub)


# ------------------------------------------------------------------- oracle

def _run_oracle(_cfg: dict, args: argparse.Namespace) -> None:
    model = args.model
    if model == "spin-bath":
        bloch = _parse_vector(args.bloch, "--bloch")
        state = state_from_bloch(BlochVector.from_array(bloch))
        out = exact.exact_spin_bath(args.l, args.g, state, args.t)
        s_out = out.bloch().as_array()
        denom = float(bloch @ bloch)
        report = {
            "bloch_in": list(bloch),
            "bloch_out": [float(x) for x in s_out],
            "factor": float(s_out @ bloch / denom) if denom > 0 else None,
        }
    elif model == "single-excitation":
        modes = _parse_pairs(args.modes, "mode")
        spec = damping.AmplitudeKernelSpec(args.omega, modes)
        times = np.linspace(0.0, args.t_max, int(args.steps))
        alpha = exact.exact_single_excitation(spec, times)
        report = {
            "t": [float(x) for x in times],
            "alpha_re": [float(x) for x in alpha.real],
            "alpha_im": [float(x) for x in alpha.imag],
        }
    elif model == "dephasing-mode":
        beta = _beta_value(args.beta)
        n_max = exact.thermal_cutoff(beta, args.omega, coupling=args.c)
        state = state_from_bloch(BlochVector(1.0, 0.0, 0.0))
        out = exact.exact_dephasing_single_mode(args.c, args.omega, beta, n_max, state, args.t)
        bath = dephasing.DiscreteBosonBath(((args.c, args.omega),), beta)
        report = {
            "coherence_magnitude": float(2.0 * abs(out.matrix[0, 1])),
            "gamma_discrete": float(dephasing.gamma_discrete(bath, args.t)),
            "n_max": n_max,
        }
    elif model == "noise-rotation":
        xi = _parse_vector(args.xi, "--xi")
        bloch = _parse_vector(args.bloch, "--bloch")
        state = state_from_bloch(BlochVector.from_array(bloch))
        sample = classical_field.NoiseSample(*xi)
        out = exact.unitary_noise_conjugation(sample, args.g, args.t, state)
        report = {"bloch_out": [float(x) for x in out.bloch().as_array()]}
    else:
        raise DomainError(f"unknown oracle model {model!r}")
    print(json.dumps(report, sort_keys=True))


# -------------------------------------------------------------------- parser

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file mirroring the flag names")
    parser.add_argument("--t-max", dest="t_max", type=float)
    parser.add_argument("--steps", type=int)
    parser.add_argument("--out")
    parser.add_argument("--format", choices=["csv", "json"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qchan",
        description="Time-dependent one-qubit noise channels from microscopic models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("depol-spinbath", help="spin-bath depolarizing model")
    _add_common(p)
    p.add_argument(
        "--ensemble",
        choices=["fixed", "gaussian", "lorentzian", "uniform", "spin-star", "custom"],
    )
    p.add_argument("--l", type=float, help="bath spin quantum number (half-integer)")
    p.add_argument("--g", type=float, help="coupling constant (fixed/spin-star)")
    p.add_argument("--G", type=float, help="mean coupling (gaussian)")
    p.add_argument("--sigma", type=float, help="coupling std-dev (gaussian)")
    p.add_argument("--a", type=float, help="half-width (lorentzian)")
    p.add_argument("--g-lo", dest="g_lo", type=float)
    p.add_argument("--g-hi", dest="g_hi", type=float)
    p.add_argument("--N", type=int, help="environment size (spin-star)")
    p.add_argument("--components", help="custom ensemble JSON [[l, g, weight], ...]")
    p.set_defaults(defaults=_SPINBATH_DEFAULTS, runner=_run_depol_spinbath)

    p = sub.add_parser("depol-classical", help="classical random-field depolarizing model")
    _add_common(p)
    p.add_argument("--g", type=float, help="coupling frequency")
    p.add_argument("--sigma", type=float, help="field std-dev per component")
    p.add_argument("--mc", type=int, help="Monte Carlo realizations (0 = off)")
    p.add_argument("--seed", type=int)
    p.set_defaults(defaults=_CLASSICAL_DEFAULTS, runner=_run_depol_classical)

    p = sub.add_parser("dephasing-quantum", help="boson-bath dephasing model")
    _add_common(p)
    p.add_argument("--single-mode", dest="single_mode", action="store_true", default=None)
    p.add_argument("--omega", type=float, help="mode frequency (single mode)")
    p.add_argument(
        "--weight", type=float, help="combined factor |c|^2 coth(beta omega/2)/omega^2"
    )
    p.add_argument("--modes", help="explicit mode list 'c:omega[,c:omega...]'")
    p.add_argument(
        "--ohmic-amplitude", dest="ohmic_amplitude", type=float,
        help="amplitude A of J(w) = A w exp(-w tau)",
    )
    p.add_argument("--cutoff", type=float, help="cutoff time tau")
    p.add_argument("--spectral-file", dest="spectral_file", help="two-column (omega, J) file")
    p.add_argument("--beta", help="inverse temperature (time units) or 'inf'")
    p.add_argument("--tol", type=float, help="quadrature tolerance (--spectral-file)")
    p.set_defaults(defaults=_DEPHASING_Q_DEFAULTS, runner=_run_dephasing_quantum)

    p = sub.add_parser("dephasing-classical", help="classical stationary-noise dephasing")
    _add_common(p)
    p.add_argument("--white-noise", dest="white_noise", action="store_true", default=None)
    p.add_argument("--intensity", type=float, help="white-noise intensity sigma^2")
    p.add_argument("--cosine", help="cosine components 'sigma:omega[,sigma:omega...]'")
    p.add_argument("--g", type=float, help="coupling frequency")
    p.add_argument("--mc", type=int, help="Monte Carlo realizations (0 = off)")
    p.add_argument("--seed", type=int)
    p.set_defaults(defaults=_DEPHASING_C_DEFAULTS, runner=_run_dephasing_classical)

    p = sub.add_parser("amp-damping", help="boson-bath amplitude damping")
    _add_common(p)
    p.add_argument("--omega", type=float, help="qubit frequency")
    p.add_argument("--g", type=float, help="coupling of the default resonant mode")
    p.add_argument("--modes", help="explicit mode list 'c:omega[,c:omega...]'")
    p.set_defaults(defaults=_DAMPING_DEFAULTS, runner=_run_amp_damping)

    p = sub.add_parser("analyze", help="classify a time-series file")
    p.add_argument("file")
    p.add_argument("--config", help="JSON config file mirroring the flag names")
    p.add_argument("--col", choices=["f", "p"])
    p.add_argument("--eps-abs", dest="eps_abs", type=float)
    p.add_argument("--eps-rel", dest="eps_rel", type=float)
    p.add_argument("--out", help="optional JSON report path")
    p.set_defaults(defaults=_ANALYZE_DEFAULTS, runner=_run_analyze)

    p = sub.add_parser("reproduce", help="emit figure-reproduction datasets")
    p.add_argument("figure", choices=sorted(_FIGURES))
    p.add_argument("--config", help="JSON config file mirroring the flag names")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--mc", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--format", choices=["csv", "json"])
    p.set_defaults(defaults=_REPRODUCE_DEFAULTS, runner=_run_reproduce)

    p = sub.add_parser("oracle", help="query the brute-force reference simulators")
    p.add_argument(
        "--model",
        required=True,
        choices=["spin-bath", "single-excitation", "dephasing-mode", "noise-rotation"],
    )
    p.add_argument("--l", type=float, default=0.5)
    p.add_argument("--g", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--beta", default="inf")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--t-max", dest="t_max", type=float, default=10.0)
    p.add_argument("--steps", type=int, default=11)
    p.add_argument("--modes", default="1:1")
    p.add_argument("--xi", default="0,0,1")
    p.add_argument("--bloch", default="0,0,1")
    p.set_defaults(defaults={}, runner=_run_oracle)

    # config-file values for numeric flags are parsed like the flags
    for p in sub.choices.values():
        p.set_defaults(kinds={a.dest: a.type for a in p._actions if a.type in (int, float)})
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process (~1.6 ms a build); each parse
    returns a fresh namespace, and runners copy their defaults."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.runner(_resolve_config(args), args)
    except (DomainError, OSError) as exc:
        print(f"qchan: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QChanError as exc:
        print(f"qchan: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
