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
import os
import re
import sys
from typing import Callable, NamedTuple

import numpy as np

# each runner imports the model modules it uses, so that a command loads
# only its own; this module needs numpy, the errors, the pole and grid rules
from ._common import GRID_CAP, pole_rate, positive, time_grid
from .errors import AccuracyError, DomainError, QChanError, ResourceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_BASE_COLUMNS = ("t", "f_or_coherence", "p", "gamma", "gamma_err", "flags")


def _fmt(value) -> str:
    return format(float(value), ".17g")


def _beta_value(value) -> float:
    """An inverse temperature, parsed from its flag's text or its config
    value: a number or 'inf'."""
    try:
        beta = float(str(value))
    except ValueError as exc:
        raise DomainError(f"beta must be a number or 'inf', got {value!r}") from exc
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


def _grid(cfg: dict) -> np.ndarray:
    return time_grid(cfg["t_max"], cfg["steps"])


# the strings that stand for the non-finite floats json.dumps writes bare
_NON_FINITE = {"NaN": "nan", "Infinity": "inf", "-Infinity": "-inf"}


def _config_echo(cfg: dict) -> str:
    """The configuration as strict JSON: a non-finite float, also in a list
    or dict, is the string "inf", "-inf" or "nan"."""
    clean = json.loads(json.dumps(cfg), parse_constant=_NON_FINITE.get)
    return json.dumps(clean, sort_keys=True, allow_nan=False)


def _json_chunks(command: str, cfg: dict, columns: dict):
    """The bytes of ``json.dumps(payload, sort_keys=True, indent=1)`` for
    the payload {"columns": ..., "meta": ...}, with NaN cells as null, a
    slab of one column at a time: json's C encoder writes its cells (a
    float as its repr, +-inf as +-Infinity), and each bare NaN becomes null."""
    from ._csv import SLAB_ROWS

    yield b'{\n "columns": {'
    for index, name in enumerate(sorted(columns)):
        values = columns[name]
        if name == "flags":
            values = np.array(values[0])[values[1]]
        yield f'{"," if index else ""}\n  {json.dumps(name)}: ['.encode()
        for start in range(0, len(values), SLAB_ROWS):
            cells = json.dumps(values[start : start + SLAB_ROWS].tolist(), separators=(",\n   ", ""))
            if name != "flags":
                cells = cells.replace("NaN", "null")
            yield (("," if start else "") + "\n   " + cells[1:-1]).encode()
        yield b"\n  ]"
    meta = {"meta": {"command": command, "config": json.loads(_config_echo(cfg))}}
    # the meta entry, one level in: json.dumps without its outer braces
    yield f"\n }},\n{json.dumps(meta, sort_keys=True, indent=1)[2:]}\n".encode()


def _write_output(command: str, cfg: dict, columns: dict) -> None:
    path = cfg["out"]
    if cfg["format"] == "json":
        chunks = _json_chunks(command, cfg, columns)
    else:
        from ._csv import csv_rows

        head = f"# qchan {command}\n# config = {_config_echo(cfg)}\n{','.join(columns)}\n"
        chunks = itertools.chain([head.encode()], csv_rows(columns))
    if path == "-":
        for chunk in chunks:
            sys.stdout.write(chunk.decode())
    else:
        # a 64 KiB buffer writes a small file, header and rows, in one call
        with open(path, "wb", buffering=1 << 16) as fh:
            fh.writelines(chunks)


def _columns(times, factor, slope, error=None, exponent=None, capped=None) -> dict:
    """The base columns from a model's value and its time derivative.

    Without ``exponent``, ``factor`` is a Bloch factor F and ``slope`` is F':
    p = 1 - F and gamma = -F'/F, flagged ``pole`` at the poles of
    :func:`pole_rate`.
    With a decoherence exponent Gamma, ``slope`` is Gamma' and is gamma
    itself, p = 1 - exp(-Gamma), and ``factor`` is the written coherence or
    amplitude; ``capped`` samples are flagged.  Flagged points get gamma NaN.
    ``error`` is gamma_err: the error estimate of the slope, 0 unless given.
    ``flags`` is the pair (spellings, codes): row i reads spellings[codes[i]].
    A non-finite value at an unflagged point, where a model's scales
    overflow, raises :class:`AccuracyError` naming its column and first t.
    """
    if exponent is None:
        gamma, flagged = pole_rate(factor, slope)
        p = 1.0 - factor
        flag = "pole"
    else:
        flagged = np.zeros(times.shape, dtype=bool) if capped is None else capped
        p = 1.0 - np.exp(-exponent)
        gamma = np.where(flagged, np.nan, slope)
        flag = "capped"
    error = np.zeros_like(times) if error is None else error
    for name, values in zip(_BASE_COLUMNS[1:5], (factor, p, gamma, error)):
        bad = np.flatnonzero(~np.isfinite(values) & ~flagged)
        if bad.size:
            raise AccuracyError(f"{name} is {values[bad[0]]} at t = {_fmt(times[bad[0]])}: "
                                "the model's scales overflow float64")
    flags = (("", flag), flagged.astype(np.uint8))
    return dict(zip(_BASE_COLUMNS, (times, factor, p, gamma, error, flags)))


# ---------------------------------------------------------------- spin bath

def _build_ensemble(cfg: dict):
    from . import spin_bath

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
        return spin_bath.SpinStar(cfg["N"], cfg["g"])
    raw = cfg["components"]  # the custom ensemble
    if raw is None:
        raise DomainError("custom ensemble requires --components")
    try:
        data = json.loads(raw) if isinstance(raw, str) else raw
        rows = tuple((l, float(g), float(q)) for l, g, q in data)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"components must be [[l, g, weight], ...], got {raw!r}") from exc
    return spin_bath.CustomEnsemble(rows)


def _run_depol_spinbath(cfg: dict) -> None:
    from . import spin_bath

    ensemble = _build_ensemble(cfg)
    times = _grid(cfg)
    columns = _columns(times, *spin_bath._factor_and_slope(ensemble, times))
    _write_output("depol-spinbath", cfg, columns)


# ---------------------------------------------------------- classical field

def _run_depol_classical(cfg: dict) -> None:
    from . import classical_field

    noise = classical_field.IsotropicGaussianNoise(cfg["g"], cfg["sigma"])
    times = _grid(cfg)
    factor, slope = classical_field._factor_and_slope(noise, times)
    columns = _columns(times, factor, slope)
    if cfg["mc"] > 0:
        estimate = classical_field.monte_carlo_polarization(noise, times, cfg["mc"], cfg["seed"])
        columns["mc_f"] = estimate.mean
        columns["mc_se"] = estimate.stderr
        columns["diff"] = estimate.mean - factor
    _write_output("depol-classical", cfg, columns)


# --------------------------------------------------------- quantum dephasing

def _dephasing_exponent(cfg: dict, times: np.ndarray):
    """Gamma, Gamma' and the error estimate of Gamma' of the configured bath."""
    from . import dephasing

    beta = _beta_value(cfg["beta"])
    sources = ("single_mode", "modes", "ohmic_amplitude", "spectral_file")
    if sum(cfg[key] is not None for key in sources) != 1:
        raise DomainError(
            "pick exactly one source: --single-mode, --modes, --ohmic-amplitude "
            "or --spectral-file"
        )
    if cfg["single_mode"] is not None:
        omega, weight = cfg["omega"], positive("weight", cfg["weight"])
        # weight is the combined factor |c|^2 coth(beta omega/2) / omega^2, so
        # beta is already in it: the mode at zero temperature, coth = 1
        bath = dephasing.DiscreteBosonBath(((omega * math.sqrt(weight), omega),))
        return (*dephasing._discrete_and_slope(bath, times), None)
    if cfg["modes"] is not None:
        bath = dephasing.DiscreteBosonBath(_parse_pairs(cfg["modes"], "mode"), beta)
        return (*dephasing._discrete_and_slope(bath, times), None)
    if cfg["spectral_file"] is not None:
        density = dephasing.load_tabulated(cfg["spectral_file"])
    else:
        density = dephasing.OhmicExpDensity(cfg["ohmic_amplitude"], cfg["cutoff"])
    return dephasing._continuum_and_slope(density, beta, times, cfg["tol"])


def _run_dephasing_quantum(cfg: dict) -> None:
    times = _grid(cfg)
    exponent, slope, error = _dephasing_exponent(cfg, times)
    columns = _columns(times, np.exp(-exponent), slope, error, exponent)
    _write_output("dephasing-quantum", cfg, columns)


# ------------------------------------------------------- classical dephasing

def _run_dephasing_classical(cfg: dict) -> None:
    from . import dephasing

    if (cfg["white_noise"] is not None) == (cfg["cosine"] is not None):
        raise DomainError("pick exactly one of --white-noise or --cosine")
    if cfg["white_noise"] is not None:
        process = dephasing.WhiteNoiseProcess(cfg["intensity"])
    else:
        process = dephasing.CosineSumProcess(_parse_pairs(cfg["cosine"], "cosine component"))
    coupling = cfg["g"]
    times = _grid(cfg)
    exponent, slope = dephasing._classical_and_slope(process, coupling, times)
    columns = _columns(times, np.exp(-exponent), slope, exponent=exponent)
    if cfg["mc"] > 0:
        estimate = dephasing.monte_carlo_coherence(
            process, coupling, times, cfg["mc"], cfg["seed"]
        )
        columns["mc_re"] = estimate.mean.real
        columns["mc_im"] = estimate.mean.imag
        columns["mc_se_re"] = estimate.stderr_real
        columns["mc_se_im"] = estimate.stderr_imag
    _write_output("dephasing-classical", cfg, columns)


# ----------------------------------------------------------- amplitude damping

def _run_amp_damping(cfg: dict) -> None:
    from . import damping

    omega = cfg["omega"]
    if cfg["modes"] is not None:
        modes = _parse_pairs(cfg["modes"], "mode")
    else:
        modes = ((cfg["g"], omega),)  # resonant single mode
    spec = damping.AmplitudeKernelSpec(omega, modes)
    times = _grid(cfg)
    _, gamma, phase, capped, slope = damping._solve_with_slope(spec, times)
    columns = _columns(times, np.exp(-0.5 * gamma), slope, exponent=gamma, capped=capped)
    columns["omega_phase"] = phase
    _write_output("amp-damping", cfg, columns)


# ----------------------------------------------------------------- analyze

# --col -> the column it reads and that column's meaning, as spelled by
# rates.MEANING_BLOCH_FACTOR and rates.MEANING_PROBABILITY; the command table
# names no qchan.rates attribute, so that importing this module skips rates
_COLUMNS = {
    "f": ("f_or_coherence", "bloch-factor"),
    "p": ("p", "probability"),
}


# The widest data row a command writes, of which analyze reads GRID_CAP at
# most: the 10 columns of dephasing-classical --mc, each at most 24 characters
# ('%.17g' of -1.2345678901234567e-308), 9 commas and a CRLF.
ROW_BYTES = 10 * 24 + 9 + 2


# np.loadtxt opens a path by its suffix (gzip, bz2, lzma) or fetches it as a
# URL; such a path is read by the line filter, which opens it as text
_NOT_PLAIN = re.compile(r"\.(?:gz|bz2|xz|lzma)\Z|://")


def _skipped(line: str) -> bool:
    """Whether a line is a comment or whitespace only: the line filter drops it."""
    return line.startswith("#") or not line.strip()


def read_series_csv(path: str, column: str) -> tuple[np.ndarray, np.ndarray]:
    """Read (t, column) from a qchan CSV file; an error names the file."""
    # numpy's C reader takes the file as the writer made it: the header after
    # the leading comments, then data rows only.  The first row is read here,
    # so a file with no rows never reaches np.loadtxt's "no data" warning.
    # Column 0 is read, so a comment row fails to parse rather than pass as
    # data.  Any other file, or one np.loadtxt rejects, takes the line filter
    # over the rows of the same handle, which decides its arrays or its error.
    try:
        with open(path) as fh:
            skip = 0
            while _skipped(line := fh.readline()) and line:
                skip += 1
            header = line.rstrip("\n").split(",")
            body = fh.tell()
            size = os.fstat(fh.fileno()).st_size - body
            if size > GRID_CAP * ROW_BYTES:
                raise ResourceError(f"{path} holds {size:,} bytes of rows, above the "
                                    f"{GRID_CAP:,} rows of {ROW_BYTES} bytes that analyze reads")
            rows_follow = not _skipped(fh.readline())
            named = "t" in header and column in header
            cols = (header.index("t"), header.index(column)) if named else None
            if rows_follow and named and 0 in cols and not _NOT_PLAIN.search(str(path)):
                try:
                    data = np.loadtxt(path, delimiter=",", usecols=cols, skiprows=skip + 1,
                                      comments=None, ndmin=2)
                    return data[:, 0], data[:, 1]
                except ValueError:
                    pass
            fh.seek(body)
            rows = [row for row in fh if not _skipped(row)]
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DomainError(f"{path} holds no data")
    if not named:
        raise DomainError(f"{path} lacks a 't' or {column!r} column (header: {header})")
    try:
        data = np.loadtxt(rows, delimiter=",", usecols=cols, comments=None, ndmin=2)
    except ValueError as exc:
        raise DomainError(f"{path}: malformed data: {exc}") from exc
    return data[:, 0], data[:, 1]


def _run_analyze(cfg: dict) -> None:
    from . import rates

    column, meaning = _COLUMNS[cfg["col"]]
    series = rates.TimeSeries(*read_series_csv(cfg["file"], column), meaning)
    verdict = rates.classify(rates.rate_from_series(series), cfg["eps_abs"], cfg["eps_rel"])
    report = {"classification": verdict.kind.value}
    print(f"classification: {verdict.kind.value}")
    if verdict.rate is not None:
        report["rate"] = verdict.rate
        print(f"rate: {_fmt(verdict.rate)}")
    if verdict.negative_intervals:
        report["negative_intervals"] = [list(iv) for iv in verdict.negative_intervals]
        pretty = ", ".join(f"[{_fmt(a)}, {_fmt(b)}]" for a, b in verdict.negative_intervals)
        print(f"negative intervals: {pretty}")
    if cfg["out"]:
        with open(cfg["out"], "w", newline="\n") as fh:
            json.dump(report, fh, sort_keys=True, indent=1)
            fh.write("\n")


# ---------------------------------------------------------------- reproduce

# figure -> (command, settings, file stem) of each dataset it emits; the
# figures take the paper's parameters, which are their commands' defaults
_FIGURES = {
    "fig1": (("depol-classical", {}, "fig1_polarization_factor"),),
    "fig2": (
        ("dephasing-quantum", {"single_mode": True}, "fig2_single_mode"),
        ("dephasing-quantum", {"ohmic_amplitude": 8.0 * math.pi}, "fig2_ohmic_zero_temperature"),
        ("dephasing-quantum", {"ohmic_amplitude": 8.0 * math.pi, "beta": 1.0},
         "fig2_ohmic_beta_tau"),
    ),
}


def _run_reproduce(cfg: dict) -> None:
    out_dir = cfg["out_dir"].rstrip("/")
    fmt = cfg["format"]
    for name, settings, stem in _FIGURES[cfg["figure"]]:
        command = _COMMANDS[name]
        sub = {**_defaults(command), **settings, "format": fmt, "out": f"{out_dir}/{stem}.{fmt}"}
        # the Monte Carlo settings of ``reproduce`` reach the figures that sample
        sub.update({key: cfg[key] for key in ("mc", "seed") if key in sub})
        command.runner(sub)


# ------------------------------------------------------------------- oracle

def _run_oracle(cfg: dict) -> None:
    from . import classical_field, damping, dephasing, exact
    from .states import BlochVector, state_from_bloch

    model = cfg["model"]
    if model is None:
        raise DomainError("oracle requires --model")
    if model == "spin-bath":
        bloch = _parse_vector(cfg["bloch"], "--bloch")
        state = state_from_bloch(BlochVector.from_array(bloch))
        out = exact.exact_spin_bath(cfg["l"], cfg["g"], state, cfg["t"])
        s_out = out.bloch().as_array()
        denom = float(bloch @ bloch)
        report = {
            "bloch_in": list(bloch),
            "bloch_out": [float(x) for x in s_out],
            "factor": float(s_out @ bloch / denom) if denom > 0 else None,
        }
    elif model == "single-excitation":
        modes = _parse_pairs(cfg["modes"], "mode")
        spec = damping.AmplitudeKernelSpec(cfg["omega"], modes)
        times = _grid(cfg)
        alpha = exact.exact_single_excitation(spec, times)
        report = {
            "t": [float(x) for x in times],
            "alpha_re": [float(x) for x in alpha.real],
            "alpha_im": [float(x) for x in alpha.imag],
        }
    elif model == "dephasing-mode":
        beta = _beta_value(cfg["beta"])
        c, omega, t = cfg["c"], cfg["omega"], cfg["t"]
        n_max = exact.thermal_cutoff(beta, omega, coupling=c)
        state = state_from_bloch(BlochVector(1.0, 0.0, 0.0))
        out = exact.exact_dephasing_single_mode(c, omega, beta, state, t)
        bath = dephasing.DiscreteBosonBath(((c, omega),), beta)
        report = {
            "coherence_magnitude": float(2.0 * abs(out.matrix[0, 1])),
            "gamma_discrete": float(dephasing.gamma_discrete(bath, t)),
            "n_max": n_max,
        }
    else:
        xi = _parse_vector(cfg["xi"], "--xi")
        bloch = _parse_vector(cfg["bloch"], "--bloch")
        state = state_from_bloch(BlochVector.from_array(bloch))
        sample = classical_field.NoiseSample(*xi)
        out = exact.unitary_noise_conjugation(sample, cfg["g"], cfg["t"], state)
        report = {"bloch_out": [float(x) for x in out.bloch().as_array()]}
    for key in sorted(report):
        if report[key] is not None and not np.all(np.isfinite(report[key])):
            raise AccuracyError(f"{key} is not finite: the model's scales overflow float64")
    print(json.dumps(report, sort_keys=True, allow_nan=False))


# ------------------------------------------------------------------ commands

class _Command(NamedTuple):
    """A subcommand, declared once: the parser, the defaults and the parsing
    of config-file values all come from its (flag, type, default, help)
    entries.  A tuple type lists the choices; ``bool`` makes a switch, which
    a config file sets with ``true`` and leaves unset with ``false``;
    ``None`` takes the flag's text, or any JSON value from a config file,
    for the runner to check.  A name without dashes is a positional
    argument.  Every command takes a ``--config`` file."""

    help: str
    runner: Callable[[dict], None]
    entries: tuple


_FORMAT = ("--format", ("csv", "json"), "csv", None)
# the sampling settings of the two commands with a Monte Carlo check
_MONTE_CARLO = (
    ("--mc", int, 0, "Monte Carlo realizations (0 = off)"),
    ("--seed", int, 1234, None),
)


def _series(t_max: float, steps: int, out: str) -> tuple:
    """The grid and output entries that every generating command starts with."""
    return (
        ("--t-max", float, t_max, None),
        ("--steps", int, steps, None),
        ("--out", str, out, None),
        _FORMAT,
    )


_COMMANDS = {
    "depol-spinbath": _Command("spin-bath depolarizing model", _run_depol_spinbath, (
        *_series(10.0, 201, "depol_spinbath.csv"),
        ("--ensemble", ("fixed", "gaussian", "lorentzian", "uniform", "spin-star", "custom"),
         "fixed", None),
        ("--l", float, 0.5, "bath spin quantum number (half-integer)"),
        ("--g", float, 1.0, "coupling constant (fixed/spin-star)"),
        ("--G", float, 0.0, "mean coupling (gaussian)"),
        ("--sigma", float, 1.0, "coupling std-dev (gaussian)"),
        ("--a", float, 1.0, "half-width (lorentzian)"),
        ("--g-lo", float, 0.5, None),
        ("--g-hi", float, 1.5, None),
        ("--N", int, 2, "environment size (spin-star)"),
        ("--components", None, None, "custom ensemble JSON [[l, g, weight], ...]"),
    )),
    "depol-classical": _Command(
        "classical random-field depolarizing model", _run_depol_classical, (
            *_series(4.0, 400, "depol_classical.csv"),
            ("--g", float, 1.0, "coupling frequency"),
            ("--sigma", float, 1.0, "field std-dev per component"),
            *_MONTE_CARLO,
        )),
    "dephasing-quantum": _Command("boson-bath dephasing model", _run_dephasing_quantum, (
        *_series(25.0, 251, "dephasing_quantum.csv"),
        ("--single-mode", bool, None, None),
        ("--omega", float, 0.5, "mode frequency (single mode)"),
        ("--weight", float, 4.0, "combined factor |c|^2 coth(beta omega/2)/omega^2"),
        ("--modes", str, None, "explicit mode list 'c:omega[,c:omega...]'"),
        ("--ohmic-amplitude", float, None, "amplitude A of J(w) = A w exp(-w tau)"),
        ("--cutoff", float, 1.0, "cutoff time tau"),
        ("--spectral-file", str, None, "two-column (omega, J) file"),
        ("--beta", None, "inf", "inverse temperature (time units) or 'inf'"),
        ("--tol", float, 1e-8, "quadrature tolerance (--spectral-file)"),
    )),
    "dephasing-classical": _Command(
        "classical stationary-noise dephasing", _run_dephasing_classical, (
            *_series(10.0, 201, "dephasing_classical.csv"),
            ("--white-noise", bool, None, None),
            ("--intensity", float, 1.0, "white-noise intensity sigma^2"),
            ("--cosine", str, None, "cosine components 'sigma:omega[,sigma:omega...]'"),
            ("--g", float, 1.0, "coupling frequency"),
            *_MONTE_CARLO,
        )),
    "amp-damping": _Command("boson-bath amplitude damping", _run_amp_damping, (
        *_series(10.0, 2001, "amp_damping.csv"),
        ("--omega", float, 1.0, "qubit frequency"),
        ("--g", float, 1.0, "coupling of the default resonant mode"),
        ("--modes", str, None, "explicit mode list 'c:omega[,c:omega...]'"),
    )),
    "analyze": _Command("classify a time-series file", _run_analyze, (
        ("file", str, None, None),
        ("--col", tuple(_COLUMNS), "f", None),
        ("--eps-abs", float, None, None),
        ("--eps-rel", float, 1e-6, None),  # rates.DEFAULT_EPS_REL
        ("--out", str, None, "optional JSON report path"),
    )),
    "reproduce": _Command("emit figure-reproduction datasets", _run_reproduce, (
        ("figure", tuple(sorted(_FIGURES)), None, None),
        ("--out-dir", str, ".", None),
        ("--mc", int, 10000, None),
        ("--seed", int, 42, None),
        _FORMAT,
    )),
    "oracle": _Command("query the brute-force reference simulators", _run_oracle, (
        ("--model", ("spin-bath", "single-excitation", "dephasing-mode", "noise-rotation"),
         None, None),
        ("--l", float, 0.5, None),
        ("--g", float, 1.0, None),
        ("--c", float, 1.0, None),
        ("--omega", float, 1.0, None),
        ("--beta", None, "inf", None),
        ("--t", float, 1.0, None),
        ("--t-max", float, 10.0, None),
        ("--steps", int, 11, None),
        ("--modes", str, "1:1", None),
        ("--xi", str, "0,0,1", None),
        ("--bloch", str, "0,0,1", None),
    )),
}


def _key(flag: str) -> str:
    """The configuration key, and argparse dest, of a flag or positional."""
    return flag.lstrip("-").replace("-", "_")


def _defaults(command: _Command) -> dict:
    return {_key(flag): default for flag, _, default, _ in command.entries}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qchan",
        description="Time-dependent one-qubit noise channels from microscopic models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="JSON config file mirroring the flag names")
        # no defaults here: an option left as None was not given
        for flag, kind, default, text in command.entries:
            if kind is bool:
                kwargs = {"action": "store_true", "default": None}
            elif isinstance(kind, tuple):
                kwargs = {"choices": kind}
            else:
                kwargs = {"type": kind}
            p.add_argument(flag, help=text, **kwargs)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process (~1.6 ms a build); each parse
    returns a fresh namespace, and each run builds its defaults afresh."""
    return build_parser()


def _config_value(kind, value):
    """A config-file value parsed by its flag's type and choices; None, from
    ``null`` or a switch's ``false``, leaves its key at the default."""
    if kind is None or value is None:
        return value
    if kind is bool:
        if not isinstance(value, bool):
            raise ValueError
        return value or None
    # the text the flag would be given: 2 -> '2', 2.5 -> '2.5', true -> 'True'
    text = str(value)
    if isinstance(kind, tuple):
        if text not in kind:
            raise ValueError
        return text
    return kind(text)


def _read_config(path: str, command: _Command) -> dict:
    """The values of a JSON config file, keyed like the flags they set."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read config file {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DomainError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError(f"config file {path} must hold a JSON object")
    options = {_key(entry[0]): entry for entry in command.entries if entry[0].startswith("-")}
    cfg = {}
    for key, value in data.items():
        norm = key.replace("-", "_")
        if norm not in options:
            raise DomainError(f"unknown config key {key!r} in {path}")
        kind = options[norm][1]
        try:
            parsed = _config_value(kind, value)
        except ValueError:
            takes = (f"one of {', '.join(kind)}" if isinstance(kind, tuple) else
                     {float: "a number", int: "a whole number", bool: "true or false"}[kind])
            raise DomainError(
                f"config key {key!r} in {path} must be {takes}, got {value!r}"
            ) from None
        if parsed is not None:
            cfg[norm] = parsed
    return cfg


def _resolve_config(command: _Command, args: argparse.Namespace) -> dict:
    """Defaults, overridden by the JSON config file, overridden by flags."""
    cfg = _defaults(command)
    if args.config:
        cfg.update(_read_config(args.config, command))
    for key in cfg:
        value = getattr(args, key)
        if value is not None:
            cfg[key] = value
    if "t" in cfg and not 0 <= cfg["t"] < math.inf:
        raise DomainError(f"t must be finite and >= 0, got {cfg['t']}")
    if "t_max" in cfg:
        positive("t-max", cfg["t_max"])
    if "steps" in cfg and cfg["steps"] < 5:
        raise DomainError(f"steps must be >= 5, got {cfg['steps']}")
    if "mc" in cfg and cfg["mc"] < 0:
        raise DomainError(f"mc must be >= 0, got {cfg['mc']}")
    return cfg


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        # an overflow shows as the non-finite value that _columns reports
        with np.errstate(all="ignore"):
            command.runner(_resolve_config(command, args))
    except (DomainError, OSError, UnicodeDecodeError) as exc:
        print(f"qchan: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QChanError as exc:
        print(f"qchan: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
