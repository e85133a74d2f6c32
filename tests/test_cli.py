import gzip
import json
import math
import os
import re
import shlex
import subprocess
import sys
import threading
import time
import tracemalloc
import urllib.request
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad, quad_vec

from qchan import (
    AmplitudeKernelSpec,
    DomainError,
    FixedCoupling,
    ResourceError,
    TimeSeries,
    bloch_factor,
    classical_field,
    classify,
    dephasing,
    rate_from_series,
    solve_amplitude,
    spin_bath,
)
from qchan import _common, _quadrature, _rng, cli, rates
from qchan._common import GRID_CAP, NS_PER_UNIT, WORK_BUDGET_S
from qchan.cli import main, read_series_csv
from qchan.exact import MODE_CAP
from qchan.spin_bath import SPIN_STAR_CAP

README = Path(__file__).resolve().parent.parent / "README.md"


def work_seconds(units):
    """The seconds that ``_common.check_work(**units)`` counts."""
    return sum(NS_PER_UNIT[kernel] * count for kernel, count in units.items()) / 1e9


def class_widths(lo, hi):
    """The width of each class of Filon panels, narrowest first: widths in
    one bin of 2 eps times the largest knot share their mean."""
    width = np.sort(hi - lo)
    key = np.floor(width / hi.max() / (2.0 * np.finfo(float).eps))
    return np.array([np.mean(width[key == k]) for k in np.unique(key)])


def run(args, cwd=None, monkeypatch=None):
    return main(shlex.split(args))


def test_basic_run_and_file_shape(tmp_path):
    out = tmp_path / "run.csv"
    code = main(
        [
            "depol-classical", "--g", "1", "--sigma", "1", "--t-max", "2",
            "--steps", "40", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# qchan depol-classical"
    assert lines[1].startswith("# config = {")
    header = lines[2].split(",")
    assert header == ["t", "f_or_coherence", "p", "gamma", "gamma_err", "flags"]
    assert len(lines) == 3 + 40
    first = lines[3].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0


def test_float_roundtrip_17_digits(tmp_path):
    out = tmp_path / "run.csv"
    main(["depol-classical", "--t-max", "2", "--steps", "40", "--out", str(out)])
    times, values = read_series_csv(out, "f_or_coherence")
    from qchan import IsotropicGaussianNoise, polarization_factor

    expected = polarization_factor(IsotropicGaussianNoise(1.0, 1.0), times)
    assert np.array_equal(values, expected)  # bit-exact round trip


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        main(
            [
                "depol-classical", "--t-max", "2", "--steps", "30",
                "--mc", "200", "--seed", "9", "--out", str(out),
            ]
        )
    text_a, text_b = a.read_bytes(), b.read_bytes()
    # outputs differ only in the echoed output path
    assert text_a.replace(b"a.csv", b"") == text_b.replace(b"b.csv", b"")


def test_json_format(tmp_path):
    out = tmp_path / "run.json"
    code = main(
        ["depol-spinbath", "--ensemble", "fixed", "--l", "0.5", "--g", "1",
         "--t-max", "8", "--steps", "33", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["meta"]["command"] == "depol-spinbath"
    assert payload["meta"]["config"]["ensemble"] == "fixed"
    cols = payload["columns"]
    assert len(cols["t"]) == 33
    assert set(cols) >= {"t", "f_or_coherence", "p", "gamma", "gamma_err", "flags"}


def test_pole_flagging_in_output(tmp_path):
    out = tmp_path / "run.csv"
    main(["depol-spinbath", "--ensemble", "fixed", "--l", "1", "--g", "1",
          "--t-max", "4", "--steps", "81", "--out", str(out)])
    text = out.read_text()
    assert ",pole" in text  # F goes negative for l = 1 within this window


def test_analyze_pipeline_identity(tmp_path):
    # calibration exponential: f = e^{-2t} classifies as constant rate 2
    out = tmp_path / "calib.csv"
    t = np.linspace(0.0, 2.0, 201)
    rows = ["t,f_or_coherence", *(f"{ti:.17g},{math.exp(-2.0 * ti):.17g}" for ti in t)]
    out.write_text("\n".join(rows) + "\n")
    report = tmp_path / "report.json"
    code = main(["analyze", str(out), "--col", "f", "--out", str(report)])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["classification"] == "constant-rate"
    assert data["rate"] == pytest.approx(2.0, rel=1e-8)


def test_analyze_roundtrip_matches_library(tmp_path):
    out = tmp_path / "fixed.csv"
    main(["depol-spinbath", "--ensemble", "fixed", "--l", "0.5", "--g", "1",
          "--t-max", "12", "--steps", "2401", "--out", str(out)])
    report = tmp_path / "report.json"
    assert main(["analyze", str(out), "--col", "f", "--out", str(report)]) == 0
    data = json.loads(report.read_text())

    t = np.linspace(0.0, 12.0, 2401)
    series = TimeSeries(t, bloch_factor(FixedCoupling(0.5, 1.0), t), "bloch-factor")
    verdict = classify(rate_from_series(series))
    assert data["classification"] == verdict.kind.value
    assert np.allclose(
        np.array(data["negative_intervals"]),
        np.array([list(iv) for iv in verdict.negative_intervals]),
        rtol=0,
        atol=0,
    )


def test_analyze_widest_row_is_row_bytes(tmp_path):
    out = tmp_path / "mc.csv"
    assert main(["dephasing-classical", "--cosine", "1:1", "--mc", "10", "--steps", "5",
                 "--out", str(out)]) == 0
    header = [line for line in out.read_text().splitlines() if not line.startswith("#")][0]
    assert len(header.split(",")) == 10
    widest = "-1.2345678901234567e-308"
    assert len("%.17g" % -1.2345678901234567e-308) == len(widest) == 24
    assert len(",".join([widest] * 10) + "\r\n") == cli.ROW_BYTES


@pytest.mark.parametrize("comment", [False, True], ids=["plain", "comment-row"])
def test_analyze_refuses_a_file_above_the_grid_cap(tmp_path, capsys, monkeypatch, comment):
    # a sparse file, one byte above GRID_CAP rows of ROW_BYTES after its
    # header: refused before any row is read, by np.loadtxt or, with a #
    # row among the rows, by the line filter
    path = tmp_path / "big.csv"
    head = "# qchan\nt,f_or_coherence\n"
    path.write_text(head + "0,1\n" + ("# note\n" if comment else "") + "1,0.5\n")
    os.truncate(path, len(head) + GRID_CAP * cli.ROW_BYTES + 1)

    def no_read(*args, **kwargs):
        raise AssertionError("the size is checked before any row is read")

    monkeypatch.setattr(np, "loadtxt", no_read)
    capsys.readouterr()
    assert main(["analyze", str(path), "--col", "f"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"qchan: numerical failure: {path} holds "), err
    assert f"above the {GRID_CAP:,} rows of {cli.ROW_BYTES} bytes" in err


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sigma": 2.0, "t-max": 2.0, "steps": 25}))
    out = tmp_path / "a.csv"
    main(["depol-classical", "--config", str(cfg), "--out", str(out)])
    assert '"sigma": 2.0' in out.read_text()

    out2 = tmp_path / "b.csv"
    main(["depol-classical", "--config", str(cfg), "--sigma", "3.0", "--out", str(out2)])
    assert '"sigma": 3.0' in out2.read_text()

    # null leaves a key at its default, and so does false for a switch
    cfg.write_text(json.dumps({"sigma": None, "steps": 25}))
    assert main(["depol-classical", "--config", str(cfg), "--out", str(out)]) == 0
    assert '"sigma": 1.0' in out.read_text()


def strict_json(text):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("value", ["-inf", "inf", "nan"])
def test_config_echo_is_strict_json(tmp_path, value):
    # the fixed ensemble ignores G and components, so non-finite values run
    # and are echoed as strings
    out = tmp_path / "run.out"
    argv = ["depol-spinbath", f"--G={value}", "--steps", "5", "--out", str(out)]
    assert main(argv) == 0
    config = out.read_text().splitlines()[1]
    assert config.startswith("# config = ")
    assert strict_json(config[len("# config = "):])["G"] == value
    assert main([*argv, "--format", "json"]) == 0
    assert strict_json(out.read_text())["meta"]["config"]["G"] == value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"components": [[0.5, {json.dumps(float(value))}, 1]]}}')
    assert main(["depol-spinbath", "--config", str(cfg), "--steps", "5", "--out", str(out)]) == 0
    echoed = strict_json(out.read_text().splitlines()[1][len("# config = "):])
    assert echoed["components"] == [[0.5, value, 1]]


# the source a generating command runs with when the entry under test is not
# itself a source
BASE_SOURCE = {"dephasing-quantum": ["--single-mode"], "dephasing-classical": ["--cosine", "1:1"]}
SOURCE_FLAGS = {"--single-mode", "--ohmic-amplitude", "--white-noise"}


def typed_entries():
    """(command, entry) for every entry of a generating command whose flag
    parses its text: a number, a choice or a switch."""
    for name, command in cli._COMMANDS.items():
        flags = [entry[0] for entry in command.entries]
        if "--out" in flags and "--t-max" in flags:
            for entry in command.entries:
                if entry[1] in (int, float, bool) or isinstance(entry[1], tuple):
                    yield pytest.param(name, entry, id=f"{name}{entry[0]}")


@pytest.mark.parametrize("name, entry", typed_entries())
def test_flag_and_config_write_the_same_bytes(tmp_path, name, entry):
    flag, kind, default, _ = entry
    if kind is bool:
        value, text = True, []
    elif isinstance(kind, tuple):
        value = next(choice for choice in kind if choice not in (default, "custom"))
        text = [value]
    else:
        # an integer literal, for float keys too
        value = int(default or 0) + 2
        text = [str(value)]
    assert value != default
    base = [] if flag in SOURCE_FLAGS else BASE_SOURCE.get(name, [])
    out = str(tmp_path / "run.out")
    assert main([name, *base, flag, *text, "--out", out]) == 0
    by_flag = Path(out).read_bytes()
    Path(out).unlink()
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({flag.lstrip("-"): value}))
    assert main([name, *base, "--config", str(config), "--out", out]) == 0
    assert Path(out).read_bytes() == by_flag


def test_unknown_config_key_is_config_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sigmaa": 2.0}))
    assert main(["depol-classical", "--config", str(cfg)]) == 2


def test_bad_parameters_exit_2(tmp_path, capsys):
    assert main(["depol-classical", "--sigma", "-1", "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["depol-spinbath", "--l", "0.3", "--out", str(tmp_path / "y.csv")]) == 2
    assert main(["analyze", str(tmp_path / "missing.csv")]) == 2
    assert main(["depol-classical", "--steps", "3", "--out", str(tmp_path / "z.csv")]) == 2

    # malformed input files and config values
    files = {
        "non_numeric.csv": "t,f_or_coherence,p\n0,1,0\n0.1,abc,0\n",
        "short_row.csv": "t,f_or_coherence,p\n0,1,0\n0.1\n",
        "header_only.csv": "# qchan depol-classical\nt,f_or_coherence,p\n",
        # digits with underscores are not numbers in a data file
        "underscore.csv": "t,f_or_coherence\n" + "".join(f"{t},1\n" for t in range(9)) + "1_0,1\n",
        "spectral.txt": "0 1\n1 x\n",
        "spectral_inf.txt": "0 0\n1 inf\n2 1\n",
        "spectral_nan.txt": "0 0\n1 nan\n2 1\n",
        "spectral_descending.txt": "0 0\n2 1\n1 1\n",
        "steps.json": json.dumps({"steps": "abc"}),
        "mc.json": json.dumps({"mc": "x"}),
        # config values are parsed like their flags: whole numbers for
        # integer keys, no booleans for numbers, and false leaves a switch unset
        "beta_list.json": json.dumps({"beta": [1], "single-mode": True}),
        "steps_fraction.json": json.dumps({"steps": 7.9}),
        "mc_fraction.json": json.dumps({"mc": 2.5}),
        "sigma_bool.json": json.dumps({"sigma": True}),
        "switch_false.json": json.dumps({"single-mode": False}),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    # bytes that are not UTF-8 text, in a data row and in a config file
    (tmp_path / "undecodable.csv").write_bytes(b"t,f_or_coherence\n0,1\n1,0.5\xff\n")
    (tmp_path / "undecodable.json").write_bytes(b'{"sigma": 2\xff}')
    (tmp_path / "undecodable_spectral.txt").write_bytes(b"0 0\n1 1\xff\n")
    out = str(tmp_path / "w.csv")
    commands = [
        ["analyze", str(tmp_path / "non_numeric.csv")],
        ["analyze", str(tmp_path / "short_row.csv")],
        ["analyze", str(tmp_path / "header_only.csv")],
        ["analyze", str(tmp_path / "underscore.csv")],
        ["analyze", str(tmp_path / "undecodable.csv")],
        ["depol-classical", "--config", str(tmp_path / "undecodable.json"), "--out", out],
        ["dephasing-quantum", "--spectral-file", str(tmp_path / "spectral.txt"), "--out", out],
        ["dephasing-quantum", "--spectral-file", str(tmp_path / "spectral_inf.txt"), "--out", out],
        ["dephasing-quantum", "--spectral-file", str(tmp_path / "spectral_nan.txt"), "--out", out],
        ["dephasing-quantum", "--spectral-file", str(tmp_path / "spectral_descending.txt"),
         "--out", out],
        ["dephasing-quantum", "--spectral-file", str(tmp_path / "undecodable_spectral.txt"),
         "--out", out],
        ["dephasing-classical", "--cosine", "1:nan", "--out", out],
        ["depol-classical", "--config", str(tmp_path / "steps.json"), "--out", out],
        ["reproduce", "fig1", "--config", str(tmp_path / "mc.json"), "--out-dir", str(tmp_path)],
        ["dephasing-quantum", "--config", str(tmp_path / "beta_list.json"), "--out", out],
        ["depol-classical", "--config", str(tmp_path / "steps_fraction.json"), "--out", out],
        ["depol-classical", "--config", str(tmp_path / "mc_fraction.json"), "--out", out],
        ["depol-classical", "--config", str(tmp_path / "sigma_bool.json"), "--out", out],
        ["dephasing-quantum", "--config", str(tmp_path / "switch_false.json"), "--out", out],
        ["depol-spinbath", "--ensemble", "custom", "--components", "[[1]]", "--out", out],
        ["depol-spinbath", "--g", "nan", "--out", out],
        ["depol-classical", "--sigma", "inf", "--out", out],
        ["depol-classical", "--mc", "-5", "--out", out],
        ["depol-classical", "--t-max", "inf", "--out", out],
        ["amp-damping", "--t-max", "inf", "--out", out],
    ]
    # thresholds that are not finite and >= 0, on a rate that is negative on
    # (pi, 2 pi)
    spinbath = str(tmp_path / "spinbath.csv")
    assert main(["depol-spinbath", "--out", spinbath]) == 0
    for flag, value in [("--eps-abs", "nan"), ("--eps-abs", "-1"), ("--eps-abs", "inf"),
                        ("--eps-rel", "nan"), ("--eps-rel", "-1")]:
        commands.append(["analyze", spinbath, flag, value])
    capsys.readouterr()
    for argv in commands:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("qchan: configuration error:") and err.count("\n") == 1, argv
        if "--t-max" in argv:
            assert "t-max must be finite and > 0" in err, argv
        if argv[-2] in ("--eps-abs", "--eps-rel"):
            assert f"{argv[-2][2:].replace('-', '_')} must be finite and >= 0, got " in err, argv
        # an input file that is not text, and a spectral file of any fault,
        # is named in the message
        named = [arg for arg in argv if "undecodable" in arg]
        named += [arg for flag, arg in zip(argv, argv[1:]) if flag == "--spectral-file"]
        for arg in named:
            assert arg in err, argv
    assert not Path(out).exists()

    # a switch set false is unset, so it is not a second source
    (tmp_path / "switch_false.json").write_text(
        json.dumps({"single-mode": False, "ohmic-amplitude": 1})
    )
    assert main(["dephasing-quantum", "--config", str(tmp_path / "switch_false.json"),
                 "--out", out]) == 0
    assert '"ohmic_amplitude": 1.0' in Path(out).read_text()


# refusals that no other test reaches: each exits 2 with one line, and the
# models make the checks of the last four themselves
REFUSALS = [
    ("dephasing-quantum --single-mode --beta 0", "beta must be > 0, got 0.0"),
    ("dephasing-quantum --single-mode --beta -1", "beta must be > 0, got -1.0"),
    ("dephasing-quantum --modes 1", "malformed mode entry '1'; expected 'x:y'"),
    ("dephasing-quantum --modes a:b", "non-numeric mode entry 'a:b'"),
    ("oracle --model spin-bath --bloch 1,0",
     "--bloch must be three comma-separated numbers, got '1,0'"),
    ("oracle --model noise-rotation --xi a,b,c", "non-numeric --xi 'a,b,c'"),
    ("depol-spinbath --ensemble custom", "custom ensemble requires --components"),
    ("dephasing-classical", "pick exactly one of --white-noise or --cosine"),
    ("dephasing-classical --white-noise --cosine 1:1",
     "pick exactly one of --white-noise or --cosine"),
    ("analyze no_t.csv",
     "no_t.csv lacks a 't' or 'f_or_coherence' column (header: ['x', 'f_or_coherence'])"),
    ("depol-classical --config missing.json",
     "cannot read config file missing.json: [Errno 2] No such file or directory: 'missing.json'"),
    ("depol-classical --config array.json", "config file array.json must hold a JSON object"),
    ("dephasing-quantum --config single.json",
     "config key 'single-mode' in single.json must be true or false, got 1"),
    ("depol-spinbath --config ensemble.json",
     "config key 'ensemble' in ensemble.json must be one of fixed, gaussian, lorentzian, "
     "uniform, spin-star, custom, got 'nope'"),
    ("dephasing-quantum --spectral-file j.txt --tol 0", "tol must be > 0, got 0.0"),
    ("dephasing-quantum --single-mode --weight 0", "weight must be finite and > 0, got 0.0"),
    ("dephasing-quantum --single-mode --weight inf", "weight must be finite and > 0, got inf"),
    ("dephasing-quantum --single-mode --omega 0",
     "mode frequency must be finite and > 0, got 0.0"),
    ("dephasing-classical --white-noise --mc 10",
     "Monte Carlo coherence requires a cosine-sum process"),
]


@pytest.mark.parametrize("args, message", REFUSALS, ids=[a for a, _ in REFUSALS])
def test_refusals_exit_2_with_their_message(tmp_path, monkeypatch, capsys, args, message):
    monkeypatch.chdir(tmp_path)
    Path("no_t.csv").write_text("x,f_or_coherence\n0,1\n1,0.5\n")
    Path("array.json").write_text("[1]")
    Path("single.json").write_text(json.dumps({"single-mode": 1}))
    Path("ensemble.json").write_text(json.dumps({"ensemble": "nope"}))
    Path("j.txt").write_text("0 0\n1 1\n2 0.5\n")
    argv = shlex.split(args)
    if argv[0] not in ("analyze", "oracle"):
        argv += ["--out", "x.csv"]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"qchan: configuration error: {message}\n"
    assert not Path("x.csv").exists()


def test_spectral_file_is_read_as_a_plain_local_file(tmp_path, monkeypatch, capsys):
    # numpy's loader would decompress a .gz path and fetch a URL; the table
    # is read from a local file as it is, or the run exits 2 naming the path
    def no_fetch(*args, **kwargs):
        raise AssertionError("a spectral file must not be fetched")

    monkeypatch.setattr(urllib.request, "urlopen", no_fetch)
    packed = tmp_path / "j.txt.gz"
    with gzip.open(packed, "wt") as handle:
        handle.write("0 0\n1 1\n2 0.5\n")
    out = str(tmp_path / "x.csv")
    capsys.readouterr()
    for path in (str(packed), "http://127.0.0.1:9/j.txt"):
        assert main(["dephasing-quantum", "--spectral-file", path, "--out", out]) == 2, path
        err = capsys.readouterr().err
        assert err.startswith(f"qchan: configuration error: spectral file {path}:"), err
    assert not Path(out).exists()


@pytest.mark.parametrize(
    "argv, product",
    [
        (["depol-classical", "--sigma", "1e154"], "2*coupling*sigma = "),
        (["depol-classical", "--sigma", "1e154", "--mc", "100", "--t-max", "1e160"],
         "2*coupling*sigma = "),
        (["depol-classical", "--sigma", "1e100", "--t-max", "1e60"], "2*coupling*sigma*t = "),
        (["dephasing-quantum", "--modes", "1e150:1e-150"], "mode weights |c|^2"),
        (["dephasing-quantum", "--modes", ",".join(["1e154:1"] * 4)], "mode weights |c|^2"),
        (["dephasing-quantum", "--modes", "1e100:1", "--beta", "1e-300"], "mode weights |c|^2"),
        (["dephasing-quantum", "--modes", "1:1e-150", "--beta", "1e-200"], "mode weights |c|^2"),
        # these ended in a ZeroDivisionError traceback
        (["dephasing-quantum", "--modes", "1:1e-170"], "mode frequency = 1e-170 is too small"),
        (["dephasing-quantum", "--modes", "0:1e-170"], "mode frequency = 1e-170 is too small"),
    ],
)
def test_overflowing_scale_products_exit_2(tmp_path, capsys, argv, product):
    # these ran to exit 0 with NaN or inf in the file, or to a traceback
    assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"qchan: configuration error: {product}"), err
    assert "too large" in err or "underflows" in err
    assert err.count("\n") == 1 and len(err) < 200, err
    assert not (tmp_path / "x.csv").exists()


def test_monte_carlo_phase_overflow_is_a_domain_error():
    noise = classical_field.IsotropicGaussianNoise(1.0, 1e154)
    with pytest.raises(DomainError, match="Monte Carlo phase overflows"):
        classical_field.monte_carlo_polarization(noise, np.linspace(0.0, 1e160, 5), 100, 1)


@pytest.mark.parametrize(
    "argv, name",
    [
        (["depol-classical", "--sigma", "1e200"], "coupling*sigma"),
        (["depol-classical", "--g", "1e100", "--sigma", "1e100", "--mc", "10"], "coupling*sigma"),
        (["dephasing-classical", "--cosine", "1e200:1"], "component amplitude"),
        (["dephasing-classical", "--cosine", "1:1", "--g", "1e200"], "coupling"),
        (["dephasing-classical", "--cosine", "1e100:1", "--g", "1e100"], "coupling*amplitude"),
        (["dephasing-quantum", "--modes", "1e200:1"], "mode coupling |c|"),
        (["dephasing-quantum", "--modes", "1:1e200"], "mode frequency"),
    ],
)
def test_squared_scale_overflow_exits_2(tmp_path, capsys, argv, name):
    # these squares once raised a bare OverflowError (exit 1)
    assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"qchan: configuration error: {name} = "), err
    assert "its square overflows" in err
    assert not (tmp_path / "x.csv").exists()


def test_tabulated_cost_cap_exits_3_before_any_sum(tmp_path, monkeypatch, capsys):
    grid = np.linspace(0.0, 40.0, 401)
    path = tmp_path / "ohmic.txt"
    np.savetxt(path, np.column_stack([grid, 8.0 * math.pi * grid * np.exp(-grid)]))
    argv = ["dephasing-quantum", "--spectral-file", str(path), "--beta", "1", "--t-max", "25",
            "--steps", "11", "--out", str(tmp_path / "x.csv")]
    passes, units = [], {}
    integrate, check_work = dephasing.integrate_adaptive, _quadrature.check_work

    def recording(f, edges, *args, **kwargs):
        passes.append((edges, integrate(f, edges, *args, **kwargs)))
        return passes[-1][1]

    def recording_check(**work):
        units.update(work)
        check_work(**work)

    monkeypatch.setattr(dephasing, "integrate_adaptive", recording)
    monkeypatch.setattr(_quadrature, "check_work", recording_check)
    # the first pass's panels are charged before it, and tested on their own
    # (test_large_table_is_refused_before_the_first_pass); free here, the
    # check before the pass stays below filon's own
    monkeypatch.setitem(NS_PER_UNIT, "panel", 0)
    assert main(argv) == 0
    # 11 times on the Filon panels over all the knots, and on their width
    # classes plus the first knot interval's Si and Cin, one moment set each
    # whatever its regime: the 12 float widths of the panels (the knots' 10
    # and the halves of the first knot interval) form 3 classes
    ((edges, (lo, hi, *_)),) = passes
    assert np.array_equal(edges, grid)
    assert np.unique(hi - lo).size == 12 and class_widths(lo, hi).size == 3
    assert units == {"filon": 11 * lo.size, "moments": 11 * (3 + 1)}
    monkeypatch.setattr(_common, "WORK_BUDGET_S", work_seconds(units))
    assert main(argv) == 0
    passes.clear()
    (tmp_path / "x.csv").unlink()

    def no_sum(*args):
        raise AssertionError("the budget must be checked before any moment set or sum")

    # one Filon unit over the budget
    monkeypatch.setattr(_quadrature, "moments", no_sum)
    monkeypatch.setattr(_quadrature, "double_angle", no_sum)
    monkeypatch.setattr(dephasing, "si_cin", no_sum)
    monkeypatch.setattr(_common, "WORK_BUDGET_S", work_seconds({**units, "filon": units["filon"] - 1}))
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("qchan: numerical failure: work units filon=") and "above the budget" in err, err
    assert len(passes) == 1  # the panels only
    assert not (tmp_path / "x.csv").exists()


def test_large_table_is_refused_before_the_first_pass(tmp_path, monkeypatch):
    # a table's first pass and its least Filon sums, one per (time, knot
    # interval), are charged before the pass: 1,000,001 knots at 251 times
    # are refused without a panel, where the pass alone took seconds
    def no_pass(*args, **kwargs):
        raise AssertionError("the first pass must not start")

    grid = np.linspace(0.0, 40.0, 1_000_001)
    density = dephasing.TabulatedDensity(grid, 8.0 * math.pi * grid * np.exp(-grid))
    with monkeypatch.context() as patch:
        patch.setattr(dephasing, "integrate_adaptive", no_pass)
        with pytest.raises(ResourceError, match=r"^work units panel=1,000,000, filon=251,000,000 "):
            dephasing.gamma_continuum(density, 1.0, np.linspace(0.0, 25.0, 251))
    # 100,001 knots at 5 times fit the budget
    path = tmp_path / "table.txt"
    np.savetxt(path, np.column_stack([grid[::10], density.values[::10]]))
    out = tmp_path / "x.csv"
    assert main(["dephasing-quantum", "--spectral-file", str(path), "--steps", "5",
                 "--out", str(out)]) == 0
    assert len(read_series_csv(str(out), "gamma")[0]) == 5


@pytest.mark.parametrize("table", ["uniform", "log", "splits"])
def test_moment_sets_charged_are_the_sets_computed(table, monkeypatch):
    # filon charges one moment set per (time, width class) and the caller's
    # Si and Cin sets; every charged set is computed, and no other
    grid = {"uniform": np.linspace(0.0, 40.0, 401), "splits": np.linspace(0.0, 40.0, 21),
            "log": np.r_[0.0, np.geomspace(1e-3, 40.0, 100)]}[table]
    # J(0) > 0 makes the first knot interval of the coarse table split
    density = dephasing.TabulatedDensity(grid, 8.0 * math.pi * grid * np.exp(-grid)
                                         + (0.5 if table == "splits" else 0.0))
    beta, tol = {"uniform": (math.inf, 1e-8), "log": (1.0, 1e-8), "splits": (5.0, 1e-10)}[table]
    times = np.linspace(0.0, 40.0, 201)
    charged, kappas, closed, passes = [], [], [], []
    integrate, check_work = dephasing.integrate_adaptive, _quadrature.check_work
    moments, si_cin = _quadrature.moments, dephasing.si_cin

    def recording(f, edges, *args, **kwargs):
        passes.append(integrate(f, edges, *args, **kwargs))
        return passes[-1]

    def recording_check(**work):
        charged.append(work["moments"])
        check_work(**work)

    def counting_moments(kappa):
        kappas.append(np.size(kappa))
        return moments(kappa)

    def counting_si_cin(x):
        closed.append(np.size(x))
        return si_cin(x)

    monkeypatch.setattr(dephasing, "integrate_adaptive", recording)
    monkeypatch.setattr(_quadrature, "check_work", recording_check)
    monkeypatch.setattr(_quadrature, "moments", counting_moments)
    monkeypatch.setattr(dephasing, "si_cin", counting_si_cin)
    dephasing._continuum_and_slope(density, beta, times, tol)
    ((lo, hi, *_),) = passes
    assert len(charged) == 1 and sum(closed) == times.size
    assert charged[0] - sum(closed) == sum(kappas) == times.size * class_widths(lo, hi).size
    if table == "uniform":  # the knots' 10 float widths, at most 2 classes
        assert np.unique(hi - lo).size == 10 and class_widths(lo, hi).size <= 2
    elif table == "log":  # every width its own class
        assert class_widths(lo, hi).size == np.unique(hi - lo).size == lo.size
    else:
        assert lo.size > grid.size - 1  # some panel was split


def test_numerical_failure_exits_3(tmp_path, monkeypatch, capsys):
    # an unresolvable quadrature tolerance is a numerical failure, not config
    grid = np.linspace(0.0, 40.0, 401)
    path = tmp_path / "ohmic.txt"
    np.savetxt(path, np.column_stack([grid, 8.0 * math.pi * grid * np.exp(-grid)]))
    out = str(tmp_path / "x.csv")
    calls = []
    integrate = dephasing.integrate_adaptive

    def counting(f, *args, **kwargs):
        def wrapped(w):
            calls.append(w.size)
            return f(w)

        return integrate(wrapped, *args, **kwargs)

    monkeypatch.setattr(dephasing, "integrate_adaptive", counting)
    capsys.readouterr()
    code = main(
        ["dephasing-quantum", "--spectral-file", str(path),
         "--tol", "1e-30", "--t-max", "40", "--steps", "6", "--out", out]
    )
    assert code == 3
    # the rounding floors alone exceed 1e-30, so the pass stops after its
    # first rule call instead of bisecting to 50000 panels, and says so
    assert len(calls) == 1
    err = capsys.readouterr().err
    floor = re.fullmatch(
        r"qchan: numerical failure: quadrature tolerance 1\.000e-30 lies below its rounding "
        r"floor (\S+) \(error estimate \S+\)\n", err
    )
    assert floor and 1e-16 < float(floor.group(1)) < 1e-12, err

    # so is a size cap, checked before any table is built or matrix diagonalized
    def no_work(*args, **kwargs):
        raise AssertionError("size cap checked too late")

    monkeypatch.setattr(spin_bath, "SectorWeight", no_work)
    monkeypatch.setattr(np.linalg, "eigh", no_work)
    star = ["depol-spinbath", "--ensemble", "spin-star", "--N", str(SPIN_STAR_CAP + 1)]
    assert main([*star, "--out", out]) == 3
    modes = ",".join(["0.01:1"] * (MODE_CAP + 1))
    assert main(["oracle", "--model", "single-excitation", "--modes", modes]) == 3
    assert main(["amp-damping", "--modes", modes, "--out", out]) == 3
    monkeypatch.setattr(_rng, "chunk_normals", no_work)
    # so is the work budget: a Monte Carlo unit costs at least a (realization, point)
    mc = str(int(WORK_BUDGET_S * 1e9 / NS_PER_UNIT["monte_carlo"]) // 201 + 1)
    assert main(["depol-classical", "--steps", "201", "--mc", mc, "--out", out]) == 3
    cosine = ["dephasing-classical", "--cosine", "1:1", "--steps", "201", "--mc", mc]
    assert main([*cosine, "--out", out]) == 3


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["depol-spinbath", "--g", "1e308", "--steps", "5"], 3, "f_or_coherence is nan at t = 0:"),
        (["depol-spinbath", "--g", "4", "--t-max", "1e308"], 3,
         "f_or_coherence is nan at t = 9.0000000000000005e+307:"),
        (["depol-spinbath", "--ensemble", "lorentzian", "--a", "1e308"], 3,
         "f_or_coherence is nan at t = 0:"),
        (["depol-spinbath", "--ensemble", "uniform", "--g-lo", "1", "--g-hi", "1e308"], 3,
         "f_or_coherence is nan at t = 3.6000000000000001:"),
        (["depol-spinbath", "--ensemble", "spin-star", "--N", "40", "--g", "1e307"], 3,
         "f_or_coherence is nan at t = 0:"),
        (["dephasing-classical", "--white-noise", "--intensity", "1e308", "--g", "1e10"], 3,
         "f_or_coherence is nan at t = 0:"),
        (["dephasing-quantum", "--modes", "1e100:1e100", "--t-max", "1e300"], 3,
         "f_or_coherence is nan at t = 4.0000000000000001e+297:"),
        # self.sigma**2 once raised a bare OverflowError (exit 1)
        (["depol-spinbath", "--ensemble", "gaussian", "--sigma", "1e200"], 2,
         "sigma = 1e+200 is too large: its square overflows"),
    ],
    ids=["fixed-g", "fixed-t-max", "lorentzian", "uniform", "spin-star", "white-noise", "modes",
         "gaussian-sigma"],
)
def test_overflowing_scales_do_not_write_nan(tmp_path, capsys, argv, code, message):
    # these wrote NaN rows and exited 0, where the model's scales overflow
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == code
    kind = "numerical failure" if code == 3 else "configuration error"
    err = capsys.readouterr().err
    assert err.startswith(f"qchan: {kind}: {message}"), err
    assert err.count("\n") == 1
    assert not out.exists()


def test_grid_cap_is_checked_before_allocating(tmp_path, monkeypatch, capsys):
    def no_grid(*args, **kwargs):
        raise AssertionError("grid allocated above the cap")

    monkeypatch.setattr(np, "linspace", no_grid)
    monkeypatch.setattr(np, "arange", no_grid)
    points = GRID_CAP + 1
    out = tmp_path / "x.csv"
    capsys.readouterr()
    assert main(["depol-spinbath", "--steps", str(points), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"qchan: numerical failure: {points} grid points above the cap of {GRID_CAP}\n"
    )
    assert not out.exists()
    assert main(["oracle", "--model", "single-excitation", "--steps", str(points)]) == 3
    with pytest.raises(ResourceError, match="grid points above the cap"):
        solve_amplitude(AmplitudeKernelSpec(1.0, ((1.0, 1.0),)), 1.0, GRID_CAP)


class Summed(Exception):
    pass


def test_line_sum_cap_exits_3_at_once(tmp_path, monkeypatch, capsys):
    # a term is one (line, time, weight row), and a line costs as much as 2000
    # terms: a sum of 1000 lines of two rows at 999,000 times is at the work
    # budget, and one at the grid cap is above it; 999 lines fit the grid cap
    assert work_seconds({"line": 1000, "line_term": 2 * 1000 * 999_000}) == WORK_BUDGET_S
    assert work_seconds({"line": 999, "line_term": 2 * 999 * GRID_CAP}) <= WORK_BUDGET_S

    def no_sum(*args, **kwargs):
        raise Summed

    # the amplitude sum has one line more than its modes and four rows, and
    # is refused before its matrix is diagonalized; a spin star of N = 1998
    # has 1000 sectors, each a line
    monkeypatch.setattr(np.linalg, "eigh", no_sum)
    monkeypatch.setattr(_common, "double_angle", no_sum)
    pairs = ",".join(f"0.01:{1 + k / 1000:g}" for k in range(1000))
    components = json.dumps([[0.5 + k % 3, 1 + k / 1000, 1 / 1000] for k in range(1000)])
    # (command, its lines, weight rows, and the most times within the budget)
    commands = ((["dephasing-quantum", "--modes", pairs], 1000, 2, 999_000),
                (["dephasing-classical", "--cosine", pairs], 1000, 2, 999_000),
                (["amp-damping", "--modes", pairs.rsplit(",", 1)[0]], 1000, 4, 499_500),
                (["depol-spinbath", "--ensemble", "spin-star", "--N", "1998"], 1000, 2, 999_000),
                (["depol-spinbath", "--ensemble", "custom", "--components", components],
                 1000, 2, 999_000))
    out = ["--out", str(tmp_path / "x.csv")]
    for argv, lines, rows, steps in commands:
        assert work_seconds({"line": lines, "line_term": rows * lines * steps}) == WORK_BUDGET_S
        with pytest.raises(Summed):
            main([*argv, "--steps", str(steps), *out])
    capsys.readouterr()
    star = (["depol-spinbath", "--ensemble", "spin-star", "--N", "4000"], 2001, 2, None)
    for argv, lines, rows, _ in (*commands, star):
        start = time.perf_counter()
        assert main([*argv, "--steps", str(GRID_CAP), *out]) == 3, argv[0]
        assert time.perf_counter() - start < 2.0, argv[0]
        err = capsys.readouterr().err
        seconds = work_seconds({"line": lines, "line_term": rows * lines * GRID_CAP})
        assert err == (f"qchan: numerical failure: work units line={lines:,}, line_term="
                       f"{rows * lines * GRID_CAP:,} would take ~{seconds:.4g} s, "
                       f"above the budget of {WORK_BUDGET_S} s\n"), err
    assert not (tmp_path / "x.csv").exists()


def test_negative_tabulated_gamma_exits_2(tmp_path, monkeypatch, capsys):
    # Gamma >= 0 can only break on the tabulated path; force it to -2 tol
    tabulated = dephasing._tabulated

    def negative(density, beta, times, tol):
        value, *rest = tabulated(density, beta, times, tol)
        return (np.where(times > 0.0, -2.0 * tol, value), *rest)

    monkeypatch.setattr(dephasing, "_tabulated", negative)
    path = tmp_path / "table.txt"
    path.write_text("0 0\n1 1\n2 0.5\n")
    out = tmp_path / "x.csv"
    capsys.readouterr()
    assert main(["dephasing-quantum", "--spectral-file", str(path), "--steps", "5",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "qchan: configuration error: Gamma must be nonnegative\n", err
    assert not out.exists()


def test_amp_damping_fewest_steps(tmp_path):
    # --steps counts grid points; the smallest grid the CLI accepts runs
    out = tmp_path / "run.csv"
    assert main(["amp-damping", "--steps", "5", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 3 + 5


def test_bad_flag_raises_systemexit_2():
    with pytest.raises(SystemExit) as info:
        main(["depol-classical", "--no-such-flag"])
    assert info.value.code == 2


def test_reproduce_fig1_columns(tmp_path):
    code = main(["reproduce", "fig1", "--out-dir", str(tmp_path), "--mc", "300", "--seed", "5"])
    assert code == 0
    lines = (tmp_path / "fig1_polarization_factor.csv").read_text().splitlines()
    header = lines[2].split(",")
    assert header[-3:] == ["mc_f", "mc_se", "diff"]
    assert len(lines) == 3 + 400


def test_reproduce_fig2_curves(tmp_path):
    code = main(["reproduce", "fig2", "--out-dir", str(tmp_path)])
    assert code == 0
    dotted = read_series_csv(tmp_path / "fig2_single_mode.csv", "p")
    solid = read_series_csv(tmp_path / "fig2_ohmic_zero_temperature.csv", "p")
    dashed = read_series_csv(tmp_path / "fig2_ohmic_beta_tau.csv", "p")
    assert np.max(dotted[1]) <= 1.0 - math.exp(-2.0) + 1e-9
    assert abs(solid[1][-1] - (1.0 - math.exp(-1.0))) < 2e-3  # approaching 1 - 1/e
    assert np.all(dashed[1][40:] > solid[1][40:])


def test_spectral_file_interface(tmp_path):
    grid = np.linspace(0.0, 40.0, 4001)
    density = 8.0 * math.pi * grid * np.exp(-grid)
    path = tmp_path / "ohmic.txt"
    np.savetxt(path, np.column_stack([grid, density]))
    out = tmp_path / "run.csv"
    code = main(
        ["dephasing-quantum", "--spectral-file", str(path), "--beta", "inf",
         "--t-max", "5", "--steps", "11", "--out", str(out)]
    )
    assert code == 0
    times, p = read_series_csv(out, "p")
    expected = 1.0 - np.exp(-times**2 / (1.0 + times**2))
    assert np.max(np.abs(p - expected)) <= 1e-4


def test_dephasing_classical_mc_columns(tmp_path):
    out = tmp_path / "run.csv"
    code = main(
        ["dephasing-classical", "--cosine", "1:1", "--g", "1", "--t-max", "6",
         "--steps", "25", "--mc", "400", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    header = out.read_text().splitlines()[2].split(",")
    assert header[-4:] == ["mc_re", "mc_im", "mc_se_re", "mc_se_im"]
    times, mc_re = read_series_csv(out, "mc_re")
    _, coherence = read_series_csv(out, "f_or_coherence")
    _, se = read_series_csv(out, "mc_se_re")
    inside = np.abs(mc_re - coherence) <= 4.0 * np.maximum(se, 1e-15)
    assert np.mean(inside) >= 0.95


def test_oracle_subcommand_prints_json(capsys):
    assert main(["oracle", "--model", "spin-bath", "--l", "1", "--g", "1",
                 "--t", "2", "--bloch", "0,0,1"]) == 0
    report = json.loads(capsys.readouterr().out)
    expected = bloch_factor(FixedCoupling(1, 1.0), 2.0)
    assert report["factor"] == pytest.approx(expected, abs=1e-10)


def test_oracle_noise_rotation(capsys):
    assert main(["oracle", "--model", "noise-rotation", "--xi", "0,0,1", "--g", "1",
                 "--t", str(math.pi / 4.0), "--bloch", "1,0,0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert np.allclose(report["bloch_out"], [0.0, 1.0, 0.0], atol=1e-12)


# each input misbehaved before the oracle took the common checks: it printed
# NaN or Infinity, evolved backwards, sampled negative or no times, or died
# with a traceback
ORACLE_FAULTS = [
    ("--model single-excitation --t-max inf", 2, "t-max must be finite and > 0"),
    ("--model single-excitation --t-max -5", 2, "t-max must be finite and > 0"),
    ("--model single-excitation --steps -1", 2, "steps must be >= 5"),
    ("--model single-excitation --steps 0", 2, "steps must be >= 5"),
    ("--model spin-bath --t -2", 2, "t must be finite and >= 0"),
    ("--model noise-rotation --t nan", 2, "t must be finite and >= 0"),
    ("--l 1", 2, "oracle requires --model"),
    ("--model single-excitation --modes 1e308:1", 3, "alpha_im is not finite"),
    ("--model single-excitation --omega 1e308", 3, "alpha_im is not finite"),
    ("--model dephasing-mode --c 1e200", 3, "Fock cap"),
    ("--model dephasing-mode --c 1000", 3, "Fock cap"),  # ~2e6 rows, never allocated
    ("--model dephasing-mode --beta 1e-300", 3, "Fock cap"),
    ("--model dephasing-mode --omega 0", 2, "need beta * frequency > 0"),
    ("--model dephasing-mode --c nan", 2, "finite coupling"),
]


@pytest.mark.parametrize("args, code, message", ORACLE_FAULTS, ids=[a for a, _, _ in ORACLE_FAULTS])
def test_oracle_faults_exit_with_one_line(capsys, args, code, message):
    capsys.readouterr()
    assert main(["oracle", *args.split()]) == code
    out, err = capsys.readouterr()
    kind = {2: "configuration error", 3: "numerical failure"}[code]
    assert out == "" and err.startswith(f"qchan: {kind}: ") and err.count("\n") == 1, err
    assert message in err, err


# a propagator's phases E t carry ~eps max|E| t rad of rounding error; past
# exact.PHASE_TOL the oracle printed confident wrong values and exited 0
ORACLE_PHASES = [
    ("--model spin-bath --g 1e308", 3),
    ("--model dephasing-mode --t 1e300", 3),
    ("--model single-excitation --t-max 1e300", 3),
    ("--model noise-rotation --g 1e300 --bloch 1,0,0", 3),
    # max|E| = 3g/4 at l = 1/2: eps * 3.75e5 = 8.3e-11 rad, just inside
    ("--model spin-bath --g 5e5 --bloch 1,0,0", 0),
]


@pytest.mark.parametrize("args, code", ORACLE_PHASES, ids=[a for a, _ in ORACLE_PHASES])
def test_oracle_refuses_phases_it_cannot_resolve(capsys, args, code):
    capsys.readouterr()
    assert main(["oracle", *args.split()]) == code
    out, err = capsys.readouterr()
    if code:
        assert out == "" and err.startswith("qchan: numerical failure: phases E t"), err
    else:
        expected = bloch_factor(FixedCoupling(0.5, 5e5), np.array([1.0]))[0]
        assert json.loads(out)["factor"] == pytest.approx(expected, abs=1e-9)


def test_oracle_cold_mode_runs(capsys):
    # beta omega = 1000: the thermal occupancy underflows to 0, it must not overflow
    assert main(["oracle", "--model", "dephasing-mode", "--beta", "1000"]) == 0
    assert json.loads(capsys.readouterr().out)["n_max"] == 22


@pytest.mark.parametrize("flags, config", [
    (["--model", "single-excitation", "--modes", "1:1,0.5:2", "--t-max", "5", "--steps", "7"],
     {"model": "single-excitation", "modes": "1:1,0.5:2", "t-max": 5, "steps": 7}),
    (["--model", "dephasing-mode", "--beta", "2", "--c", "1.5", "--t", "3"],
     {"model": "dephasing-mode", "beta": 2, "c": 1.5, "t": 3}),
])
def test_oracle_config_prints_what_its_flags_print(tmp_path, capsys, flags, config):
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["oracle", *flags]) == 0
    by_flags = capsys.readouterr().out
    assert main(["oracle", "--config", str(path)]) == 0
    assert capsys.readouterr().out == by_flags
    # flags still override the file
    assert main(["oracle", "--config", str(path), "--model", "spin-bath"]) == 0
    assert "bloch_out" in json.loads(capsys.readouterr().out)


def test_all_readme_commands_run(tmp_path, monkeypatch, per_cell_writer):
    """Every qchan invocation shown in the README must execute cleanly, and
    every file it writes must match the per-cell reference writer."""
    text = README.read_text()
    blocks = re.findall(r"```sh\n(.*?)```", text, flags=re.S)
    commands = [
        line.strip()
        for block in blocks
        for line in block.splitlines()
        if line.strip().startswith("qchan ")
    ]
    assert len(commands) >= 10
    monkeypatch.chdir(tmp_path)
    calls = []
    write = cli._write_output
    monkeypatch.setattr(cli, "_write_output", lambda *args: calls.append(args) or write(*args))
    for command in commands:
        code = main(shlex.split(command)[1:])
        assert code == 0, f"README command failed: {command}"
    assert len(calls) >= 8
    for name, cfg, columns in calls:
        assert Path(cfg["out"]).read_bytes() == per_cell_writer(name, cfg, columns).encode()


# ------------------------------------------------------------ analytic rates


def rate_columns(tmp_path, argv, name="rate.csv"):
    """(t, gamma, gamma_err) of a generating command's output."""
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    times, gamma = read_series_csv(out, "gamma")
    return times, gamma, read_series_csv(out, "gamma_err")[1]


def test_amp_damping_rate_is_exact(tmp_path):
    # resonant single mode: u = cos t, so gamma = -2 d ln|cos t|/dt = 2 tan t
    times, gamma, err = rate_columns(tmp_path, ["amp-damping"])
    exact = 2.0 * np.tan(times)
    assert np.all(np.isfinite(gamma))
    assert np.all(np.abs(gamma - exact) <= 1e-9 * (1.0 + np.abs(exact)))
    assert np.max(np.abs(gamma)) > 1e3  # the grid passes close to the poles of tan
    assert np.all(err == 0.0)


def test_amp_damping_rate_is_nan_where_capped(tmp_path):
    # 3142 steps over pi put a sample on the zero of cos t
    out = tmp_path / "capped.csv"
    assert main(["amp-damping", "--t-max", str(math.pi), "--steps", "3143",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[3:]]
    capped = [row for row in rows if row[5] == "capped"]
    assert len(capped) == 1 and capped[0][3] == "nan"


def test_fig2_ohmic_zero_temperature_rate(tmp_path):
    assert main(["reproduce", "fig2", "--out-dir", str(tmp_path)]) == 0
    path = tmp_path / "fig2_ohmic_zero_temperature.csv"
    times, gamma = read_series_csv(path, "gamma")
    assert np.all(np.abs(gamma - 2.0 * times / (1.0 + times**2) ** 2) <= 1e-12)
    times, gamma = read_series_csv(tmp_path / "fig2_single_mode.csv", "gamma")
    assert np.all(np.abs(gamma - 0.5 * np.sin(0.5 * times)) <= 1e-12)


def test_single_mode_weight_holds_at_any_beta(tmp_path):
    # --weight already holds coth(beta omega / 2), so beta leaves the rows
    # unchanged: Gamma = 1 - cos(t / 2) also where coth overflows
    rows = {}
    for beta in ("inf", "1", "1e-320"):
        out = tmp_path / f"single_{beta}.csv"
        assert main(["dephasing-quantum", "--single-mode", "--beta", beta, "--steps", "201",
                     "--out", str(out)]) == 0
        rows[beta] = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert rows["1"] == rows["inf"] and rows["1e-320"] == rows["inf"]
    times, coherence = read_series_csv(tmp_path / "single_inf.csv", "f_or_coherence")
    assert np.allclose(-np.log(coherence), 1.0 - np.cos(0.5 * times), rtol=1e-12, atol=1e-15)


def _coth(x):
    return 1.0 / math.tanh(x)


CLOSED_FORM_RATES = {
    "cosine": (
        ["dephasing-classical", "--cosine", "1:1,0.5:2", "--g", "0.7"],
        lambda t: 4.0 * 0.49 * (np.sin(t) + 0.25 * np.sin(2.0 * t) / 2.0),
    ),
    "white-noise": (
        ["dephasing-classical", "--white-noise", "--intensity", "1.5", "--g", "0.7"],
        lambda t: np.full_like(t, 2.0 * 0.49 * 1.5),
    ),
    "modes": (
        ["dephasing-quantum", "--modes", "1:0.5,0.3:2", "--beta", "2"],
        # (1/4) sum |c|^2 coth(beta w/2) sin(w t) / w
        lambda t: 0.25 * (_coth(0.5) * np.sin(0.5 * t) / 0.5
                          + 0.09 * _coth(2.0) * np.sin(2.0 * t) / 2.0),
    ),
}


@pytest.mark.parametrize("model", sorted(CLOSED_FORM_RATES))
def test_closed_form_rates(tmp_path, model):
    argv, exact = CLOSED_FORM_RATES[model]
    times, gamma, err = rate_columns(tmp_path, [*argv, "--t-max", "12", "--steps", "241"])
    reference = exact(times)
    assert np.all(np.abs(gamma - reference) <= 1e-12 * (1.0 + np.abs(reference)))
    assert np.all(err == 0.0)


def quadpack_ohmic_rate(beta, t):
    """QUADPACK value of the fig2 rate int_0^inf g(w) sin(w t) dw with
    g(w) = w exp(-w) coth(beta w/2) (A / 8 pi = 1): the head [0, 2] directly,
    the tail with the Fourier weight (QAWF)."""

    def g(w):
        return 2.0 / beta if w == 0.0 else w * math.exp(-w) / math.tanh(0.5 * beta * w)

    head = quad(lambda w: g(w) * math.sin(w * t), 0.0, 2.0, epsabs=1e-12, epsrel=1e-12,
                limit=200)[0]
    return head + quad(g, 2.0, math.inf, weight="sin", wvar=t, epsabs=1e-12)[0]


@pytest.mark.parametrize("beta", (1.0, 0.1))
def test_ohmic_finite_temperature_rate_vs_quadpack(tmp_path, beta):
    argv = ["dephasing-quantum", "--ohmic-amplitude", repr(8.0 * math.pi), "--cutoff", "1",
            "--beta", str(beta), "--t-max", "25", "--steps", "51"]
    times, gamma, err = rate_columns(tmp_path, argv)
    reference = np.array([quadpack_ohmic_rate(beta, t) for t in times[1:]])
    assert gamma[0] == 0.0
    assert np.max(np.abs(gamma[1:] - reference)) <= 1e-12
    assert np.all(err == 0.0)


def test_quadrature_budget_failure_exits_3(tmp_path, capsys, monkeypatch):
    grid = np.linspace(0.0, 40.0, 401)
    path = tmp_path / "ohmic.txt"
    np.savetxt(path, np.column_stack([grid, 8.0 * math.pi * grid * np.exp(-grid)]))
    integrate = dephasing.integrate_adaptive

    # one split; 1e-13 lies above the rounding floors, but the pass needs 3
    # splits to reach it
    def small_budget(f, edges, tol, max_panels, **kwargs):
        return integrate(f, edges, tol, len(edges), **kwargs)

    monkeypatch.setattr(dephasing, "integrate_adaptive", small_budget)
    argv = ["dephasing-quantum", "--spectral-file", str(path), "--tol", "1e-13",
            "--t-max", "38", "--steps", "20", "--out", str(tmp_path / "x.csv")]
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("qchan: numerical failure: quadrature error estimate"), err
    # the 400 knot intervals and one split
    assert err.rstrip().endswith("above tolerance 1.000e-13 after 401 panels"), err
    assert not (tmp_path / "x.csv").exists()


def test_non_finite_quadrature_exits_3(tmp_path, capsys):
    # a subnormal-wide first knot interval: the nodes round onto w = 0, where
    # coth and 1/w overflow, so Gamma and Gamma' are NaN
    path = tmp_path / "tiny.txt"
    path.write_text("0 1\n5e-324 1\n1 1\n")
    out = tmp_path / "x.csv"
    argv = ["dephasing-quantum", "--spectral-file", str(path), "--beta", "1",
            "--steps", "5", "--t-max", "2", "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("qchan: numerical failure: quadrature gave a non-finite"), err
    assert err.count("\n") == 1
    assert not out.exists()


def test_first_knot_just_above_zero_exits_0(tmp_path):
    # J = 1 at a first knot 1e-8 and beta = 1: the panels' rounding floor on
    # W/w ~ J / (4 pi beta w^2) there would be ~3e-7, above --tol, so the
    # singular part of [1e-8, 1] is taken in closed form
    path = tmp_path / "near_zero.txt"
    path.write_text("1e-8 1\n1 1\n2 0.5\n")
    argv = ["dephasing-quantum", "--spectral-file", str(path), "--beta", "1",
            "--steps", "201", "--t-max", "10", "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 0


def test_filon_work_does_not_grow_with_t(tmp_path, monkeypatch):
    # the same table at --t-max 25 and 400: the same Filon panels, one
    # tangent per (time, panel), and one per positive Gauss-Legendre node
    # per moment set (time, width class) with kappa <= _FORWARD, which is
    # every set here at both --t-max; the first knot interval's Si and Cin
    # take _GAUSS per time up to _SI_SWITCH, one above it
    grid = np.linspace(0.0, 20.0, 1001)
    density = grid * np.exp(-grid / 3.0) * (1.5 + np.exp(-((grid - 5.0) ** 2)))
    path = tmp_path / "table.txt"
    np.savetxt(path, np.column_stack([grid, density]), fmt="%.17g")
    panels, tangents = [], []
    integrate, tangent = dephasing.integrate_adaptive, _quadrature.double_angle

    def recording(f, edges, *args, **kwargs):
        result = integrate(f, edges, *args, **kwargs)
        assert np.array_equal(edges, grid)  # the one pass, over all the knots
        panels.append(np.concatenate(result[:2]))
        return result

    def counting(x, **kwargs):
        tangents[-1] += x.size
        return tangent(x, **kwargs)

    monkeypatch.setattr(dephasing, "integrate_adaptive", recording)
    monkeypatch.setattr(_quadrature, "double_angle", counting)
    for t_max in ("25", "400"):
        tangents.append(0)
        argv = ["dephasing-quantum", "--spectral-file", str(path), "--beta", "1",
                "--t-max", t_max, "--steps", "251", "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 0
    assert len(panels) == 2 and np.array_equal(panels[0], panels[1])
    lo, hi = np.split(panels[0], 2)
    expected = []
    for t_max in (25.0, 400.0):
        kappa = 0.5 * np.multiply.outer(class_widths(lo, hi), np.linspace(0.0, t_max, 251))
        gauss = np.sum(kappa <= _quadrature._FORWARD)
        x = grid[1] * np.linspace(0.0, t_max, 251)
        closed = _quadrature._GAUSS * np.sum(x <= _quadrature._SI_SWITCH) + np.sum(x > _quadrature._SI_SWITCH)
        expected.append(251 * lo.size + _quadrature._HALF_X.size * int(gauss) + int(closed))
    assert expected[0] == expected[1] == 251 * (lo.size + _quadrature._HALF_X.size + _quadrature._GAUSS)
    assert tangents == expected


def test_tabulated_rate_within_gamma_err(tmp_path):
    rng = np.random.default_rng(7)
    grid = np.linspace(0.0, 20.0, 1001)
    density = grid * np.exp(-grid / 3.0) * (1.5 + np.exp(-((grid - rng.uniform(2.0, 8.0)) ** 2)))
    path = tmp_path / "table.txt"
    np.savetxt(path, np.column_stack([grid, density]), fmt="%.17g")
    argv = ["dephasing-quantum", "--spectral-file", str(path), "--beta", "1",
            "--t-max", "25", "--steps", "26"]
    times, gamma, err = rate_columns(tmp_path, argv)

    def integrand(w):
        if w <= 0.0:
            return np.zeros_like(times)  # w coth(w/2) sin(w t) / w -> 0
        j = np.interp(w, grid, density)
        return j * np.sin(w * times) / math.tanh(0.5 * w) / (8.0 * math.pi)

    reference, reference_err = quad_vec(
        integrand, 0.0, 20.0, epsabs=1e-14, epsrel=0.0, points=grid[1:-1],
        norm="max", limit=100000,
    )
    assert np.all(err[1:] > 0.0)
    assert np.all(np.abs(gamma - reference) <= err + reference_err)


@pytest.mark.parametrize(
    "argv",
    [
        ["depol-classical"],
        ["depol-spinbath", "--ensemble", "lorentzian", "--l", "1", "--a", "0.8",
         "--t-max", "20", "--steps", "401"],
        ["dephasing-quantum", "--single-mode"],
        ["dephasing-quantum", "--ohmic-amplitude", "8", "--beta", "1"],
        ["dephasing-classical", "--cosine", "1:1,0.5:2"],
        ["amp-damping", "--modes", "1:1,0.5:1.5,0.3:0.7", "--t-max", "3", "--steps", "1501"],
    ],
    ids=["classical", "lorentzian", "single-mode", "ohmic", "cosine", "3-modes"],
)
def test_finite_differences_agree_with_analytic_rates(tmp_path, argv):
    # the cross-check: analyze's extractor, reading the factor column back,
    # lands within its own error estimate of the written analytic rate
    out = tmp_path / "run.csv"
    assert main([*argv, "--out", str(out)]) == 0
    times, factor = read_series_csv(out, "f_or_coherence")
    gamma = read_series_csv(out, "gamma")[1]
    if argv[0] == "amp-damping":
        factor = factor**2  # the population exponent Gamma is -ln |alpha|^2
    extracted = rate_from_series(TimeSeries(times, factor, "bloch-factor"))
    assert np.all(np.abs(extracted.values - gamma) <= extracted.error)


# the qchan modules every run loads: the CLI, the pole rule and the errors
CLI_CORE = {"qchan", "qchan.cli", "qchan._common", "qchan.errors"}
# argv (None: import qchan.cli only) -> the qchan modules the run loads on
# top of CLI_CORE; no run loads scipy
IMPORT_SETS = {
    "import": (None, set()),
    "help": (["--help"], set()),
    "analyze": (["analyze", "series.csv"], {"rates"}),
    "depol-spinbath": (["depol-spinbath"], {"_csv", "spin_bath"}),
    "amp-damping": (["amp-damping"], {"_csv", "channels", "damping", "states"}),
    "depol-classical": (["depol-classical"], {"_csv", "_rng", "classical_field", "states"}),
    "depol-classical-mc": (["depol-classical", "--mc", "50"],
                           {"_csv", "_rng", "classical_field", "states"}),
    "dephasing-classical-mc": (["dephasing-classical", "--cosine", "1:1", "--mc", "50"],
                               {"_csv", "_quadrature", "_rng", "dephasing", "states"}),
    "reproduce-fig2": (["reproduce", "fig2"],
                       {"_csv", "_quadrature", "_rng", "dephasing", "states"}),
}

# runs ``python -m qchan`` with the given arguments (or only imports
# qchan.cli) and prints the modules it loaded as the last line
IMPORT_PROBE = """
import json, runpy, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import qchan.cli
else:
    sys.argv[1:] = argv
    try:
        runpy.run_module("qchan", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        assert exc.code == 0, exc.code
print(json.dumps(sorted(sys.modules)))
"""


@pytest.mark.parametrize("case", IMPORT_SETS)
def test_command_loads_only_its_modules(tmp_path, case):
    argv, extra = IMPORT_SETS[case]
    src = Path(dephasing.__file__).resolve().parents[1]
    assert main(["depol-spinbath", "--out", str(tmp_path / "series.csv")]) == 0
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps(argv)], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(src)}, cwd=tmp_path,
    )
    loaded = json.loads(result.stdout.splitlines()[-1])
    assert {m for m in loaded if m.split(".")[0] == "qchan"} == CLI_CORE | {
        f"qchan.{name}" for name in extra
    }
    assert "numpy" in loaded
    assert not any(m.split(".")[0] == "scipy" for m in loaded)


def test_analyze_table_spells_the_rates_constants():
    # the command table holds these values so that importing the CLI skips rates
    assert cli._COLUMNS == {
        "f": ("f_or_coherence", rates.MEANING_BLOCH_FACTOR),
        "p": ("p", rates.MEANING_PROBABILITY),
    }
    assert cli._defaults(cli._COMMANDS["analyze"])["eps_rel"] == rates.DEFAULT_EPS_REL


def test_parser_reuse_keeps_runs_independent(tmp_path, monkeypatch):
    # main() parses with one parser per process; a flag given to one run
    # must not leak into the next, so two runs match two fresh processes
    src = Path(dephasing.__file__).resolve().parents[1]
    runs = [
        ["dephasing-classical", "--cosine", "1:1", "--steps", "11", "--mc", "50", "--seed", "7"],
        ["dephasing-classical", "--cosine", "1:1", "--steps", "11", "--mc", "50"],
    ]
    same, fresh = tmp_path / "same", tmp_path / "fresh"
    same.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(same)
    for k, argv in enumerate(runs):
        assert main([*argv, "--out", f"run{k}.csv"]) == 0
    for k, argv in enumerate(runs):
        subprocess.run(
            [sys.executable, "-m", "qchan", *argv, "--out", f"run{k}.csv"],
            env={**os.environ, "PYTHONPATH": str(src)}, cwd=fresh, check=True,
        )
        assert (same / f"run{k}.csv").read_bytes() == (fresh / f"run{k}.csv").read_bytes()
    assert (same / "run0.csv").read_bytes() != (same / "run1.csv").read_bytes()


def test_python_m_qchan_runs_the_cli(tmp_path):
    src = Path(dephasing.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "qchan", "--help"], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, cwd=tmp_path,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("usage: qchan")


# ------------------------------------------------------ one evaluation path

# one command of each generating model family; amp-damping once built its
# own grid, whose last point at these settings was 11.999999999999998
LAST_TIME = {
    "depol-spinbath": ["depol-spinbath", "--ensemble", "uniform"],
    "depol-classical": ["depol-classical"],
    "dephasing-quantum": ["dephasing-quantum", "--ohmic-amplitude", "8", "--beta", "1"],
    "dephasing-classical": ["dephasing-classical", "--cosine", "1:1"],
    "amp-damping": ["amp-damping"],
}


@pytest.mark.parametrize("name", LAST_TIME)
def test_last_time_is_t_max(tmp_path, name):
    out = tmp_path / "run.csv"
    assert main([*LAST_TIME[name], "--t-max", "12", "--steps", "10001", "--out", str(out)]) == 0
    times, _ = read_series_csv(out, "p")
    assert times.size == 10001 and times[-1] == 12.0
    assert np.array_equal(times, np.linspace(0.0, 12.0, 10001))


def test_solve_amplitude_ends_at_t_max():
    spec = AmplitudeKernelSpec(1.0, ((1.0, 1.0),))
    assert solve_amplitude(spec, 12.0, 10000).times[-1] == 12.0


def spin_views(ensemble):
    return {
        "f_or_coherence": lambda t: spin_bath.bloch_factor(ensemble, t),
        "p": lambda t: spin_bath.depolarization_probability(ensemble, t),
        "gamma": lambda t: spin_bath.decay_rate(ensemble, t),
    }


def exponent_views(gamma):
    return {
        "f_or_coherence": lambda t: np.exp(-gamma(t)),
        "p": lambda t: 1.0 - np.exp(-gamma(t)),
    }


def damping_views(modes, t_max, steps):
    def solution(_):
        return solve_amplitude(AmplitudeKernelSpec(1.0, modes), t_max, steps - 1)

    return {
        "t": lambda t: solution(t).times,
        "f_or_coherence": lambda t: np.exp(-0.5 * solution(t).gamma),
        "p": lambda t: 1.0 - np.exp(-solution(t).gamma),
        "omega_phase": lambda t: solution(t).phase,
    }


NOISE = classical_field.IsotropicGaussianNoise(1.5, 0.5)
KNOTS = np.linspace(0.0, 40.0, 401)
TABLE = dephasing.TabulatedDensity(KNOTS, KNOTS * np.exp(-KNOTS / 3.0))

# generating command -> (argv, {column: the public view of the same model});
# "TABLE" stands for the file of the density TABLE
VIEWS = {
    "fixed-poles": (
        ["depol-spinbath", "--l", "1", "--t-max", "4", "--steps", "81"],
        spin_views(spin_bath.FixedCoupling(1, 1.0)),
    ),
    "gaussian": (
        ["depol-spinbath", "--ensemble", "gaussian", "--l", "1", "--G", "0.5", "--sigma", "0.7"],
        spin_views(spin_bath.GaussianCoupling(1, 0.5, 0.7)),
    ),
    "lorentzian": (
        ["depol-spinbath", "--ensemble", "lorentzian", "--l", "1.5", "--a", "0.8"],
        spin_views(spin_bath.LorentzianCoupling(1.5, 0.8)),
    ),
    "uniform": (
        ["depol-spinbath", "--ensemble", "uniform", "--g-lo", "0.5", "--g-hi", "1.5"],
        spin_views(spin_bath.UniformCoupling(0.5, 0.5, 1.5)),
    ),
    "spin-star": (
        ["depol-spinbath", "--ensemble", "spin-star", "--N", "10"],
        spin_views(spin_bath.SpinStar(10, 1.0)),
    ),
    "custom": (
        ["depol-spinbath", "--ensemble", "custom", "--components", "[[0.5, 1, 0.25], [1.5, 2, 0.75]]"],
        spin_views(spin_bath.CustomEnsemble(((0.5, 1.0, 0.25), (1.5, 2.0, 0.75)))),
    ),
    "classical": (
        ["depol-classical", "--g", "1.5", "--sigma", "0.5"],
        {
            "f_or_coherence": lambda t: classical_field.polarization_factor(NOISE, t),
            "p": lambda t: 1.0 - classical_field.polarization_factor(NOISE, t),
            "gamma": lambda t: classical_field.classical_decay_rate(NOISE, t),
        },
    ),
    "modes": (
        ["dephasing-quantum", "--modes", "1:1,0.5:2", "--beta", "2"],
        exponent_views(lambda t: dephasing.gamma_discrete(
            dephasing.DiscreteBosonBath(((1.0, 1.0), (0.5, 2.0)), 2.0), t)),
    ),
    "ohmic": (
        ["dephasing-quantum", "--ohmic-amplitude", "8", "--beta", "1"],
        exponent_views(lambda t: dephasing.gamma_continuum(
            dephasing.OhmicExpDensity(8.0, 1.0), 1.0, t)),
    ),
    "tabulated": (
        ["dephasing-quantum", "--spectral-file", "TABLE", "--beta", "1", "--tol", "1e-9"],
        exponent_views(lambda t: dephasing.gamma_continuum(
            TABLE, 1.0, t, 1e-9)),
    ),
    "cosine": (
        ["dephasing-classical", "--cosine", "1:1,0.5:2", "--g", "0.7"],
        exponent_views(lambda t: dephasing.gamma_classical(
            dephasing.CosineSumProcess(((1.0, 1.0), (0.5, 2.0))), 0.7, t)),
    ),
    "white-noise": (
        ["dephasing-classical", "--white-noise", "--intensity", "0.3", "--g", "2"],
        exponent_views(lambda t: dephasing.gamma_classical(
            dephasing.WhiteNoiseProcess(0.3), 2.0, t)),
    ),
    "damping-capped": (
        ["amp-damping", "--t-max", repr(math.pi), "--steps", "3143"],
        damping_views(((1.0, 1.0),), math.pi, 3143),
    ),
    "damping-3-modes": (
        ["amp-damping", "--modes", "1:1,0.5:1.5,0.3:0.7", "--t-max", "12", "--steps", "10001"],
        damping_views(((1.0, 1.0), (0.5, 1.5), (0.3, 0.7)), 12.0, 10001),
    ),
}


@pytest.mark.parametrize("name", VIEWS)
def test_columns_are_the_public_views(tmp_path, name):
    # the CLI and the public views share one evaluator per model, so every
    # written column is the view at the file's t, bit for bit; gamma is
    # compared at the unflagged points, where the rate views are defined
    table = tmp_path / "table.txt"
    np.savetxt(table, np.column_stack([TABLE.frequencies, TABLE.values]))  # exact round trip
    argv, views = VIEWS[name]
    argv = [str(table) if arg == "TABLE" else arg for arg in argv]
    out = tmp_path / "run.json"
    assert main([*argv, "--format", "json", "--out", str(out)]) == 0
    columns = json.loads(out.read_text())["columns"]
    times = np.array(columns["t"], dtype=float)
    flagged = np.array(columns["flags"]) != ""
    if name.endswith(("poles", "capped")):
        assert flagged.any()
    for column, view in views.items():
        written = np.array(columns[column], dtype=float)
        if column == "gamma":
            written, at = written[~flagged], times[~flagged]
        else:
            at = times
        assert np.array_equal(written, view(at)), column


# ------------------------------------------------------------ writer and reader

GENERATING = {
    "fixed-poles": ["depol-spinbath", "--ensemble", "fixed", "--l", "1", "--t-max", "4",
                    "--steps", "81"],
    "spin-star-poles": ["depol-spinbath", "--ensemble", "spin-star", "--N", "10"],
    "classical-mc": ["depol-classical", "--steps", "40", "--mc", "200", "--seed", "9"],
    "single-mode": ["dephasing-quantum", "--single-mode"],
    "ohmic": ["dephasing-quantum", "--ohmic-amplitude", "8", "--beta", "1"],
    "cosine-mc": ["dephasing-classical", "--cosine", "1:1,0.5:2", "--steps", "51", "--mc",
                  "200", "--seed", "3"],
    "damping-capped": ["amp-damping", "--t-max", str(math.pi), "--steps", "3143"],
    "damping-3-modes": ["amp-damping", "--modes", "1:1,0.5:1.5,0.3:0.7", "--steps", "201"],
    # the shapes of the benchmark's I/O workload
    "damping-20001": ["amp-damping", "--steps", "20001"],
    "spin-star-20001": ["depol-spinbath", "--ensemble", "spin-star", "--N", "40", "--t-max", "10",
                        "--steps", "20001"],
}

FLAGGED = {"fixed-poles": "pole", "spin-star-poles": "pole", "damping-capped": "capped"}

SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]


def flag_column(texts):
    """The writer's flags pair (spellings, codes) for one text per row."""
    words = ("", "pole", "capped")
    return words, np.array([words.index(text) for text in texts], dtype=np.uint8)


def assert_writer_matches(tmp_path, reference, command, cfg, columns):
    for fmt in ("csv", "json"):
        out = tmp_path / f"written.{fmt}"
        sub = {**cfg, "format": fmt, "out": str(out)}
        cli._write_output(command, sub, columns)
        assert out.read_bytes() == reference(command, sub, columns).encode(), fmt


@pytest.mark.parametrize("name", GENERATING)
def test_writer_matches_per_cell_builder(tmp_path, monkeypatch, per_cell_writer, name):
    calls = []
    write = cli._write_output
    monkeypatch.setattr(cli, "_write_output", lambda *args: calls.append(args) or write(*args))
    assert main([*GENERATING[name], "--out", str(tmp_path / "run.csv")]) == 0
    ((command, cfg, columns),) = calls
    if name in FLAGGED:
        words, codes = columns["flags"]
        assert words[1] == FLAGGED[name] and codes.any()
    assert_writer_matches(tmp_path, per_cell_writer, command, cfg, columns)


def test_out_dash_writes_the_file_text_to_stdout(capsys, monkeypatch, per_cell_writer):
    calls = []
    write = cli._write_output
    monkeypatch.setattr(cli, "_write_output", lambda *args: calls.append(args) or write(*args))
    for steps in ("11", "401"):  # a tiny table, and one of the Monte Carlo files' size
        assert main(["amp-damping", "--steps", steps, "--out", "-"]) == 0
        command, cfg, columns = calls[-1]
        assert capsys.readouterr().out == per_cell_writer(command, cfg, columns)


@pytest.mark.parametrize(
    "columns",
    [
        {"t": np.arange(6.0), "x": np.array(SPECIAL_FLOATS),
         "y": np.array(SPECIAL_FLOATS[::-1]),
         "flags": flag_column(["", "pole", "", "capped", "", ""])},
        {"t": np.array([0.0]), "f_or_coherence": np.array([-0.0]), "flags": flag_column(["pole"])},
        # 600 rows of special values, and an all +0.0 column
        {"t": np.arange(600.0), "x": np.resize(SPECIAL_FLOATS, 600),
         "zero": np.zeros(600), "flags": flag_column(["", "pole", "capped"] * 200)},
    ],
    ids=["special-values", "one-row", "special-values-600-rows"],
)
def test_writer_special_values_match_per_cell_builder(tmp_path, per_cell_writer, columns):
    assert_writer_matches(tmp_path, per_cell_writer, "depol-classical", {"seed": 1}, columns)


def test_json_writer_matches_json_dumps_across_slabs(tmp_path, capsys, per_cell_writer):
    # 9000 rows span three 4096-row slabs; NaN, +-inf and flags in each
    rows = 9000
    columns = {"t": np.linspace(0.0, 1.0, rows), "gamma": np.resize(SPECIAL_FLOATS, rows),
               "mc_f": np.cos(np.arange(rows)), "diff": np.full(rows, math.nan),
               "flags": flag_column(["", "pole", "", "capped"] * (rows // 4))}
    cfg = {"seed": 1, "format": "json"}
    expected = per_cell_writer("depol-classical", {**cfg, "out": "-"}, columns)
    capsys.readouterr()
    cli._write_output("depol-classical", {**cfg, "out": "-"}, columns)
    assert capsys.readouterr().out == expected
    out = tmp_path / "written.json"
    cli._write_output("depol-classical", {**cfg, "out": str(out)}, columns)
    # the reference echoes its own "out" in the config
    assert out.read_text() == expected.replace('"out": "-"', f'"out": {json.dumps(str(out))}')


def test_json_writer_memory_is_bounded(tmp_path):
    # the whole-payload writer held every cell as a Python float and the
    # whole text twice, ~27 MB here; by slabs it takes ~1 MB
    times = np.linspace(0.0, 10.0, 40_001)
    columns = cli._columns(times, np.cos(times) ** 2, -np.sin(2.0 * times))
    cfg = {"format": "json", "out": str(tmp_path / "big.json")}
    tracemalloc.start()
    try:
        cli._write_output("depol-spinbath", cfg, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


@pytest.mark.parametrize("argv", GENERATING.values(), ids=GENERATING)
def test_reader_matches_float_per_cell(tmp_path, argv):
    out = tmp_path / "run.csv"
    assert main([*argv, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = lines[2].split(",")
    rows = [line.split(",") for line in lines[3:]]
    for j, name in enumerate(header):
        if name == "flags":
            continue
        times, values = read_series_csv(out, name)
        expected = np.array([[float(row[0]), float(row[j])] for row in rows])
        assert times.tobytes() == expected[:, 0].tobytes(), name
        assert values.tobytes() == expected[:, 1].tobytes(), name


def test_reader_skips_blank_and_comment_lines_and_crlf(tmp_path):
    path = tmp_path / "mixed.csv"
    text = "# qchan test\r\nt,f_or_coherence\r\n\r\n0,1\r\n   \r\n# note\r\n0.5,0.25\r\n\t\r\n1,-0\r\n"
    path.write_bytes(text.encode())
    times, values = read_series_csv(path, "f_or_coherence")
    assert times.tolist() == [0.0, 0.5, 1.0]
    assert values.tobytes() == np.array([1.0, 0.25, -0.0]).tobytes()


def test_reader_refuses_a_pipe(tmp_path, capsys):
    # np.loadtxt would open the path a second time and miss the rows that the
    # first open had buffered (or wait for a second writer); a file that
    # cannot seek back is refused instead
    fifo = tmp_path / "table.fifo"
    os.mkfifo(fifo)

    def write():
        try:
            with open(fifo, "w") as fh:
                fh.write("t,f_or_coherence\n" + "".join(f"{t},1\n" for t in range(9)))
        except BrokenPipeError:
            pass

    codes = []
    threads = [threading.Thread(target=write, daemon=True),
               threading.Thread(target=lambda: codes.append(main(["analyze", str(fifo)])),
                                daemon=True)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert codes == [2]
    err = capsys.readouterr().err
    assert err.startswith(f"qchan: configuration error: cannot read {fifo}:"), err
    assert "not seekable" in err, err


def test_reader_reads_every_written_table_without_the_line_filter(tmp_path, monkeypatch):
    # the line filter hands np.loadtxt a list of lines; numpy's reader takes the path
    sources = []
    loadtxt = np.loadtxt

    def recorded(source, *args, **kwargs):
        sources.append(source)
        return loadtxt(source, *args, **kwargs)

    monkeypatch.setattr(cli.np, "loadtxt", recorded)
    for name, argv in GENERATING.items():
        out = tmp_path / f"{name}.csv"
        assert main([*argv, "--out", str(out)]) == 0
        header = out.read_text().splitlines()[2].split(",")
        for column in header:
            if column != "flags":
                sources.clear()
                times, _ = read_series_csv(out, column)
                assert times[0] == 0.0, (name, column)
                assert sources == [out], (name, column)


@pytest.fixture(scope="module")
def written_table(tmp_path_factory):
    out = tmp_path_factory.mktemp("table") / "written.csv"
    assert main(["depol-spinbath", "--ensemble", "fixed", "--l", "1", "--t-max", "4",
                 "--steps", "41", "--out", str(out)]) == 0
    return out


SKIPPED_LINES = st.one_of(
    st.text(" \t\x0b\x0c", max_size=3),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12).map("#".__add__),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 41), SKIPPED_LINES), max_size=8))
def test_reader_skips_inserted_blank_and_comment_lines(written_table, insertions):
    lines = written_table.read_text().split("\n")  # 3 leading lines, 41 rows, then ""
    for row, line in sorted(insertions, key=lambda pair: -pair[0]):
        lines.insert(3 + row, line)
    mixed = written_table.with_name("mixed.csv")
    mixed.write_text("\n".join(lines))
    for column in ("f_or_coherence", "gamma"):
        expected = read_series_csv(written_table, column)
        got = read_series_csv(mixed, column)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]


# files that np.loadtxt would read otherwise than the line filter: a comment
# row outside the columns read, a compression suffix on a plain text file
@pytest.mark.parametrize("name, text", [
    ("t_second.csv", "x,t,f_or_coherence\n9,0,1\n# a,1,2\n9,1,0.5\n"),
    ("plain.csv.gz", "t,f_or_coherence\n0,1\n1,0.5\n"),
    ("plain.csv.xz", "# qchan\nt,f_or_coherence\n0,1\n\n1,0.5\n"),
])
def test_reader_reads_what_the_line_filter_reads(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    times, values = read_series_csv(path, "f_or_coherence")
    assert times.tolist() == [0.0, 1.0] and values.tolist() == [1.0, 0.5]


@pytest.mark.parametrize("text, message", [
    ("t,f_or_coherence\n", "holds no data"),
    ("# qchan\nt,f_or_coherence\n\n   \n\n", "holds no data"),
    ("t,f_or_coherence\n# only a comment\n", "holds no data"),
    ("t,f_or_coherence\n0,1\n0.5,0.25#x\n", "malformed data"),
])
def test_reader_refuses_without_a_warning(tmp_path, capsys, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["analyze", str(path)]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("qchan: configuration error:") and message in err, err
