import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad, quad_vec

from qchan import (
    DomainError,
    FixedCoupling,
    TimeSeries,
    bloch_factor,
    classical_field,
    classify,
    dephasing,
    rate_from_series,
    spin_bath,
)
from qchan import _quadrature, cli
from qchan._rng import MONTE_CARLO_CAP
from qchan.cli import main, read_series_csv
from qchan.exact import MODE_CAP
from qchan.spin_bath import SPIN_STAR_CAP

README = Path(__file__).resolve().parent.parent / "README.md"


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
        if command.config and "--t-max" in flags:
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
    out = str(tmp_path / "w.csv")
    commands = [
        ["analyze", str(tmp_path / "non_numeric.csv")],
        ["analyze", str(tmp_path / "short_row.csv")],
        ["analyze", str(tmp_path / "header_only.csv")],
        ["analyze", str(tmp_path / "underscore.csv")],
        ["dephasing-quantum", "--spectral-file", str(tmp_path / "spectral.txt"), "--out", out],
        ["dephasing-quantum", "--spectral-file", str(tmp_path / "spectral_inf.txt"), "--out", out],
        ["dephasing-quantum", "--spectral-file", str(tmp_path / "spectral_nan.txt"), "--out", out],
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
    capsys.readouterr()
    for argv in commands:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("qchan: configuration error:") and err.count("\n") == 1, argv
        if "--t-max" in argv:
            assert "t-max must be finite and > 0" in err, argv
    assert not Path(out).exists()

    # a switch set false is unset, so it is not a second source
    (tmp_path / "switch_false.json").write_text(
        json.dumps({"single-mode": False, "ohmic-amplitude": 1})
    )
    assert main(["dephasing-quantum", "--config", str(tmp_path / "switch_false.json"),
                 "--out", out]) == 0
    assert '"ohmic_amplitude": 1.0' in Path(out).read_text()


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
    # the rounding floors alone exceed 1e-30, so each pass stops after its
    # first rule call instead of bisecting to 50000 panels, and says so
    assert len(calls) == 2
    err = capsys.readouterr().err
    floor = re.fullmatch(
        r"qchan: numerical failure: quadrature tolerance 1\.000e-30 lies below its rounding "
        r"floor (\S+) \(error estimate \S+\)\n", err
    )
    assert floor and 1e-16 < float(floor.group(1)) < 1e-12, err

    # so is a size cap, checked before any table is built or matrix diagonalized
    def no_work(*args, **kwargs):
        raise AssertionError("size cap checked too late")

    monkeypatch.setattr(spin_bath, "degeneracy", no_work)
    monkeypatch.setattr(np.linalg, "eigh", no_work)
    star = ["depol-spinbath", "--ensemble", "spin-star", "--N", str(SPIN_STAR_CAP + 1)]
    assert main([*star, "--out", out]) == 3
    modes = ",".join(["0.01:1"] * (MODE_CAP + 1))
    assert main(["oracle", "--model", "single-excitation", "--modes", modes]) == 3
    assert main(["amp-damping", "--modes", modes, "--out", out]) == 3
    monkeypatch.setattr(classical_field, "realization_normals", no_work)
    monkeypatch.setattr(dephasing, "realization_normals", no_work)
    mc = str(MONTE_CARLO_CAP // 201 + 1)
    assert main(["depol-classical", "--steps", "201", "--mc", mc, "--out", out]) == 3
    cosine = ["dephasing-classical", "--cosine", "1:1", "--steps", "201", "--mc", mc]
    assert main([*cosine, "--out", out]) == 3


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

    # one split per pass; 1e-13 lies above the rounding floors, but the
    # Filon pass needs 4 splits to reach it
    def small_budget(f, edges, tol, max_panels, **kwargs):
        return integrate(f, edges, tol, len(edges), **kwargs)

    monkeypatch.setattr(dephasing, "integrate_adaptive", small_budget)
    argv = ["dephasing-quantum", "--spectral-file", str(path), "--tol", "1e-13",
            "--t-max", "38", "--steps", "20", "--out", str(tmp_path / "x.csv")]
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("qchan: numerical failure: quadrature error estimate"), err
    # 400 Filon panels and 2 on the first knot interval
    assert err.rstrip().endswith("above tolerance 1.000e-13 after 402 panels"), err
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


def test_filon_work_does_not_grow_with_t(tmp_path, monkeypatch):
    # the same table at --t-max 25 and 400: the same Filon panels, and one
    # tangent per (time, panel)
    grid = np.linspace(0.0, 20.0, 1001)
    density = grid * np.exp(-grid / 3.0) * (1.5 + np.exp(-((grid - 5.0) ** 2)))
    path = tmp_path / "table.txt"
    np.savetxt(path, np.column_stack([grid, density]), fmt="%.17g")
    panels, tangents = [], []
    integrate, tangent = dephasing.integrate_adaptive, _quadrature.double_angle

    def recording(f, edges, *args, **kwargs):
        result = integrate(f, edges, *args, **kwargs)
        if np.array_equal(edges, grid[1:]):  # the Filon pass
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
    assert tangents == [251 * (panels[0].size // 2)] * 2


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


def test_cli_import_leaves_scipy_out(tmp_path):
    src = Path(dephasing.__file__).resolve().parents[1]
    probe = "import sys, qchan.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)}, cwd=tmp_path,
    )
    assert result.stdout.strip() == "[]"


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
        assert FLAGGED[name] in columns["flags"]
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
         "y": np.array(SPECIAL_FLOATS[::-1]), "flags": ["", "pole", "", "capped", "", ""]},
        {"t": np.array([0.0]), "f_or_coherence": np.array([-0.0]), "flags": ["pole"]},
        # 600 rows of special values, and an all +0.0 column
        {"t": np.arange(600.0), "x": np.resize(SPECIAL_FLOATS, 600),
         "zero": np.zeros(600), "flags": ["", "pole", "capped"] * 200},
    ],
    ids=["special-values", "one-row", "special-values-600-rows"],
)
def test_writer_special_values_match_per_cell_builder(tmp_path, per_cell_writer, columns):
    assert_writer_matches(tmp_path, per_cell_writer, "depol-classical", {"seed": 1}, columns)


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
