import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from qchan import FixedCoupling, TimeSeries, bloch_factor, classify, rate_from_series, spin_bath
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
        "spectral.txt": "0 1\n1 x\n",
        "spectral_inf.txt": "0 0\n1 inf\n2 1\n",
        "spectral_nan.txt": "0 0\n1 nan\n2 1\n",
        "steps.json": json.dumps({"steps": "abc"}),
        "mc.json": json.dumps({"mc": "x"}),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out = str(tmp_path / "w.csv")
    commands = [
        ["analyze", str(tmp_path / "non_numeric.csv")],
        ["analyze", str(tmp_path / "short_row.csv")],
        ["dephasing-quantum", "--spectral-file", str(tmp_path / "spectral.txt"), "--out", out],
        ["dephasing-quantum", "--spectral-file", str(tmp_path / "spectral_inf.txt"), "--out", out],
        ["dephasing-quantum", "--spectral-file", str(tmp_path / "spectral_nan.txt"), "--out", out],
        ["dephasing-classical", "--cosine", "1:nan", "--out", out],
        ["depol-classical", "--config", str(tmp_path / "steps.json"), "--out", out],
        ["reproduce", "fig1", "--config", str(tmp_path / "mc.json"), "--out-dir", str(tmp_path)],
        ["depol-spinbath", "--ensemble", "custom", "--components", "[[1]]", "--out", out],
    ]
    capsys.readouterr()
    for argv in commands:
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("qchan: configuration error:"), argv


def test_numerical_failure_exits_3(tmp_path, monkeypatch):
    # an unresolvable quadrature budget is a numerical failure, not config
    grid = np.linspace(0.0, 40.0, 401)
    path = tmp_path / "ohmic.txt"
    np.savetxt(path, np.column_stack([grid, 8.0 * math.pi * grid * np.exp(-grid)]))
    out = str(tmp_path / "x.csv")
    code = main(
        ["dephasing-quantum", "--spectral-file", str(path),
         "--tol", "1e-30", "--t-max", "40", "--steps", "6", "--out", out]
    )
    assert code == 3

    # so is a size cap, checked before any table is built or matrix diagonalized
    def no_work(*args, **kwargs):
        raise AssertionError("size cap checked too late")

    monkeypatch.setattr(spin_bath, "degeneracy", no_work)
    monkeypatch.setattr(np.linalg, "eigh", no_work)
    star = ["depol-spinbath", "--ensemble", "spin-star", "--N", str(SPIN_STAR_CAP + 1)]
    assert main([*star, "--out", out]) == 3
    modes = ",".join(["0.01:1"] * (MODE_CAP + 1))
    assert main(["oracle", "--model", "single-excitation", "--modes", modes]) == 3


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


def test_all_readme_commands_run(tmp_path, monkeypatch):
    """Every qchan invocation shown in the README must execute cleanly."""
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
    for command in commands:
        code = main(shlex.split(command)[1:])
        assert code == 0, f"README command failed: {command}"
