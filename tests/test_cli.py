import hashlib
import json
import math
import subprocess
import sys
import time
import xml.etree.ElementTree as ET

import pytest

from wslab import cli
from wslab.theory import info_rate, tractable_rate
from wslab.verify import SUITES, CheckResult


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_rates_matches_theory(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, "rates.json", {"d": 100, "s": 2, "n": 1000, "alpha": [0.0, 0.5, 1.0]}
    )
    assert cli.main(["rates", "--config", cfg]) == 0
    out = capsys.readouterr().out
    rows = [line for line in out.strip().split("\n") if not line.startswith("#")]
    assert rows[0] == "alpha,gamma_info,gamma_tract"
    assert len(rows) == 4
    for line in rows[1:]:
        alpha, gi, gt = (float(v) for v in line.split(","))
        assert gi == info_rate(100, 2, 1000, alpha)
        assert gt == tractable_rate(100, 2, 1000, alpha)
    assert "# config:" in out


def test_rates_output_ignores_settings_it_does_not_read(tmp_path, capsys):
    outputs = []
    for trials in (7, 500):
        cfg = _write_config(
            tmp_path, "rates.json", {"d": 100, "s": 2, "n": 1000, "alpha": [1.0], "trials": trials}
        )
        assert cli.main(["rates", "--config", cfg]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert '# config: {"alpha": [1.0], "d": 100, "n": 1000, "s": 2}' in outputs[0]


def test_rates_golden_row(tmp_path, capsys):
    cfg = _write_config(tmp_path, "rates.json", {"d": 100, "s": 2, "n": 1000, "alpha": [1.0]})
    cli.main(["rates", "--config", cfg])
    out = capsys.readouterr().out
    row = out.strip().split("\n")[-1]
    _, gi, gt = (float(v) for v in row.split(","))
    assert gi == pytest.approx(0.009210340371976184, rel=1e-15)
    assert gt == pytest.approx(0.009210340371976184, rel=1e-15)


def test_empty_alpha_grid_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, "bad.json", {"alpha": []})
    assert cli.main(["rates", "--config", cfg]) == 2
    assert "empty alpha grid" in capsys.readouterr().err


def test_config_parse_error_reports_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"d": 10,\n  "s": }')
    assert cli.main(["rates", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_unknown_config_field_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, "bad.json", {"dd": 10})
    assert cli.main(["rates", "--config", cfg]) == 2
    assert "dd" in capsys.readouterr().err


def _sweep_config(tmp_path, **overrides):
    payload = {
        "d": 8,
        "s": 2,
        "n": 120,
        "alpha": [0.0, 1.0],
        "gamma": [0.2, 1.0],
        "trials": 5,
        "seed": 3,
    }
    payload.update(overrides)
    return _write_config(tmp_path, "sweep.json", payload)


def test_sweep_rerun_is_byte_identical(tmp_path):
    cfg = _sweep_config(tmp_path)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
    assert cli.main(["sweep", "--config", cfg, "--out", str(out2), "--threads", "7"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# sha256 of the CSV below as written at the commit before the honest query
# family was answered in one blocked pass; any change to a response's
# summation order or to a seed stream that flips a decision changes it
_GOLDEN_SWEEP_SHA256 = "cf4e78a1f4b3fe28406efe464190b97abcb8dbed566c905f049dbe5f63d9db5f"


def test_sweep_csv_matches_golden(tmp_path):
    # AR(1) covariance and R=1 put several honest-query decisions near their
    # thresholds: type-II rates 1, 1/3, 2/3 and 0 across the grid
    sigma = [[0.5 ** abs(i - j) for j in range(10)] for i in range(10)]
    cfg = _sweep_config(
        tmp_path, d=10, s=2, n=2000, alpha=[0.5, 1.0], gamma=[1.0, 8.0], R=1.0, sigma=sigma,
        trials=3, seed=7,
    )
    out = tmp_path / "golden.csv"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _GOLDEN_SWEEP_SHA256


@pytest.mark.parametrize(
    "argv",
    [
        ["rates", "--svg", "x.svg", "--threads", "0"],
        ["verify", "--threads", "-3"],
        ["rates", "--trials", "7"],
        ["rates", "--seed", "3"],
        ["oracle-demo", "--seed", "3"],
    ],
)
def test_option_of_another_subcommand_is_rejected(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_sweep_test_filter(tmp_path):
    cfg = _sweep_config(tmp_path)
    out = tmp_path / "f.csv"
    assert (
        cli.main(["sweep", "--config", cfg, "--out", str(out), "--tests", "tractable_honest"]) == 0
    )
    body = [l for l in out.read_text().split("\n") if l and not l.startswith("#")]
    assert all("exhaustive" not in line for line in body[1:])
    assert all(",tractable_honest," in line for line in body[1:])


def test_sweep_emits_wellformed_svg(tmp_path):
    cfg = _sweep_config(tmp_path)
    svg = tmp_path / "heat.svg"
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "o.csv"), "--svg", str(svg)]) == 0
    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")
    rects = [el for el in root.iter() if el.tag.endswith("rect")]
    assert len(rects) >= 2 * 2 * 3  # cells x tests
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 2 * 3  # two boundary curves per panel


def test_sweep_alpha_out_of_range_exits_2_before_any_cell(tmp_path, capsys, monkeypatch):
    from wslab import experiments

    cells = []
    real = experiments._cell_models
    monkeypatch.setattr(experiments, "_cell_models", lambda *a: cells.append(a) or real(*a))
    cfg = _sweep_config(tmp_path, alpha=[0.0, 0.5, 1.5])
    assert cli.main(["sweep", "--config", cfg]) == 2
    assert "alpha" in capsys.readouterr().err
    assert cells == []


def test_sweep_combinatorial_budget_exits_3(tmp_path, capsys):
    cfg = _sweep_config(tmp_path, s=5, d=60, n=40)
    code = cli.main(["sweep", "--config", cfg])
    assert code == 3
    assert "budget" in capsys.readouterr().err


def test_sweep_smoke_runtime(tmp_path):
    # 4x4 grid at d=30, s=2, n=1000, trials=50 finishes well under a minute
    cfg = _sweep_config(
        tmp_path,
        d=30,
        s=2,
        n=1000,
        trials=50,
        alpha=[0.0, 0.33, 0.66, 1.0],
        gamma=[0.05, 0.15, 0.5, 1.5],
    )
    start = time.monotonic()
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "smoke.csv")]) == 0
    assert time.monotonic() - start < 60.0


def test_risk_requires_single_point(tmp_path, capsys):
    cfg = _sweep_config(tmp_path)
    assert cli.main(["risk", "--config", cfg]) == 2
    cfg1 = _sweep_config(tmp_path, alpha=[0.5], gamma=[0.3])
    assert cli.main(["risk", "--config", cfg1, "--out", str(tmp_path / "r.csv")]) == 0
    body = (tmp_path / "r.csv").read_text()
    assert "tractable_adversarial" in body


def test_verify_fast_suites_pass(tmp_path, capsys):
    assert cli.main(["verify", "--suite", "lemma2", "chisq", "tolerances"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") >= 5
    assert ",1," in out  # at least one passing check row


def test_verify_corrupted_check_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(
        SUITES,
        "corrupted",
        lambda seed: [CheckResult("corrupted", "tolerance_formula", False, "fixture")],
    )
    assert cli.main(["verify", "--suite", "corrupted"]) == 1
    captured = capsys.readouterr()
    assert "FAILED corrupted/tolerance_formula" in captured.err


def test_oracle_demo_verdicts(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "demo.json",
        {"d": 10, "s": 2, "n": 100, "alpha": 0.5, "beta": 0.0},
    )
    assert cli.main(["oracle-demo", "--config", cfg, "--out", str(tmp_path / "d.csv")]) == 0
    assert "verdict: indistinguishable" in capsys.readouterr().out
    cfg2 = _write_config(
        tmp_path,
        "demo2.json",
        {"d": 10, "s": 2, "n": 500000, "alpha": 1.0, "beta": 3.0},
    )
    assert cli.main(["oracle-demo", "--config", cfg2, "--out", str(tmp_path / "d2.csv")]) == 0
    assert "verdict: distinguishable" in capsys.readouterr().out


def test_oracle_demo_missing_beta_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, "demo.json", {"d": 10, "s": 2, "n": 100, "alpha": 0.5})
    assert cli.main(["oracle-demo", "--config", cfg]) == 2
    assert "beta" in capsys.readouterr().err


def test_flag_overrides_config_seed(tmp_path):
    cfg = _sweep_config(tmp_path, seed=1)
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    cli.main(["sweep", "--config", cfg, "--out", str(out1), "--seed", "9"])
    cli.main(["sweep", "--config", cfg, "--out", str(out2), "--seed", "9"])
    text = out1.read_text()
    assert out1.read_bytes() == out2.read_bytes()
    assert '"seed": 9' in text  # resolved config echoed in header


def test_artifact_header_reproduces_run(tmp_path):
    # the echoed config is itself a valid config that regenerates the artifact
    cfg = _sweep_config(tmp_path, seed=11)
    first = tmp_path / "first.csv"
    assert cli.main(["sweep", "--config", cfg, "--out", str(first)]) == 0
    header = next(
        line for line in first.read_text().split("\n") if line.startswith("# config:")
    )
    recovered = json.loads(header[len("# config:") :])
    replay_cfg = tmp_path / "replay.json"
    replay_cfg.write_text(json.dumps(recovered))
    second = tmp_path / "second.csv"
    assert cli.main(["sweep", "--config", str(replay_cfg), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_sweep_accepts_diagonal_sigma(tmp_path):
    cfg = _sweep_config(tmp_path, sigma=[1.0, 2.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0], trials=3)
    out = tmp_path / "sig.csv"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text().count("\n") > 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "wslab.cli", "rates"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "alpha,gamma_info,gamma_tract" in proc.stdout


def test_beta_grid_converts_to_gamma(tmp_path):
    cfg = _sweep_config(tmp_path, gamma=None, beta=[0.3], alpha=[0.5], trials=3)
    out = tmp_path / "b.csv"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    row = [l for l in out.read_text().split("\n") if l and not l.startswith(("#", "alpha"))][0]
    gamma = float(row.split(",")[1])
    assert gamma == pytest.approx(2 * 0.3**2, rel=1e-12)
