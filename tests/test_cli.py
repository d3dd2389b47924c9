import hashlib
import json
import math
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET

import pytest

from wslab import cli
from wslab.theory import info_rate, tractable_rate
from wslab.verify import SUITES, CheckResult

from conftest import child_env


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


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("sweep", {"gamma": "12"}),  # was read as the grid (1.0, 2.0)
        ("sweep", {"d": 6.9}),  # was truncated to 6
        ("sweep", {"n": 100.7}),
        ("sweep", {"trials": 2.9}),
        ("sweep", {"seed": 3.2}),
        ("sweep", {"seed": True}),  # was run as seed 1
        ("risk", {"s": "2", "alpha": [0.5], "gamma": [0.3]}),
        ("sweep", {"threads": 1.5}),
        ("sweep", {"alpha": [0.5, "1"]}),
        ("sweep", {"R": True}),
        ("sweep", {"xi": "0.1"}),
        ("sweep", {"C0": None}),
        ("sweep", {"tests": "exhaustive"}),  # was read letter by letter
        ("verify", {"suites": "chisq"}),
        ("verify", {"suites": ["chisq", 3]}),
        ("oracle-demo", {"alpha": 0.5, "beta": [True]}),
        ("sweep", {"svg": 5}),  # was a TypeError traceback after the CSV was written
    ],
)
def test_config_value_of_the_wrong_type_exits_2(command, overrides, tmp_path, capsys):
    cfg = _sweep_config(tmp_path, **overrides)
    out = tmp_path / "out.csv"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert any(f"{key} must be" in err for key in overrides)
    assert not out.exists()


def test_config_accepts_null_where_the_default_is_null(tmp_path):
    cfg = _write_config(
        tmp_path, "rates.json", {"alpha": 1, "gamma": None, "beta": None, "xi": None, "threads": None}
    )
    assert cli.main(["rates", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 0


def test_sweep_rerun_is_byte_identical(tmp_path):
    cfg = _sweep_config(tmp_path)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
    assert cli.main(["sweep", "--config", cfg, "--out", str(out2), "--threads", "7"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# sha256 of the CSV below as written when the sweep began drawing one null
# sample per sweep and one dataset per (cell, trial), shared by the Monte Carlo
# tests, and echoing only the settings it reads; any change to a response's
# summation order or to a seed stream that flips a decision changes it
_GOLDEN_SWEEP_SHA256 = "7c45d02ced22eb3b310b0a6649c6fc4e03c60fc66efe6768ad3b2d60e933dd1e"
# sha256 of the same sweep's SVG, three panels, as written before the overlay
# curves were placed by one np.interp call
_GOLDEN_SVG_SHA256 = "e6bb78735491a79a824d91bfb0be9940dd26a4cb368438a5a26619707273d678"


def test_sweep_csv_matches_golden(tmp_path):
    # AR(1) covariance and R=1 put several honest-query decisions near their
    # thresholds: type-II rates 1, 2/3, 0 and 0 across the grid
    sigma = [[0.5 ** abs(i - j) for j in range(10)] for i in range(10)]
    cfg = _sweep_config(
        tmp_path, d=10, s=2, n=2000, alpha=[0.5, 1.0], gamma=[1.0, 8.0], R=1.0, sigma=sigma,
        trials=3, seed=7,
    )
    out, svg = tmp_path / "golden.csv", tmp_path / "golden.svg"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out), "--svg", str(svg)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _GOLDEN_SWEEP_SHA256
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == _GOLDEN_SVG_SHA256


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


def test_sweep_repeated_test_exits_2(tmp_path, capsys):
    cfg = _sweep_config(tmp_path)
    out = tmp_path / "r.csv"
    code = cli.main(["sweep", "--config", cfg, "--out", str(out), "--tests", "exhaustive,exhaustive"])
    assert code == 2
    assert "repeat" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where", ["flag", "config", "empty_flag"])
def test_sweep_empty_test_list_exits_2(where, tmp_path, capsys):
    cfg = _sweep_config(tmp_path, **({"tests": []} if where == "config" else {}))
    out, svg = tmp_path / "e.csv", tmp_path / "e.svg"
    argv = ["sweep", "--config", cfg, "--out", str(out), "--svg", str(svg)]
    flags = {"flag": ["--tests", ","], "empty_flag": ["--tests", ""], "config": []}[where]
    assert cli.main(argv + flags) == 2
    assert "at least one test" in capsys.readouterr().err
    assert not out.exists() and not svg.exists()


@pytest.mark.parametrize("key", ["out", "svg"])
@pytest.mark.parametrize("case", ["empty", "directory", "missing_parent"])
def test_sweep_unwritable_output_path_exits_2_before_any_cell(key, case, tmp_path, capsys, monkeypatch):
    # a path that cannot be written used to fail with a traceback (exit 1)
    # after the whole sweep had run, or, for an empty --svg, write nothing
    from wslab import experiments

    cells = []
    real = experiments._cell_models
    monkeypatch.setattr(experiments, "_cell_models", lambda *a: cells.append(a) or real(*a))
    cfg = _sweep_config(tmp_path)
    paths = {"out": str(tmp_path / "r.csv"), "svg": str(tmp_path / "r.svg")}
    paths[key] = {"empty": "", "directory": str(tmp_path), "missing_parent": str(tmp_path / "no" / "r")}[case]
    assert cli.main(["sweep", "--config", cfg, "--out", paths["out"], "--svg", paths["svg"]]) == 2
    assert f"config error: {key}" in capsys.readouterr().err
    assert cells == []
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.json"]


def test_sweep_header_ignores_settings_it_does_not_read(tmp_path):
    # configs that differ only in a setting the sweep never reads write the same bytes
    outs = [tmp_path / "s0.csv", tmp_path / "s1.csv"]
    for out, suites in zip(outs, (["lemma2"], ["chisq", "tolerances"])):
        assert cli.main(["sweep", "--config", _sweep_config(tmp_path, suites=suites), "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert "suites" not in outs[0].read_text()


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


@pytest.mark.parametrize("grid", [{"alpha": [0.5, 0.5], "gamma": [1.0]}, {"alpha": [0.5], "gamma": [1.0, 1.0]}])
def test_sweep_repeated_grid_value_exits_2_before_any_cell(grid, tmp_path, capsys, monkeypatch):
    # a repeated value used to give two rows for one (alpha, gamma, test),
    # and the SVG drew only one of them
    from wslab import experiments

    cells = []
    real = experiments._cell_models
    monkeypatch.setattr(experiments, "_cell_models", lambda *a: cells.append(a) or real(*a))
    cfg = _sweep_config(tmp_path, d=6, n=100, trials=3, seed=1, tests=["exhaustive"], **grid)
    out, svg = tmp_path / "r.csv", tmp_path / "r.svg"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out), "--svg", str(svg)]) == 2
    assert "repeats" in capsys.readouterr().err
    assert cells == [] and not out.exists() and not svg.exists()


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


def test_verify_empty_suite_list_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, "v.json", {"suites": []})
    out = tmp_path / "v.csv"
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 2
    assert "at least one suite" in capsys.readouterr().err
    assert not out.exists()
    # --suite with no names is a usage error, not "every suite"
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


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


# sha256 of the CSV below as written before the demo ran through
# run_tractable_test; any change to a gap, a tolerance or the query order
# changes it
_GOLDEN_DEMO_SHA256 = "823b48a57acce7596018ba470388e17fb4028c0c1345c4d6b9ea20defc129960"


def test_oracle_demo_csv_matches_golden(tmp_path, capsys):
    cfg = _write_config(tmp_path, "demo.json", {"d": 12, "s": 3, "n": 3000, "alpha": 0.8, "beta": 0.9, "R": 2.0})
    out = tmp_path / "demo.csv"
    assert cli.main(["oracle-demo", "--config", cfg, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _GOLDEN_DEMO_SHA256
    assert "(6 of 48 queries flagged; transcripts identical: False)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("sweep", {"d": 0, "s": 1}),  # was an IndexError traceback, exit 1
        ("risk", {"d": 0, "s": 1, "alpha": [0.5], "gamma": [0.3]}),
        ("sweep", {"R": 1e160}),  # was an OverflowError traceback, exit 1
        ("oracle-demo", {"R": 1e160, "alpha": 0.5, "beta": 1.0}),
    ],
)
def test_empty_sigma_or_overflowing_R_exits_2(command, overrides, tmp_path, capsys):
    cfg = _sweep_config(tmp_path, **overrides)
    out = tmp_path / "out.csv"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


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
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "alpha,gamma_info,gamma_tract" in proc.stdout


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="a pooled sweep needs two cores")
def test_pooled_sweep_logs_only_at_info_and_writes_the_same_bytes(tmp_path):
    cfg = _sweep_config(tmp_path)
    out = tmp_path / "pooled.csv"
    # every sweep of more than one worker pools them, however small
    code = "import sys; from wslab import cli, experiments; experiments._VALUES_PER_WORKER = 1; sys.exit(cli.main())"
    runs = {}
    for level, threads in ((None, "2"), ("info", "2"), ("info", "1")):
        env = child_env({k: v for k, v in os.environ.items() if k != "WSL_LOG"})
        env.update({"WSL_LOG": level} if level else {})
        argv = [sys.executable, "-c", code, "sweep", "--config", cfg, "--out", str(out), "--threads", threads]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120, check=True)
        pooled = [line for line in proc.stderr.splitlines() if "pooled sweep" in line]
        runs[level, threads] = (proc.stdout, out.read_bytes(), proc.stderr if level is None else pooled)
    assert runs[None, "2"][2] == "" and runs["info", "1"][2] == []
    [line] = runs["info", "2"][2]
    assert line.startswith("INFO:wslab:pooled sweep: 5 units on 2 forkserver workers, first result after ")
    assert len({run[:2] for run in runs.values()}) == 1


def test_beta_grid_converts_to_gamma(tmp_path):
    cfg = _sweep_config(tmp_path, gamma=None, beta=[0.3], alpha=[0.5], trials=3)
    out = tmp_path / "b.csv"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    row = [l for l in out.read_text().split("\n") if l and not l.startswith(("#", "alpha"))][0]
    gamma = float(row.split(",")[1])
    assert gamma == pytest.approx(2 * 0.3**2, rel=1e-12)


def test_beta_grid_with_non_identity_sigma_exits_2(tmp_path, capsys):
    # s * beta^2 is the separation only for identity Sigma, so an AR(1)
    # Sigma would turn one beta into another per-coordinate signal
    sigma = [[0.5 ** abs(i - j) for j in range(6)] for i in range(6)]
    cfg = _sweep_config(tmp_path, d=6, s=2, gamma=None, beta=[0.3], sigma=sigma, trials=2)
    out = tmp_path / "beta.csv"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert "gamma grid" in capsys.readouterr().err
    assert not out.exists()
