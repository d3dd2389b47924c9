"""Tests of the benchmark itself: every workload runs at a tiny size, and
every check rejects a corrupted output.

Run with ``python -m pytest bench`` from the repository root.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
from checks import CheckFailed
from sweeps import SweepSetup, timed_sweeps
from tracing import Replay, Tracer, traced_run
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SEED = 5


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_names_the_workloads():
    spec = _benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_timed_sweeps_pass_every_check(name, tmp_path):
    setup = SweepSetup(WORKLOADS[name].tiny(), SEED, tmp_path)
    res = timed_sweeps(setup, seconds=0.0, min_sweeps=1)
    assert res["errors"] == []
    assert len(res["sweep_times"]) == 1
    assert res["attempted"] == (3 if setup.workload.threads is None else 2)  # warm-up, timed, one-worker


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_traced_run_passes_layer_checks(name, tmp_path):
    res = traced_run(WORKLOADS[name].tiny(), SEED, 0.0, tmp_path)
    assert res["errors"] == []
    assert sorted(res["metrics"]) == sorted(m["name"] for m in _benchmark_spec()["per_layer"])
    units = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
    assert all(res["metrics"][k][1] == units[k] for k in units)
    assert res["metrics"]["oracle.queries_issued"][0] == 4 * WORKLOADS[name].d
    names = {s["name"] for s in res["spans"]}
    assert {"model.sample", "oracle.family", "cli.sweep_serial", "heatmap.render"} <= names
    assert all(s["end"] >= s["start"] for s in res["spans"])


def test_self_time_subtracts_children():
    tracer = Tracer("w")
    tracer.spans = [
        {"id": 0, "name": "a", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "b", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "b", "parent": 0, "start": 3.0, "end": 6.0},
    ]
    assert tracer.self_times("a") == [5.0]
    assert tracer.self_times("b") == [3.0, 3.0]


# ---------------------------------------------------------------------------
# Output checks reject corrupted sweeps
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=["desk-sweep", "wide-sweep"])
def good_sweep(request, tmp_path_factory):
    setup = SweepSetup(WORKLOADS[request.param].tiny(), SEED, tmp_path_factory.mktemp("sweep"))
    code, _, csv, svg = setup.sweep("good")
    setup.check(code, csv, svg)
    return setup, csv.read_text(), svg.read_text()


def _edit(text: str, row: int, **fields) -> str:
    lines = text.split("\n")
    names = checks.SWEEP_COLUMNS.split(",")
    at = lines.index(checks.SWEEP_COLUMNS) + 1 + row
    values = lines[at].split(",")
    for key, value in fields.items():
        values[names.index(key)] = repr(value) if isinstance(value, float) else str(value)
    lines[at] = ",".join(values)
    return "\n".join(lines)


def _rows(text: str) -> list[dict]:
    return checks.parse_sweep_csv(text)[1]


def _reject_csv(setup: SweepSetup, text: str) -> None:
    with pytest.raises(CheckFailed):
        checks.check_sweep_csv(text, setup.cfg, setup.separations)


def test_good_sweep_passes(good_sweep):
    setup, csv, svg = good_sweep
    checks.check_sweep_svg(svg, checks.check_sweep_csv(csv, setup.cfg, setup.separations))


def test_rejects_risk_off_by_one_trial(good_sweep):
    setup, csv, _ = good_sweep
    r = _rows(csv)[0]
    _reject_csv(setup, _edit(csv, 0, risk=r["risk"] + 1.0 / r["trials"]))


def test_rejects_scaled_beta(good_sweep):
    setup, csv, _ = good_sweep
    _reject_csv(setup, _edit(csv, 0, beta=_rows(csv)[0]["beta"] * 1.01))


def test_rejects_swapped_rows(good_sweep):
    setup, csv, _ = good_sweep
    lines = csv.split("\n")
    at = lines.index(checks.SWEEP_COLUMNS) + 1
    lines[at], lines[at + 1] = lines[at + 1], lines[at]
    _reject_csv(setup, "\n".join(lines))


def test_rejects_missing_row(good_sweep):
    setup, csv, _ = good_sweep
    lines = csv.rstrip("\n").split("\n")
    _reject_csv(setup, "\n".join(lines[:-1]) + "\n")


def test_rejects_error_rate_off_the_trial_grid(good_sweep):
    setup, csv, _ = good_sweep
    _reject_csv(setup, _edit(csv, 0, type1=0.25, type2=0.0, risk=0.25))


def test_rejects_wrong_half_width(good_sweep):
    setup, csv, _ = good_sweep
    _reject_csv(setup, _edit(csv, 0, half_width=_rows(csv)[0]["half_width"] * (1 + 1e-9)))


def test_rejects_wrong_seed_in_header(good_sweep):
    setup, csv, _ = good_sweep
    _reject_csv(setup, csv.replace(f'"seed": {SEED}', f'"seed": {SEED + 1}', 1))


def test_rejects_missing_config_header(good_sweep):
    setup, csv, _ = good_sweep
    _reject_csv(setup, "\n".join(line for line in csv.split("\n") if not line.startswith("# config")))


def test_rejects_wrong_problem_size(good_sweep):
    setup, csv, _ = good_sweep
    _reject_csv(setup, _edit(csv, 0, n=setup.cfg["n"] + 1))


def test_rejects_non_binary_adversarial_row(good_sweep):
    setup, csv, _ = good_sweep
    row = next(i for i, r in enumerate(_rows(csv)) if r["test"] == "tractable_adversarial")
    _reject_csv(setup, _edit(csv, row, type1=0.5, type2=1.0, risk=1.5))


def test_rejects_risk_rising_in_gamma(good_sweep):
    setup, csv, _ = good_sweep
    rows = _rows(csv)
    lo, hi = [i for i, r in enumerate(rows) if r["test"] == "exhaustive"][:2]
    bad = _edit(csv, lo, type1=0.0, type2=0.0, risk=0.0)
    _reject_csv(setup, _edit(bad, hi, type1=1.0, type2=1.0, risk=2.0))


def test_rejects_svg_missing_a_cell(good_sweep):
    setup, csv, svg = good_sweep
    start = svg.index("<rect")
    end = svg.index("</rect>", start) + len("</rect>")
    with pytest.raises(CheckFailed):
        checks.check_sweep_svg(svg[:start] + svg[end:], _rows(csv))


def test_rejects_svg_with_a_wrong_risk(good_sweep):
    setup, csv, svg = good_sweep
    with pytest.raises(CheckFailed):
        checks.check_sweep_svg(svg.replace("risk=1.000", "risk=0.500", 1).replace("risk=0.000", "risk=0.500", 1), _rows(csv))


def test_rejects_truncated_svg(good_sweep):
    _, csv, svg = good_sweep
    with pytest.raises(CheckFailed):
        checks.check_sweep_svg(svg[: len(svg) // 2], _rows(csv))


def test_rejects_differing_worker_count_csv(good_sweep):
    _, csv, _ = good_sweep
    with pytest.raises(CheckFailed):
        checks.check_identical(csv.encode(), _edit(csv, 0, seed=SEED + 1).encode(), "CSVs")


# ---------------------------------------------------------------------------
# Layer checks reject corrupted layer results
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=list(WORKLOADS))
def replayed(request):
    w = WORKLOADS[request.param].tiny()
    replay = Replay(w, SEED, w.sigma())
    out = replay.dataset(1, None)  # odd datasets come from the alternative
    replay.check_dataset(1, out)
    return replay, out


def test_rejects_nudged_pair_difference(replayed):
    replay, out = replayed
    w = out["w"].copy()
    w[0, 0] += 1e-6
    with pytest.raises(CheckFailed):
        checks.check_pair_differences(out["data"].covariates, replay.root, w)


def test_rejects_reordered_class_differences(replayed):
    _, out = replayed
    with pytest.raises(CheckFailed):
        checks.check_class_differences(out["data"].covariates, out["data"].labels, out["u"][::-1])


def test_rejects_nudged_variance_statistic(replayed):
    replay, out = replayed
    reference = checks.brute_force_variance(out["w"], replay.root, replay.precision, replay.w.s)
    with pytest.raises(CheckFailed):
        checks.check_variance_statistic(out["stat1"] * (1 + 1e-6), reference)


def test_rejects_nudged_peak_statistic(replayed):
    replay, out = replayed
    reference = checks.peak_statistic(out["u"], replay.sigma)
    with pytest.raises(CheckFailed):
        checks.check_peak_statistic(out["stat2"] * (1 + 1e-9), reference)


def test_rejects_shifted_class_mean(replayed):
    replay, out = replayed
    u, theta = out["u"], replay.theta1
    delta = theta.mu1 - theta.mu0
    se = np.sqrt((2.0 * np.diag(replay.sigma) + 0.5 * (1 - theta.alpha**2) * delta**2) / u.shape[0])
    shifted = u.copy()
    shifted[:, 0] += 6.0 * se[0]
    with pytest.raises(CheckFailed):
        checks.check_class_mean(shifted, theta.alpha, delta, replay.sigma)


def test_rejects_nudged_query_response(replayed):
    replay, out = replayed
    data = out["data"]
    reference = checks.query_responses(data.covariates, data.labels, replay.sigma, replay.tcfg.trunc_level)
    values = np.array([r.value for r in out["responses"]])
    values[3] += 1e-6
    with pytest.raises(CheckFailed):
        checks.check_responses(values, reference)


def test_rejects_flipped_decision(replayed):
    _, out = replayed
    signed = out["tractable"].signed
    with pytest.raises(CheckFailed):
        checks.check_decision(not signed.reject, signed.statistic, signed.threshold, "signed scan")


def test_readme_thresholds_match_the_program(replayed):
    replay, _ = replayed
    w = replay.w
    tau1, tau2 = checks.exhaustive_thresholds(w.d, w.s, replay.pairs, replay.sigma)
    assert math.isclose(replay.thresholds.tau1, tau1, rel_tol=1e-12)
    assert math.isclose(replay.thresholds.tau2, tau2, rel_tol=1e-12)
    diag_t, signed_t = checks.query_thresholds(w.d, w.n)
    assert math.isclose(diag_t, replay.tcfg.C * replay.tcfg.tau_var, rel_tol=1e-12)
    assert math.isclose(signed_t, 2 * replay.tcfg.tau_mean, rel_tol=1e-12)


def _adversarial_arrays(replay):
    adv, null, alt = replay.adversarial_cell(Tracer(replay.w.name))
    t = replay.tcfg.trunc_level
    th0, th1 = replay.theta0, replay.theta1
    e0 = checks.query_expectations(th0.mu0, th0.mu1, replay.sigma, th0.alpha, t)
    e1 = checks.query_expectations(th1.mu0, th1.mu1, replay.sigma, th1.alpha, t)
    tol = checks.query_tolerances(e1, replay.w.d, replay.w.n)
    return (
        np.array([r.value for r in null.transcript]),
        np.array([r.value for r in alt.transcript]),
        np.array([r.flagged for r in adv.report]),
        e0,
        e1,
        tol,
    )


def test_adversarial_check_rejects_corruption(replayed):
    replay, _ = replayed
    null, alt, flagged, e0, e1, tol = _adversarial_arrays(replay)
    checks.check_adversarial(null, alt, flagged, e0, e1, tol)
    nudged = null.copy()
    nudged[0] += 1e-6
    with pytest.raises(CheckFailed):
        checks.check_adversarial(nudged, alt, flagged, e0, e1, tol)
    with pytest.raises(CheckFailed):
        checks.check_adversarial(null, alt, ~flagged, e0, e1, tol)
    shifted = alt.copy()
    shifted[-1] += 1e-6
    with pytest.raises(CheckFailed):
        checks.check_adversarial(null, shifted, flagged, e0, e1, tol)
