"""Traced run: the sweep pipeline replayed layer by layer, with spans.

The replay draws its own datasets from the workload seed and passes each
through the public functions of ``model``, ``pairing``, ``exhaustive``,
``tractable`` and ``oracle``, one span per call. It then times one
adversarial cell; one single-cell sweep (``experiments``) against the same
layer calls made without it; the workload's grid through ``cli`` with one
worker and with one worker per core; and the heatmap render. Spans are kept
in memory and written out when the run ends. Every layer result is checked
against a computation made in ``checks``.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy.linalg

import checks
from checks import CheckFailed
from sweeps import SweepSetup
from workloads import Workload

from wslab.exhaustive import (
    default_thresholds,
    peak_coordinate_statistic,
    run_exhaustive_test,
    sparse_variance_statistic,
)
from wslab.experiments import SweepGrid, SweepRow, sweep_phase_diagram
from wslab.heatmap import render_heatmap_svg
from wslab.model import ModelParams, sample_dataset
from wslab.oracle import AdversarialPairOracle, EmpiricalOracle
from wslab.pairing import between_class_differences, whitened_pair_differences
from wslab.tractable import (
    TractableConfig,
    build_queries,
    decisions_from_responses,
    default_oracle_config,
    run_tractable_test,
)

MAX_DATASETS = 400
OVERHEAD_DATASETS = 10


class Tracer:
    """In-memory spans: name, start, end, parent, workload and dataset id."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, dataset: int | None = None):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "dataset": dataset,
            "start": time.perf_counter() - self.origin,
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self.origin
            self._stack.pop()

    def self_times(self, name: str) -> list[float]:
        """Seconds of each ``name`` span not covered by its child spans."""
        children: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        out = []
        for s in self.spans:
            if s["name"] != name:
                continue
            covered, reach = 0.0, s["start"]
            for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
                lo, hi = max(c["start"], reach), min(c["end"], s["end"])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(s["end"] - s["start"] - covered)
        return out

    def median_ms(self, name: str) -> float:
        return 1e3 * statistics.median(self.self_times(name))


def reference_pair(w: Workload, seed: int, sigma: np.ndarray, precision: np.ndarray) -> tuple[ModelParams, ModelParams]:
    """Null and sparse alternative at the grid's largest (alpha, gamma) cell.

    The support is drawn from the workload seed; ``beta`` makes the
    separation equal ``gamma`` under the benchmark's own inverse of Sigma.
    """
    alpha, gamma = max(w.alphas), max(w.gammas)
    support = np.sort(np.random.default_rng([seed, 1]).choice(w.d, size=w.s, replace=False))
    beta = math.sqrt(gamma / precision[np.ix_(support, support)].sum())
    v = np.zeros(w.d)
    v[support] = beta
    zero = np.zeros(w.d)
    return (
        ModelParams(mu0=zero, mu1=zero, sigma=sigma, alpha=alpha),
        ModelParams(mu0=-v / 2.0, mu1=v / 2.0, sigma=sigma, alpha=alpha),
    )


class Replay:
    """The per-dataset pipeline of one workload, on datasets drawn here.

    Even dataset ids come from the null, odd ones from the alternative.
    """

    def __init__(self, w: Workload, seed: int, sigma: np.ndarray) -> None:
        self.w, self.seed, self.sigma = w, seed, sigma
        self.root = checks.inverse_sqrt(sigma)
        self.precision = scipy.linalg.inv(sigma)
        self.theta0, self.theta1 = reference_pair(w, seed, sigma, self.precision)
        self.tcfg = TractableConfig(d=w.d, n=w.n)
        self.ocfg = default_oracle_config(self.tcfg)
        self.pairs = w.n // 2
        self.thresholds = default_thresholds(w.d, w.s, self.pairs, sigma)

    def theta(self, i: int) -> ModelParams:
        return self.theta1 if i % 2 else self.theta0

    def rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, 2, i])

    def dataset(self, i: int, tracer: Tracer | None) -> dict:
        """One dataset through every layer; spans when ``tracer`` is given."""
        span = tracer.span if tracer else _no_span
        w, sigma = self.w, self.sigma
        out: dict = {}
        with span("dataset", i):
            with span("model.sample", i):
                data = sample_dataset(self.theta(i), w.n, self.rng(i))
            with span("pairing.pair_diff", i):
                out["w"] = whitened_pair_differences(data, sigma)
            with span("pairing.class_diff", i):
                out["u"] = between_class_differences(data)
            with span("exhaustive.variance_search", i):
                out["stat1"], _ = sparse_variance_statistic(out["w"], sigma, w.s)
            with span("exhaustive.peak", i):
                out["stat2"], _, _ = peak_coordinate_statistic(out["u"], sigma)
            with span("exhaustive.test", i):
                out["exhaustive"] = run_exhaustive_test(data, sigma, w.s, self.thresholds)
            with span("tractable.build_queries", i):
                queries = build_queries(self.tcfg, sigma)
            with span("oracle.family", i):
                oracle = EmpiricalOracle(data, self.ocfg)
                out["responses"] = [oracle.query(q) for q in queries]
            out["issued"] = oracle.queries_issued
            with span("tractable.decisions", i):
                out["decisions"] = decisions_from_responses(out["responses"], self.tcfg)
            with span("tractable.test", i):
                out["tractable"] = run_tractable_test(EmpiricalOracle(data, self.ocfg), self.tcfg, sigma)
        out["data"] = data
        return out

    def check_dataset(self, i: int, out: dict) -> None:
        w, sigma, data = self.w, self.sigma, out["data"]
        x, labels = data.covariates, data.labels
        wref = checks.check_pair_differences(x, self.root, out["w"])
        uref = checks.check_class_differences(x, labels, out["u"])
        theta = self.theta(i)
        checks.check_class_mean(uref, theta.alpha, theta.mu1 - theta.mu0, sigma)

        stat1 = checks.brute_force_variance(wref, self.root, self.precision, w.s)
        checks.check_variance_statistic(out["stat1"], stat1)
        stat2 = checks.peak_statistic(uref, sigma)
        checks.check_peak_statistic(out["stat2"], stat2)
        ex = out["exhaustive"]
        checks.check_variance_statistic(ex.variance_search.statistic, stat1)
        checks.check_peak_statistic(ex.peak_coordinate.statistic, stat2)
        tau1, tau2 = checks.exhaustive_thresholds(w.d, w.s, self.pairs, sigma)
        checks.check_decision(ex.variance_search.reject, stat1, 1.0 + tau1, "variance search")
        checks.check_decision(ex.peak_coordinate.reject, stat2, tau2, "peak coordinate")

        if out["issued"] != 4 * w.d:
            raise CheckFailed(f"oracle issued {out['issued']} queries, expected {4 * w.d}")
        values = np.array([r.value for r in out["responses"]])
        reference = checks.query_responses(x, labels, sigma, self.tcfg.trunc_level)
        checks.check_responses(values, reference)
        checks.check_responses(np.array([r.value for r in out["tractable"].transcript]), reference)
        diag_stat, diag_t, signed_stat, signed_t = checks.query_decisions(reference, w.d, w.n)
        for result in (out["decisions"], out["tractable"]):
            checks.check_decision(result.diagonal.reject, diag_stat, diag_t, "diagonal thresholding")
            checks.check_decision(result.signed.reject, signed_stat, signed_t, "signed scan")

    def cell(self) -> None:
        """The layer calls of one sweep cell, without the sweep around them."""
        w, sigma = self.w, self.sigma
        default_thresholds(w.d, w.s, self.pairs, sigma)
        for test in w.tests:
            if test == "tractable_adversarial":
                adv = AdversarialPairOracle(self.theta0, self.theta1, self.ocfg)
                run_tractable_test(adv.policy(0), self.tcfg, sigma)
                run_tractable_test(adv.policy(1), self.tcfg, sigma)
                continue
            for i in range(2 * w.trials):
                data = sample_dataset(self.theta(i), w.n, self.rng(i))
                if test == "exhaustive":
                    run_exhaustive_test(data, sigma, w.s, self.thresholds)
                else:
                    run_tractable_test(EmpiricalOracle(data, self.ocfg), self.tcfg, sigma)

    def adversarial_cell(self, tracer: Tracer) -> tuple:
        with tracer.span("oracle.adversarial_cell"):
            adv = AdversarialPairOracle(self.theta0, self.theta1, self.ocfg)
            null = run_tractable_test(adv.policy(0), self.tcfg, self.sigma)
            alt = run_tractable_test(adv.policy(1), self.tcfg, self.sigma)
        return adv, null, alt

    def check_adversarial(self, adv, null, alt) -> None:
        t = self.tcfg.trunc_level
        e0 = checks.query_expectations(self.theta0.mu0, self.theta0.mu1, self.sigma, self.theta0.alpha, t)
        e1 = checks.query_expectations(self.theta1.mu0, self.theta1.mu1, self.sigma, self.theta1.alpha, t)
        tol = checks.query_tolerances(e1, self.w.d, self.w.n)
        checks.check_adversarial(
            np.array([r.value for r in null.transcript]),
            np.array([r.value for r in alt.transcript]),
            np.array([r.flagged for r in adv.report]),
            e0,
            e1,
            tol,
        )


@contextmanager
def _no_span(name: str, dataset: int | None = None):
    yield None


def traced_run(w: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    """Run the replay; returns per-layer metrics, extra figures, spans and errors."""
    tracer = Tracer(w.name)
    setup = SweepSetup(w, seed, workdir)
    replay = Replay(w, seed, setup.sigma)
    errors: list[str] = []
    attempted = 0

    def attempt(what: str, check, *args) -> None:
        nonlocal attempted
        attempted += 1
        try:
            check(*args)
        except CheckFailed as exc:
            errors.append(f"{what}: {exc}")

    for _ in range(5):
        with tracer.span("exhaustive.thresholds"):
            default_thresholds(w.d, w.s, replay.pairs, setup.sigma)

    def check_thresholds() -> None:
        tau1, tau2 = checks.exhaustive_thresholds(w.d, w.s, replay.pairs, setup.sigma)
        got = replay.thresholds
        if not (math.isclose(got.tau1, tau1, rel_tol=1e-12) and math.isclose(got.tau2, tau2, rel_tol=1e-12)):
            raise CheckFailed(f"thresholds ({got.tau1!r}, {got.tau2!r}), formulas give ({tau1!r}, {tau2!r})")

    attempt("thresholds", check_thresholds)

    for i in range(2):  # warm-up: first calls pay one-time costs
        replay.dataset(i, None)
    start = time.perf_counter()
    count = 0
    issued = []
    while count < 4 or (time.perf_counter() - start < seconds and count < MAX_DATASETS):
        out = replay.dataset(count, tracer)
        issued.append(out["issued"])
        attempt(f"dataset {count}", replay.check_dataset, count, out)
        count += 1
    del out

    # the same datasets with and without spans, alternating: the gap is the tracing overhead
    traced, untraced = [], []
    for i in range(min(count, OVERHEAD_DATASETS)):
        for spans, times in ((Tracer(w.name), traced), (None, untraced)):
            t0 = time.perf_counter()
            replay.dataset(i, spans)
            times.append(time.perf_counter() - t0)

    for rep in range(5):
        adv, null, alt = replay.adversarial_cell(tracer)
        if rep == 0:
            attempt("adversarial cell", replay.check_adversarial, adv, null, alt)
    flagged = sum(r.flagged for r in adv.report)

    a, g = max(w.alphas), max(w.gammas)
    cell_grid = SweepGrid((a,), (g,), d=w.d, s=w.s, n=w.n, trials=w.trials, seed=seed)
    for _ in range(5):
        with tracer.span("experiments.cell"):
            sweep_phase_diagram(cell_grid, tests=w.tests, threads=1, sigma=setup.sigma)
        with tracer.span("experiments.cell_replay"):
            replay.cell()

    nproc = os.cpu_count() or 1
    sweeps = {}
    for label, threads in (("serial", 1), ("threaded", nproc)):
        with tracer.span(f"cli.sweep_{label}"):
            sweeps[label] = setup.sweep(label, ("--threads", str(threads)))
    csvs = {}

    def check_sweep(label: str) -> None:
        code, _, csv, svg = sweeps[label]
        csvs[label] = setup.check(code, csv, svg)

    for label in sweeps:
        attempt(f"{label} sweep", check_sweep, label)
    attempt(
        "one-worker CSV",
        checks.check_identical, csvs.get("serial"), csvs.get("threaded"), "one-worker and threaded sweep CSVs",
    )

    _, rows = checks.parse_sweep_csv(sweeps["serial"][2].read_text())
    sweep_rows = [SweepRow(**r) for r in rows]
    for _ in range(5):
        with tracer.span("heatmap.render"):
            svg = render_heatmap_svg(sweep_rows)
    attempt("heatmap", checks.check_identical, svg.encode(), sweeps["serial"][3].read_bytes(), "rendered and written SVGs")

    ms = tracer.median_ms
    serial_s = sweeps["serial"][1]
    threaded_s = sweeps["threaded"][1]
    metrics = {
        "model.sample_ms": (ms("model.sample"), "ms"),
        "pairing.pair_diff_ms": (ms("pairing.pair_diff"), "ms"),
        "pairing.class_diff_ms": (ms("pairing.class_diff"), "ms"),
        "exhaustive.variance_search_ms": (ms("exhaustive.variance_search"), "ms"),
        "exhaustive.supports_per_s": (math.comb(w.d, w.s) / (ms("exhaustive.variance_search") / 1e3), "1/s"),
        "exhaustive.peak_ms": (ms("exhaustive.peak"), "ms"),
        "exhaustive.test_ms": (ms("exhaustive.test"), "ms"),
        "exhaustive.thresholds_ms": (ms("exhaustive.thresholds"), "ms"),
        "tractable.build_queries_ms": (ms("tractable.build_queries"), "ms"),
        "tractable.test_ms": (ms("tractable.test"), "ms"),
        "tractable.decisions_ms": (ms("tractable.decisions"), "ms"),
        "oracle.family_ms": (ms("oracle.family"), "ms"),
        "oracle.queries_per_s": (4 * w.d / (ms("oracle.family") / 1e3), "1/s"),
        "oracle.queries_issued": (statistics.median(issued), "count"),
        "oracle.adversarial_cell_ms": (ms("oracle.adversarial_cell"), "ms/cell"),
        "oracle.flagged": (flagged, "count/cell"),
        "experiments.cell_ms": (ms("experiments.cell"), "ms/cell"),
        "experiments.orchestration_ms": (ms("experiments.cell") - ms("experiments.cell_replay"), "ms/cell"),
        "experiments.serial_sweep_s": (serial_s, "s"),
        "experiments.thread_speedup": (serial_s / threaded_s, "ratio"),
        "heatmap.render_ms": (ms("heatmap.render"), "ms/sweep"),
    }
    traced_ms = 1e3 * statistics.median(traced)
    untraced_ms = 1e3 * statistics.median(untraced)
    info = {
        "datasets": count,
        "threaded_sweep_s": threaded_s,
        "threads": nproc,
        "dataset_traced_ms": traced_ms,
        "dataset_untraced_ms": untraced_ms,
        "tracing_overhead_share": (traced_ms - untraced_ms) / untraced_ms,
        "cell_replay_ms": ms("experiments.cell_replay"),
    }
    return {"metrics": metrics, "info": info, "spans": tracer.spans, "errors": errors, "attempted": attempted}
