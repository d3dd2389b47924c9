"""Monte Carlo risk estimation, phase-diagram sweeps, and the oracle demo.

Conventions
-----------
* A sweep cell's ``n`` is the number of raw samples in each simulated
  dataset. The exhaustive test forms ``n // 2`` difference pairs and its
  default thresholds are evaluated at that pair count; the query-based test
  runs its oracle over all ``n`` samples.
* Every random draw comes from a substream derived from the grid seed and a
  structural key: ``(null, trial)`` for the null datasets, which the sweep
  draws once and shares across cells (with ``mu0 = mu1`` the label is a fair
  coin independent of ``X`` at every alpha), and ``(alternative, cell,
  trial)`` for a cell's alternative datasets. The keys carry no test index:
  every Monte Carlo test sees the same datasets, so results do not depend on
  execution order or on which other tests run.
* Risk at a grid point is evaluated at a representative model pair (a null
  with a configurable mean and one seeded sparse alternative centred on it
  whose separation equals ``gamma`` exactly; for identity covariance its
  per-coordinate signal is ``sqrt(gamma / s)``), not as a supremum over
  parameter spaces. The null law does not depend on alpha, so the sweep
  builds one null for every cell and every test.
"""

from __future__ import annotations

import contextvars
import logging
import math
import os
import sys
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import AlphaRangeError, ValidationError
from .exhaustive import Thresholds, default_thresholds, run_exhaustive_test
from .model import AltSpec, Dataset, KnownCovariance, ModelParams
from .model import _sample_into, make_restricted_alternative, sample_dataset
from .oracle import AdversarialPairOracle, EmpiricalOracle, GapRecord, OraclePolicy
from .seeding import spawn_rng
from .tractable import TractableConfig, default_oracle_config, run_tractable_test

__all__ = [
    "RiskEstimate",
    "SweepGrid",
    "SweepRow",
    "OracleDemoReport",
    "estimate_risk",
    "exhaustive_procedure",
    "sweep_phase_diagram",
    "sweep_rows_to_csv",
    "oracle_demo",
    "demo_records_to_csv",
    "SWEEP_TESTS",
]

SWEEP_TESTS = ("exhaustive", "tractable_honest", "tractable_adversarial")

log = logging.getLogger("wslab")


@dataclass(frozen=True)
class RiskEstimate:
    """Monte Carlo type-I/type-II estimates with a conservative 95% half-width.

    ``half_width`` is the worst-case binomial half-width ``1.96 * 0.5 /
    sqrt(trials)``, which depends on the trial count only and upper-bounds
    the half-width of each error estimate.
    """

    type1: float
    type2: float
    trials: int

    @property
    def risk(self) -> float:
        return self.type1 + self.type2

    @property
    def half_width(self) -> float:
        return 1.96 * 0.5 / math.sqrt(self.trials)

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValidationError(f"need trials >= 1, got {self.trials}")
        if not (0.0 <= self.type1 <= 1.0 and 0.0 <= self.type2 <= 1.0):
            raise ValidationError("error rates must lie in [0, 1]")


def _risk(null: Sequence, alt: Sequence, levels: Sequence[float], trials: int) -> RiskEstimate:
    """Error rates from statistic rows, one row per draw under each model: a
    row rejects when any statistic is ``>=`` its level, as in :attr:`TestResult.reject`."""
    level = np.asarray(levels, dtype=float)

    def rejected(rows: Sequence) -> int:
        stats = np.asarray(rows, dtype=float)
        if stats.shape[1:] != level.shape:
            raise ValidationError(f"statistics of shape {stats.shape[1:]} against levels {level.shape}")
        return int(np.count_nonzero((stats >= level).any(axis=1)))

    return RiskEstimate(rejected(null) / len(null), (len(alt) - rejected(alt)) / len(alt), trials)


def estimate_risk(
    test: tuple[Callable[[Dataset], Sequence[float]], Sequence[float]],
    theta0: ModelParams,
    theta1: ModelParams,
    n: int,
    trials: int,
    rng: np.random.Generator,
) -> RiskEstimate:
    """Estimate type-I and type-II errors of ``test`` on a fixed model pair.

    ``test`` is a pair ``(statistics, levels)``: ``statistics(data)`` returns
    a short float vector, and a dataset is rejected when any entry reaches
    its level. Runs ``trials`` independent datasets of size ``n`` under each
    model; each trial owns a child stream of ``rng``, so estimates do not
    depend on evaluation order.
    """
    if trials < 1:
        raise ValidationError(f"need trials >= 1, got {trials}")
    statistics, levels = test
    gens = rng.spawn(2 * trials)
    null = [statistics(sample_dataset(theta0, n, gens[i])) for i in range(trials)]
    alt = [statistics(sample_dataset(theta1, n, gens[trials + i])) for i in range(trials)]
    return _risk(null, alt, levels, trials)


def exhaustive_procedure(
    sigma: np.ndarray | KnownCovariance,
    s: int,
    thresholds: Thresholds,
) -> tuple[Callable[[Dataset], tuple[float, float]], tuple[float, float]]:
    """The exhaustive test as ``(statistics, levels)``: a dataset's variance
    quotient and peak coordinate, against ``thresholds.levels``."""
    cov = KnownCovariance.of(sigma)

    def statistics(data: Dataset) -> tuple[float, float]:
        result = run_exhaustive_test(data, cov, s, thresholds)
        return result.variance_search.statistic, result.peak_coordinate.statistic

    return statistics, thresholds.levels


@dataclass(frozen=True)
class SweepGrid:
    """A rectangular (alpha, gamma) grid with fixed problem sizes."""

    alpha_values: tuple[float, ...]
    gamma_values: tuple[float, ...]
    d: int
    s: int
    n: int
    trials: int
    seed: int

    def __post_init__(self) -> None:
        alphas = tuple(float(a) for a in self.alpha_values)
        gammas = tuple(float(g) for g in self.gamma_values)
        object.__setattr__(self, "alpha_values", alphas)
        object.__setattr__(self, "gamma_values", gammas)
        if not alphas:
            raise ValidationError("empty alpha grid")
        if not gammas:
            raise ValidationError("empty gamma grid")
        if any(hi <= lo for values in (alphas, gammas) for lo, hi in zip(values, values[1:])):
            raise ValidationError("grid values must be sorted ascending, without repeats")
        if not all(np.isfinite(alphas)) or not all(np.isfinite(gammas)):
            raise ValidationError("grid values must be finite")
        if any(g < 0 for g in gammas):
            raise ValidationError("gamma values must be nonnegative")
        if not all(0.0 <= a <= 1.0 for a in alphas):
            raise AlphaRangeError(f"alpha values must lie in [0, 1], got {alphas}")
        if self.trials < 1:
            raise ValidationError(f"need trials >= 1, got {self.trials}")


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    gamma: float
    beta: float
    test: str
    d: int
    s: int
    n: int
    trials: int
    type1: float
    type2: float
    risk: float
    half_width: float
    seed: int


_SUPPORT_KEY = 101
_TRIALS_KEY = 202
_NULL_KEY = 303


def _cell_models(
    grid: SweepGrid, ia: int, ig: int, null_mu_scale: float, cov: KnownCovariance
) -> tuple[ModelParams, float]:
    """A cell's alternative, centred on the null mean, and its per-coordinate signal ``beta``."""
    rng = spawn_rng(grid.seed, _SUPPORT_KEY, ia, ig)
    support = sorted(int(j) for j in rng.choice(grid.d, size=grid.s, replace=False))
    indicator = np.zeros(grid.d)
    indicator[support] = 1.0
    # per-coordinate signal chosen so the separation hits gamma exactly;
    # for identity covariance this is sqrt(gamma / s)
    beta = math.sqrt(grid.gamma_values[ig] / float(indicator @ np.linalg.solve(cov.sigma, indicator)))
    v = beta * indicator
    mu = np.full(grid.d, null_mu_scale)
    return ModelParams(mu0=mu - v / 2.0, mu1=mu + v / 2.0, sigma=cov, alpha=grid.alpha_values[ia]), beta


class _SweepContext:
    """What every work unit of one sweep reads, built once per process.

    It pickles as its inputs ``(grid, tests, sigma array, null_mu_scale, R, C,
    xi)``, so a worker process builds its own covariance, thresholds, query
    family and (at ``s >= 3``) support plan.
    """

    def __init__(self, grid: SweepGrid, tests: tuple[str, ...], sigma: np.ndarray | KnownCovariance,
                 null_mu_scale: float, R: float, C: float, xi: float | None) -> None:
        cov = KnownCovariance.of(sigma, grid.d)
        self._inputs = (grid, tests, cov.sigma, null_mu_scale, R, C, xi)
        self.grid, self.tests, self.cov, self.null_mu_scale = grid, tests, cov, null_mu_scale
        thresholds = default_thresholds(grid.d, grid.s, max(grid.n // 2, 1), cov)
        self.tcfg = TractableConfig(d=grid.d, n=grid.n, R=R, C=C, xi=xi)
        self.ocfg = default_oracle_config(self.tcfg)
        self.exhaustive, exhaustive_levels = exhaustive_procedure(cov, grid.s, thresholds)
        self.sampled = [name for name in tests if name != "tractable_adversarial"]
        # every arm's levels; the adversarial arm is judged as the honest test
        self.levels = {"exhaustive": exhaustive_levels, "tractable_honest": self.tcfg.levels}
        self.levels["tractable_adversarial"] = self.levels["tractable_honest"]
        # alpha = 1 draws the null's fair-coin label as the class coin itself
        mu = np.full(grid.d, null_mu_scale)
        self.null = ModelParams(mu0=mu, mu1=mu, sigma=cov, alpha=1.0)

    def __reduce__(self):
        return _SweepContext, self._inputs

    def queried(self, oracle: OraclePolicy) -> tuple[float, float]:
        result = run_tractable_test(oracle, self.tcfg, self.cov)
        return result.diagonal.statistic, result.signed.statistic

    def honest(self, data: Dataset) -> tuple[float, float]:
        return self.queried(EmpiricalOracle(data, self.ocfg))

    def statistic_rows(self, theta: ModelParams, true_model: int, *key: int) -> dict[str, list]:
        # one dataset per trial, handed to every sampled test and dropped
        # before the next is drawn, so no two datasets are ever alive at once.
        # The next is drawn into the dropped one's covariates, unless a test
        # kept that dataset: freeing and allocating an n x d array per trial
        # made the allocator hand its pages back and fault them in again.
        # The adversarial arm's analytic answers settle every trial in one
        # row. The bound methods stay local: held by the context, they would
        # make it a reference cycle that outlives the sweep
        monte_carlo = {"exhaustive": self.exhaustive, "tractable_honest": self.honest}
        stats: dict[str, list] = {name: [] for name in self.tests}
        x = None
        for trial in range(self.grid.trials if self.sampled else 0):
            data, _ = _sample_into(x, theta, self.grid.n, spawn_rng(self.grid.seed, *key, trial))
            for name in self.sampled:
                stats[name].append(monte_carlo[name](data))
            x, kept = data.covariates, weakref.ref(data)
            del data
            if kept() is not None:
                x = None
        if "tractable_adversarial" in stats:
            adv = AdversarialPairOracle(self.null, theta, self.ocfg)
            stats["tractable_adversarial"].append(self.queried(adv.policy(true_model)))
        return stats


# the sweep whose units run in this process (thread): a pool worker's is set
# once by the pool's initializer, an in-process sweep's for its own duration
_CONTEXT: contextvars.ContextVar[_SweepContext] = contextvars.ContextVar("wslab_sweep_context")


def _enter_context(ctx: _SweepContext) -> None:
    _CONTEXT.set(ctx)


def _sweep_unit(key: tuple[int, ...]) -> tuple[float, dict[str, list]]:
    """One work unit of the current sweep and its statistic rows: the null
    unit ``()`` (its trials and the model-0 adversarial transcript), or the
    cell ``(ia, ig)`` with its ``beta``."""
    ctx = _CONTEXT.get()
    if not key:
        return 0.0, ctx.statistic_rows(ctx.null, 0, _NULL_KEY)
    theta1, beta = _cell_models(ctx.grid, *key, ctx.null_mu_scale, ctx.cov)
    return beta, ctx.statistic_rows(theta1, 1, _TRIALS_KEY, *key)


# sampled covariate values per worker below which a pooled sweep's start-up
# (at its first, the fork server's interpreter importing numpy and wslab)
# costs more than it saves
_VALUES_PER_WORKER = 1 << 23
_BLAS_THREADS = "OPENBLAS_NUM_THREADS"
# the environment is process-wide, so pooled sweeps in two threads take
# turns at setting and restoring it
_ENVIRON_LOCK = threading.Lock()


def _map_units(ctx: _SweepContext, keys: list[tuple[int, ...]], workers: int) -> list:
    """``_sweep_unit`` over ``keys``, results in key order: in this process
    when ``workers == 1``, else on ``workers`` processes forked from
    multiprocessing's fork server."""
    if workers == 1:
        token = _CONTEXT.set(ctx)
        try:
            return list(map(_sweep_unit, keys))
        finally:
            _CONTEXT.reset(token)
    import multiprocessing
    import site
    from concurrent.futures import ProcessPoolExecutor

    # the interpreter's first pooled sweep starts the server, which imports
    # numpy and wslab once; every worker of every pooled sweep is a fork of it
    forkserver = multiprocessing.get_context("forkserver")
    forkserver.set_forkserver_preload([__name__])
    environ = {_BLAS_THREADS: "1"}
    # Python 3.11's server ignores the caller's sys.path, so a wslab that is
    # not installed reaches the server's preload only through PYTHONPATH
    source_root = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
    if source_root not in map(os.path.realpath, [*site.getsitepackages(), site.getusersitepackages()]):
        environ["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    pool = ProcessPoolExecutor(workers, forkserver, initializer=_enter_context, initargs=(ctx,))
    try:
        # one BLAS thread per worker, so workers do not oversubscribe the
        # cores: the server (and so each worker) keeps the environment it
        # starts with, it starts on the first submit, and every submit is in map
        with _ENVIRON_LOCK:
            saved = {name: os.environ.get(name) for name in environ}
            os.environ.update(environ)
            try:
                results = pool.map(_sweep_unit, keys, chunksize=max(1, round(len(keys) / (4 * workers))))
            finally:
                for name, value in saved.items():
                    if value is None:
                        del os.environ[name]
                    else:
                        os.environ[name] = value
        first = next(results)
        first_s = time.perf_counter() - start
        units = [first, *results]
        log.info("pooled sweep: %d units on %d %s workers, first result after %.3f s, last after %.3f s",
                 len(keys), workers, forkserver.get_start_method(), first_s, time.perf_counter() - start)
        return units
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def sweep_phase_diagram(
    grid: SweepGrid,
    tests: Sequence[str] = SWEEP_TESTS,
    threads: int = 1,
    null_mu_scale: float = 0.0,
    sigma: np.ndarray | KnownCovariance | None = None,
    R: float = TractableConfig.R,
    C: float = TractableConfig.C,
    xi: float | None = None,
) -> list[SweepRow]:
    """Monte Carlo risk over the grid, one row per (cell, test).

    ``null_mu_scale`` sets the shared null mean to that multiple of the
    all-ones vector (zero by default; a positive value stresses truncation
    bias in the query family). ``sigma`` is the known covariance (identity
    by default), validated and factored once per process; its
    condition number enters the exhaustive thresholds. The Monte Carlo
    tests share their datasets: ``trials`` null datasets for the whole sweep
    and ``trials`` alternative datasets per cell. The adversarial test runs
    one model-0 transcript for the whole sweep and one model-1 transcript
    per cell. So each test's type-I is one estimate repeated in every row.
    Rows come back in (alpha, gamma, test) order.

    The work units are the null unit and then each cell. They run on
    ``min(threads, available cores, values // 2**23)`` worker processes
    forked from multiprocessing's fork server, where ``values`` counts the
    covariate values the sweep samples, or in this process when that is at
    most one or the main script was read from standard input. The rows do
    not depend on the worker count. A script that passes ``threads > 1``
    must call this under ``if __name__ == "__main__":``, since each worker
    imports the script afresh.
    """
    if not tests:
        raise ValidationError("tests must name at least one test")
    for name in tests:
        if name not in SWEEP_TESTS:
            raise ValidationError(f"unknown test {name!r}; choose from {SWEEP_TESTS}")
    if len(set(tests)) != len(tests):
        raise ValidationError(f"tests must not repeat, got {tuple(tests)}")
    if threads < 1:
        raise ValidationError(f"threads must be positive, got {threads}")
    sigma = np.eye(grid.d) if sigma is None else sigma
    ctx = _SweepContext(grid, tuple(tests), sigma, null_mu_scale, R, C, xi)
    cells = [(ia, ig) for ia in range(len(grid.alpha_values)) for ig in range(len(grid.gamma_values))]
    values = (1 + len(cells)) * grid.trials * grid.n * grid.d if ctx.sampled else 0
    workers = max(1, min(threads, len(os.sched_getaffinity(0)), values // _VALUES_PER_WORKER))
    # a worker re-imports the main script, which one read from standard input lacks
    if getattr(sys.modules["__main__"], "__file__", None) == "<stdin>":
        workers = 1
    (_, null_rows), *cell_results = _map_units(ctx, [(), *cells], workers)

    rows: list[SweepRow] = []
    for (ia, ig), (beta, alt_rows) in zip(cells, cell_results):
        for name in ctx.tests:
            est = _risk(null_rows[name], alt_rows[name], ctx.levels[name], grid.trials)
            rows.append(
                SweepRow(
                    alpha=grid.alpha_values[ia],
                    gamma=grid.gamma_values[ig],
                    beta=beta,
                    test=name,
                    d=grid.d,
                    s=grid.s,
                    n=grid.n,
                    trials=grid.trials,
                    type1=est.type1,
                    type2=est.type2,
                    risk=est.risk,
                    half_width=est.half_width,
                    seed=grid.seed,
                )
            )
    return rows


_SWEEP_COLUMNS = (
    "alpha,gamma,beta,test,d,s,n,trials,type1,type2,risk,half_width,seed"
)


def sweep_rows_to_csv(rows: Sequence[SweepRow], header_lines: Sequence[str] = ()) -> str:
    """Serialize rows with shortest-roundtrip float formatting.

    ``header_lines`` are emitted first, one ``#``-prefixed comment per line,
    so the artifact carries its own provenance.
    """
    out = [f"# {line}" for line in header_lines]
    out.append(_SWEEP_COLUMNS)
    for r in rows:
        out.append(
            f"{r.alpha!r},{r.gamma!r},{r.beta!r},{r.test},{r.d},{r.s},{r.n},{r.trials},"
            f"{r.type1!r},{r.type2!r},{r.risk!r},{r.half_width!r},{r.seed}"
        )
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class OracleDemoReport:
    """Outcome of the pair-indistinguishability demonstration."""

    records: tuple[GapRecord, ...]
    transcripts_identical: bool
    reject_null: bool
    reject_alt: bool

    @property
    def flagged(self) -> int:
        return sum(r.flagged for r in self.records)

    @property
    def verdict(self) -> str:
        return "indistinguishable" if self.flagged == 0 else "distinguishable"


def oracle_demo(
    d: int,
    s: int,
    n: int,
    alpha: float,
    beta: float,
    R: float = TractableConfig.R,
    C: float = TractableConfig.C,
    xi: float | None = None,
) -> OracleDemoReport:
    """Run the adversarial pair oracle against the full query family.

    Null model: standard Gaussian, fair labels. Alternative: component means
    split by ``beta`` on the first ``s`` coordinates (by symmetry the gap
    pattern does not depend on which support is used). If no query is
    flagged, oracle transcripts under the two models are identical and any
    deterministic test over them has summed error exactly one on this pair.
    """
    cfg = TractableConfig(d=d, n=n, R=R, C=C, xi=xi)
    eye = KnownCovariance(np.eye(d))
    zero = np.zeros(d)
    theta0 = ModelParams(mu0=zero, mu1=zero, sigma=eye, alpha=alpha)
    theta1 = theta0 if beta == 0.0 else make_restricted_alternative(
        AltSpec(support=tuple(range(s)), beta=beta, d=d), alpha
    )
    adv = AdversarialPairOracle(theta0, theta1, default_oracle_config(cfg))
    # the model-0 run assesses every query, in issue order
    null = run_tractable_test(adv.policy(0), cfg, eye)
    alt = run_tractable_test(adv.policy(1), cfg, eye)
    return OracleDemoReport(
        records=tuple(adv.report),
        transcripts_identical=all(a.value == b.value for a, b in zip(null.transcript, alt.transcript)),
        reject_null=null.reject,
        reject_alt=alt.reject,
    )


def demo_records_to_csv(report: OracleDemoReport, header_lines: Sequence[str] = ()) -> str:
    out = [f"# {line}" for line in header_lines]
    out.append("query_id,gap,tolerance,flagged")
    for r in report.records:
        out.append(f"{r.query_id},{r.gap!r},{r.tolerance!r},{int(r.flagged)}")
    return "\n".join(out) + "\n"
