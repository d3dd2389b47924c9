"""Monte Carlo risk estimation, phase-diagram sweeps, and the oracle demo.

Conventions
-----------
* A sweep cell's ``n`` is the number of raw samples in each simulated
  dataset. The exhaustive test forms ``n // 2`` difference pairs and its
  default thresholds are evaluated at that pair count; the query-based test
  runs its oracle over all ``n`` samples.
* Every random draw comes from a substream derived from the grid seed and a
  structural key ``(purpose, cell, trial, arm)``, so results do not depend
  on execution order.
* Risk at a grid point is evaluated at a representative model pair (a null
  with a configurable mean and one seeded sparse alternative whose
  separation equals ``gamma`` exactly; for identity covariance its
  per-coordinate signal is ``sqrt(gamma / s)``), not as a supremum over
  parameter spaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import AlphaRangeError, ValidationError
from .exhaustive import Thresholds, default_thresholds, run_exhaustive_test
from .model import AltSpec, Dataset, KnownCovariance, ModelParams
from .model import make_restricted_alternative, sample_dataset
from .oracle import AdversarialPairOracle, EmpiricalOracle, GapRecord, OraclePolicy
from .seeding import spawn_rng
from .tractable import (
    TractableConfig,
    build_queries,
    decisions_from_responses,
    default_oracle_config,
)

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
    row rejects when any statistic is ``>=`` its level, as in :meth:`TestResult.decide`."""
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
    support_budget: int = 1_000_000,
) -> tuple[Callable[[Dataset], tuple[float, float]], tuple[float, float]]:
    """The exhaustive test as ``(statistics, levels)``: a dataset's variance
    quotient and peak coordinate, against ``thresholds.levels``."""
    cov = KnownCovariance.of(sigma)

    def statistics(data: Dataset) -> tuple[float, float]:
        result = run_exhaustive_test(data, cov, s, thresholds, support_budget=support_budget)
        return result.variance_search.statistic, result.peak_coordinate.statistic

    return statistics, thresholds.levels


def _query_test(cfg: TractableConfig, cov: KnownCovariance) -> tuple[Callable, tuple[float, float]]:
    """The query test as ``(statistics, levels)`` over an oracle policy, with
    the ``4d`` family built once, here."""
    queries = build_queries(cfg, cov)

    def statistics(oracle: OraclePolicy) -> tuple[float, float]:
        result = decisions_from_responses(oracle.query_all(queries), cfg)
        return result.diagonal.statistic, result.signed.statistic

    return statistics, cfg.levels


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
        if list(alphas) != sorted(alphas) or list(gammas) != sorted(gammas):
            raise ValidationError("grid values must be sorted ascending")
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


def _cell_models(
    grid: SweepGrid, ia: int, ig: int, null_mu_scale: float, cov: KnownCovariance
) -> tuple[ModelParams, ModelParams, float]:
    alpha = grid.alpha_values[ia]
    gamma = grid.gamma_values[ig]
    mu = np.full(grid.d, null_mu_scale)
    theta0 = ModelParams(mu0=mu, mu1=mu, sigma=cov, alpha=alpha)
    if gamma == 0.0:
        return theta0, ModelParams(mu0=mu, mu1=mu, sigma=cov, alpha=alpha), 0.0
    rng = spawn_rng(grid.seed, _SUPPORT_KEY, ia, ig)
    support = sorted(int(j) for j in rng.choice(grid.d, size=grid.s, replace=False))
    indicator = np.zeros(grid.d)
    indicator[support] = 1.0
    # per-coordinate signal chosen so the separation hits gamma exactly;
    # for identity covariance this is sqrt(gamma / s)
    beta = math.sqrt(gamma / float(indicator @ np.linalg.solve(cov.sigma, indicator)))
    v = beta * indicator
    theta1 = ModelParams(mu0=-v / 2.0, mu1=v / 2.0, sigma=cov, alpha=alpha)
    return theta0, theta1, beta


def sweep_phase_diagram(
    grid: SweepGrid,
    tests: Sequence[str] = SWEEP_TESTS,
    threads: int = 1,
    null_mu_scale: float = 0.0,
    sigma: np.ndarray | KnownCovariance | None = None,
    R: float = 4.0,
    C: float = 8.0,
    xi: float | None = None,
    support_budget: int = 1_000_000,
) -> list[SweepRow]:
    """Monte Carlo risk over the grid, one row per (cell, test).

    ``null_mu_scale`` sets the shared null mean to that multiple of the
    all-ones vector (zero by default; a positive value stresses truncation
    bias in the query family). ``sigma`` is the known covariance (identity
    by default), validated and factored once for the whole sweep; its
    condition number enters the exhaustive thresholds. Rows come back in
    (alpha, gamma, test) order. The sweep runs serially; ``threads`` is
    validated but has no effect.
    """
    for name in tests:
        if name not in SWEEP_TESTS:
            raise ValidationError(f"unknown test {name!r}; choose from {SWEEP_TESTS}")
    if threads < 1:
        raise ValidationError(f"threads must be positive, got {threads}")
    cov = KnownCovariance.of(np.eye(grid.d) if sigma is None else sigma, grid.d)
    thresholds = default_thresholds(grid.d, grid.s, max(grid.n // 2, 1), cov)
    tcfg = TractableConfig(d=grid.d, n=grid.n, R=R, C=C, xi=xi)
    ocfg = default_oracle_config(tcfg)
    queried, query_levels = _query_test(tcfg, cov)

    def sampled(test: tuple[Callable[[Dataset], Sequence[float]], Sequence[float]]) -> Callable:
        return lambda theta0, theta1, key: estimate_risk(
            test, theta0, theta1, grid.n, grid.trials, spawn_rng(grid.seed, _TRIALS_KEY, *key)
        )

    def pair_oracle(theta0: ModelParams, theta1: ModelParams, key: tuple[int, ...]) -> RiskEstimate:
        # analytic expectations and no draws: one row per arm settles every trial
        adv = AdversarialPairOracle(theta0, theta1, ocfg)
        return _risk([queried(adv.policy(0))], [queried(adv.policy(1))], query_levels, grid.trials)

    arms = {
        "exhaustive": sampled(exhaustive_procedure(cov, grid.s, thresholds, support_budget)),
        "tractable_honest": sampled((lambda data: queried(EmpiricalOracle(data, ocfg)), query_levels)),
        "tractable_adversarial": pair_oracle,
    }

    rows: list[SweepRow] = []
    for ia, alpha in enumerate(grid.alpha_values):
        for ig, gamma in enumerate(grid.gamma_values):
            theta0, theta1, beta = _cell_models(grid, ia, ig, null_mu_scale, cov)
            for test_index, name in enumerate(tests):
                est = arms[name](theta0, theta1, (ia, ig, test_index))
                rows.append(
                    SweepRow(
                        alpha=alpha,
                        gamma=gamma,
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

    d: int
    s: int
    n: int
    alpha: float
    beta: float
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
    R: float = 4.0,
    C: float = 8.0,
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
    ocfg = default_oracle_config(cfg)
    adv = AdversarialPairOracle(theta0, theta1, ocfg)
    queries = build_queries(cfg, eye)
    for q in queries:
        adv.assess(q)
    transcript0 = adv.policy(0).query_all(queries)
    transcript1 = adv.policy(1).query_all(queries)
    identical = all(a.value == b.value for a, b in zip(transcript0, transcript1))
    return OracleDemoReport(
        d=d,
        s=s,
        n=n,
        alpha=alpha,
        beta=beta,
        records=tuple(adv.report),
        transcripts_identical=identical,
        reject_null=decisions_from_responses(transcript0, cfg).reject,
        reject_alt=decisions_from_responses(transcript1, cfg).reject,
    )


def demo_records_to_csv(report: OracleDemoReport, header_lines: Sequence[str] = ()) -> str:
    out = [f"# {line}" for line in header_lines]
    out.append("query_id,gap,tolerance,flagged")
    for r in report.records:
        out.append(f"{r.query_id},{r.gap!r},{r.tolerance!r},{int(r.flagged)}")
    return "\n".join(out) + "\n"
