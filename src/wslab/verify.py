"""Self-verification suites exposed through the ``verify`` subcommand.

Each suite re-derives a closed-form ingredient by an independent route
(Monte Carlo, exhaustive enumeration, or dense grid evaluation) and compares.
Checks are deterministic given the seed, so a passing table is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError
from .model import AltSpec, ModelParams, make_restricted_alternative, sample_dataset
from .oracle import CoordinateQuery, OracleConfig, tolerance
from .seeding import spawn_rng
from .theory import (
    hyperbolic_bound_check,
    likelihood_cross_moment,
    mc_likelihood_cross_moment,
    mixture_chi_square,
    mixture_chi_square_enumerated,
)

__all__ = ["CheckResult", "SUITES", "run_suites", "checks_to_csv"]


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def _lemma1_checks(seed: int) -> list[CheckResult]:
    # overlapping sparse signals: inner product beta^2 * |overlap|; for the
    # +-v/2 mean split the exact moment is the hyperbolic form at half the
    # inner product (see mc_likelihood_cross_moment)
    beta, overlap = 0.5, 1
    v1 = np.zeros(5)
    v2 = np.zeros(5)
    v1[[0, 1]] = beta
    v2[[1, 2]] = beta
    inner = beta * beta * overlap
    out = []
    for i, alpha in enumerate((0.0, 0.3, 1.0)):
        expected = likelihood_cross_moment(inner / 2.0, alpha)
        est, se = mc_likelihood_cross_moment(v1, v2, alpha, 200_000, spawn_rng(seed, 11, i))
        ok = abs(est - expected) <= 4.0 * se
        out.append(
            CheckResult(
                "lemma1",
                f"cross_moment_half_inner_alpha_{alpha:g}",
                ok,
                f"expected={expected:.6f} est={est:.6f} se={se:.2e}",
            )
        )
    return out


def _lemma2_checks(seed: int) -> list[CheckResult]:
    x = np.round(np.arange(0, 10.0001, 0.01), 10)
    v = np.round(np.arange(0, 1.0001, 0.01), 10)
    violations = hyperbolic_bound_check(x, v)
    return [
        CheckResult(
            "lemma2",
            "hyperbolic_envelope_grid",
            len(violations) == 0,
            f"{x.size * v.size} points, {len(violations)} violations",
        )
    ]


def _chisq_checks(seed: int) -> list[CheckResult]:
    out = []
    for d, s in ((6, 2), (8, 3)):
        exact = mixture_chi_square(d, s, beta=0.3, alpha=0.5, n=10)
        brute = mixture_chi_square_enumerated(d, s, beta=0.3, alpha=0.5, n=10)
        rel = abs(exact - brute) / max(abs(brute), 1e-300)
        out.append(
            CheckResult(
                "chisq",
                f"hypergeometric_vs_enumeration_d{d}_s{s}",
                rel <= 1e-10,
                f"exact={exact:.12e} brute={brute:.12e} rel={rel:.2e}",
            )
        )
    return out


def _moments_checks(seed: int) -> list[CheckResult]:
    out = []
    n = 40_000
    # class-difference mean: alpha * (mu1 - mu0), checked against its own SE
    theta = make_restricted_alternative(AltSpec(support=(0, 2), beta=0.4, d=5), alpha=0.5)
    data = sample_dataset(theta, n, spawn_rng(seed, 21))
    rows0, rows1 = np.flatnonzero(data.labels == 0), np.flatnonzero(data.labels == 1)
    m = min(len(rows0), len(rows1))  # x1_i - x0_i; the larger class drops its tail
    u = data.covariates[rows1[:m]] - data.covariates[rows0[:m]]
    resid = np.abs(u.mean(axis=0) - theta.alpha * theta.delta_mu)
    se = u.std(axis=0, ddof=1) / math.sqrt(u.shape[0])
    out.append(
        CheckResult(
            "moments",
            "class_difference_mean",
            bool(np.all(resid <= 4.0 * se)),
            f"max residual {resid.max():.4f} vs 4*SE {float((4 * se).max()):.4f}",
        )
    )
    # raw pair-difference covariance: 2 Sigma in operator norm
    rng = spawn_rng(seed, 22)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    sigma = q @ np.diag(rng.uniform(0.5, 2.0, size=5)) @ q.T
    sigma = (sigma + sigma.T) / 2.0
    theta0 = ModelParams(mu0=np.zeros(5), mu1=np.zeros(5), sigma=sigma, alpha=0.5)
    data0 = sample_dataset(theta0, 2 * n, spawn_rng(seed, 23))
    diffs = data0.covariates[1::2] - data0.covariates[0::2]
    cov = diffs.T @ diffs / diffs.shape[0]
    dev = float(np.linalg.norm(cov - 2.0 * sigma, ord=2))
    out.append(
        CheckResult(
            "moments",
            "pair_difference_covariance",
            dev <= 0.1,
            f"operator-norm deviation {dev:.4f} (limit 0.1)",
        )
    )
    return out


def _tolerance_checks(seed: int) -> list[CheckResult]:
    out = []
    # only the bound of a query enters its tolerance
    q = CoordinateQuery("coordinate_mean", 0, 1.0, 1.0, bound_M=1.0)
    cfg = OracleConfig(n=100, xi=math.exp(-1.0), eta=0.0, budget_T=1)
    got = tolerance(q, 0.0, cfg)
    expected = math.sqrt(2.0 / 100.0)
    out.append(
        CheckResult(
            "tolerances",
            "variance_branch_golden",
            math.isclose(got, expected, rel_tol=1e-12),
            f"got={got:.12f} expected={expected:.12f}",
        )
    )
    got_edge = tolerance(q, 1.0, cfg)
    out.append(
        CheckResult(
            "tolerances",
            "range_branch_at_full_expectation",
            math.isclose(got_edge, cfg.capacity_term * 1.0 / 100.0, rel_tol=1e-12),
            f"got={got_edge:.12f}",
        )
    )
    # branch dominance is exactly the inequality cap*M^2 >= 2n(M^2 - E^2)
    ok = True
    worst = ""
    for m in (0.5, 1.0, 3.0):
        for e_frac in (0.0, 0.5, 0.9, 1.0):
            for n in (10, 1000):
                for cap in (0.5, 5.0, 50.0):
                    c = OracleConfig(n=n, xi=math.exp(-cap), eta=0.0, budget_T=1)
                    qq = CoordinateQuery("coordinate_mean", 0, m, 1.0, bound_M=m)
                    e = e_frac * m
                    b1 = cap * m / n
                    b2 = math.sqrt(2.0 * cap * (m * m - e * e) / n)
                    agree = (tolerance(qq, e, c) == max(b1, b2)) and (
                        (b1 >= b2) == (cap * m * m >= 2 * n * (m * m - e * e))
                    )
                    if not agree:
                        ok = False
                        worst = f"M={m} E={e} n={n} cap={cap}"
    out.append(CheckResult("tolerances", "branch_crossover_identity", ok, worst or "grid clean"))
    return out


SUITES: dict[str, Callable[[int], list[CheckResult]]] = {
    "lemma1": _lemma1_checks,
    "lemma2": _lemma2_checks,
    "chisq": _chisq_checks,
    "moments": _moments_checks,
    "tolerances": _tolerance_checks,
}


def run_suites(names: Sequence[str], seed: int = 0) -> list[CheckResult]:
    if not names:
        raise ValidationError("suites must name at least one suite")
    results: list[CheckResult] = []
    for name in names:
        try:
            suite = SUITES[name]
        except KeyError:
            raise ValidationError(f"unknown verify suite {name!r}; choose from {sorted(SUITES)}")
        results.extend(suite(seed))
    return results


def checks_to_csv(results: Sequence[CheckResult], header_lines: Sequence[str] = ()) -> str:
    out = [f"# {line}" for line in header_lines]
    out.append("suite,check,passed,detail")
    for r in results:
        detail = r.detail.replace(",", ";")
        out.append(f"{r.suite},{r.name},{int(r.passed)},{detail}")
    return "\n".join(out) + "\n"
