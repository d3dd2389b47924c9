"""Polynomial-time detection through bounded coordinate queries.

The tractable test talks to an oracle through exactly ``4d`` bounded queries
per run: for each coordinate a truncated standardized mean, a truncated
standardized second moment, and two signed-label means (one per sign). Two
decision rules consume the responses:

* diagonal thresholding: reject when some coordinate's response-based
  variance proxy ``z_var - z_mean^2`` reaches ``C * tau_var``;
* signed coordinate scan: reject when some signed-label response reaches
  ``2 * tau_mean``.

The combined rule rejects when either fires. Decisions depend on responses
only, so replaying a recorded transcript reproduces them exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .exhaustive import TestResult
from .model import KnownCovariance
from .oracle import (
    CoordinateQueryFamily,
    OracleConfig,
    OraclePolicy,
    OracleResponse,
)

__all__ = [
    "TractableConfig",
    "TractableResult",
    "build_queries",
    "default_oracle_config",
    "diagonal_threshold_test",
    "signed_mean_test",
    "run_tractable_test",
    "decisions_from_responses",
]


@dataclass(frozen=True)
class TractableConfig:
    """Constants for the query family and decision thresholds.

    ``R`` scales the truncation level ``R * sqrt(log d)``; ``C`` multiplies
    the variance-scan threshold; ``xi`` is the oracle tail probability
    (defaults to ``1/d``). Thresholds:

        tau_var  = R^2 log d   * sqrt(log(4d/xi) / n)
        tau_mean = R sqrt(log d) * sqrt(log(4d/xi) / n)
    """

    d: int
    n: int
    R: float = 4.0
    C: float = 8.0
    xi: float | None = None

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValidationError(f"need d >= 2, got {self.d}")
        if self.n < 1:
            raise ValidationError(f"need n >= 1, got {self.n}")
        if not self.R > 0:
            raise ValidationError(f"R must be positive, got {self.R}")
        if not self.C > 1:
            raise ValidationError(f"C must exceed 1, got {self.C}")
        if self.xi is None:
            object.__setattr__(self, "xi", 1.0 / self.d)
        if not (0.0 < self.xi < 1.0):
            raise ValidationError(f"xi must lie in (0, 1), got {self.xi}")

    @property
    def trunc_level(self) -> float:
        return self.R * math.sqrt(math.log(self.d))

    @property
    def tau_var(self) -> float:
        return self.R**2 * math.log(self.d) * math.sqrt(math.log(4 * self.d / self.xi) / self.n)

    @property
    def tau_mean(self) -> float:
        return (
            self.R * math.sqrt(math.log(self.d)) * math.sqrt(math.log(4 * self.d / self.xi) / self.n)
        )

    @property
    def levels(self) -> tuple[float, float]:
        """Rejection levels of (diagonal proxy, signed maximum): ``(C tau_var, 2 tau_mean)``."""
        return self.C * self.tau_var, 2.0 * self.tau_mean


def build_queries(cfg: TractableConfig, sigma: np.ndarray | KnownCovariance) -> CoordinateQueryFamily:
    """The ``4d`` bounded queries, in the fixed issue order.

    Order: ``d`` standardized coordinate means, ``d`` standardized second
    moments, then ``2d`` signed-label means (all ``+`` directions, then all
    ``-``). Every query truncates its standardized coordinate at
    ``R sqrt(log d)``, which also bounds the mean queries; second-moment
    queries are bounded by ``R^2 log d``.
    """
    diag = KnownCovariance.of(sigma, cfg.d).diag
    t = cfg.trunc_level
    return CoordinateQueryFamily(diag, t, bound_mean=t, bound_var=cfg.R**2 * math.log(cfg.d))


def default_oracle_config(cfg: TractableConfig, budget_T: int | None = None) -> OracleConfig:
    """Oracle configuration matched to the ``4d`` query family.

    Capacity is ``log(4d)`` (log-cardinality of the family); the budget
    defaults to exactly one pass over the family.
    """
    return OracleConfig(
        n=cfg.n,
        xi=cfg.xi,
        eta=math.log(4 * cfg.d),
        budget_T=4 * cfg.d if budget_T is None else budget_T,
    )


def diagonal_threshold_test(
    second_moment_responses: np.ndarray,
    mean_responses: np.ndarray,
    cfg: TractableConfig,
) -> TestResult:
    """Variance-scan decision from one response pair per coordinate.

    Statistic ``max_j (z_var_j - z_mean_j^2)`` against ``cfg.levels[0]``;
    the witnessing coordinate is recorded in ``detail``.
    """
    zv = np.asarray(second_moment_responses, dtype=float)
    zm = np.asarray(mean_responses, dtype=float)
    if zv.shape != (cfg.d,) or zm.shape != (cfg.d,):
        raise ValidationError(f"expected {cfg.d} responses per family, got {zv.shape} and {zm.shape}")
    proxy = zv - zm * zm
    j = int(np.argmax(proxy))
    return TestResult.decide(float(proxy[j]), cfg.levels[0], detail={"coordinate": j})


def signed_mean_test(signed_responses: np.ndarray, cfg: TractableConfig) -> TestResult:
    """Signed coordinate decision: ``max`` response against ``cfg.levels[1]``.

    ``detail`` records the witnessing direction as ``(sign, coordinate)``
    under the fixed issue order (all ``+`` first).
    """
    zs = np.asarray(signed_responses, dtype=float)
    if zs.shape != (2 * cfg.d,):
        raise ValidationError(f"expected {2 * cfg.d} signed responses, got {zs.shape}")
    idx = int(np.argmax(zs))
    sign, j = (1, idx) if idx < cfg.d else (-1, idx - cfg.d)
    return TestResult.decide(float(zs[idx]), cfg.levels[1], detail={"sign": sign, "coordinate": j})


@dataclass(frozen=True)
class TractableResult:
    """Outcome of the combined query-based test plus the full transcript."""

    diagonal: TestResult
    signed: TestResult
    transcript: tuple[OracleResponse, ...]

    @property
    def reject(self) -> bool:
        return self.diagonal.reject or self.signed.reject


def decisions_from_responses(
    responses: list[OracleResponse] | tuple[OracleResponse, ...], cfg: TractableConfig
) -> TractableResult:
    """Decide from a recorded transcript (``4d`` responses in issue order)."""
    if len(responses) != 4 * cfg.d:
        raise ValidationError(f"expected {4 * cfg.d} responses, got {len(responses)}")
    values = np.array([r.value for r in responses], dtype=float)
    d = cfg.d
    return TractableResult(
        diagonal=diagonal_threshold_test(values[d : 2 * d], values[:d], cfg),
        signed=signed_mean_test(values[2 * d :], cfg),
        transcript=tuple(responses),
    )


def run_tractable_test(
    oracle: OraclePolicy, cfg: TractableConfig, sigma: np.ndarray | KnownCovariance
) -> TractableResult:
    """Issue the ``4d`` queries as one family and combine both decisions.

    Budget errors from the oracle propagate; the oracle must allow at least
    ``4d`` further queries.
    """
    return decisions_from_responses(oracle.query_all(build_queries(cfg, sigma)), cfg)
