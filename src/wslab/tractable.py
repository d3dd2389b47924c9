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

import functools
import math
from dataclasses import dataclass, field

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
        # R * R: R**2 raises OverflowError where the product is inf
        if not (self.R > 0 and math.isfinite(self.R * self.R * math.log(self.d))):
            raise ValidationError(f"R must be positive with R^2 log d finite, got {self.R}")
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
    queries take values in ``[-1, R^2 log d - 1]`` and are bounded by
    ``max(1, R^2 log d)``. One immutable family is built per ``(cfg, diag
    Sigma)``, the only inputs it depends on, and shared by every caller.
    """
    return _query_family(cfg, tuple(KnownCovariance.of(sigma, cfg.d).diag.tolist()))


@functools.lru_cache(maxsize=8)  # a sweep uses one family
def _query_family(cfg: TractableConfig, diag: tuple[float, ...]) -> CoordinateQueryFamily:
    t = cfg.trunc_level
    return CoordinateQueryFamily(diag, t, bound_mean=t, bound_var=max(1.0, cfg.R**2 * math.log(cfg.d)))


def default_oracle_config(cfg: TractableConfig) -> OracleConfig:
    """Oracle configuration matched to the ``4d`` query family.

    Capacity is ``log(4d)`` (log-cardinality of the family); the budget is
    exactly one pass over the family.
    """
    return OracleConfig(
        n=cfg.n,
        xi=cfg.xi,
        eta=math.log(4 * cfg.d),
        budget_T=4 * cfg.d,
    )


@dataclass(frozen=True, eq=False)
class TractableResult:
    """Outcome of the combined query-based test, with its answers.

    ``answers`` are the ``4d`` response values in issue order and
    ``query_ids`` their queries' ids; ``transcript`` pairs them as
    ``OracleResponse`` objects, built the first time it is read.
    """

    diagonal: TestResult
    signed: TestResult
    answers: np.ndarray = field(repr=False)
    query_ids: tuple[str, ...] = field(repr=False)

    @property
    def reject(self) -> bool:
        return self.diagonal.reject or self.signed.reject

    @functools.cached_property
    def transcript(self) -> tuple[OracleResponse, ...]:
        return tuple(OracleResponse(v, qid) for v, qid in zip(self.answers.tolist(), self.query_ids))


def decisions_from_responses(
    responses: list[OracleResponse] | tuple[OracleResponse, ...], cfg: TractableConfig
) -> TractableResult:
    """Decide from a recorded transcript (``4d`` responses in issue order).

    The statistics are ``max_j (z_var_j - z_mean_j^2)``, witnessed by a
    coordinate, and the largest signed-label response, witnessed by
    ``(sign, coordinate)`` with all ``+`` directions first.
    """
    if len(responses) != 4 * cfg.d:
        raise ValidationError(f"expected {4 * cfg.d} responses, got {len(responses)}")
    values = np.array([r.value for r in responses], dtype=float)
    return _decide(values, cfg, tuple(r.query_id for r in responses))


def _decide(values: np.ndarray, cfg: TractableConfig, query_ids: tuple[str, ...]) -> TractableResult:
    d = cfg.d
    level_var, level_mean = (float(level) for level in cfg.levels)
    proxy = values[d : 2 * d] - values[:d] * values[:d]
    j = int(np.argmax(proxy))
    signed = values[2 * d :]
    idx = int(np.argmax(signed))
    sign, k = (1, idx) if idx < d else (-1, idx - d)
    values.setflags(write=False)
    return TractableResult(
        diagonal=TestResult(float(proxy[j]), level_var, detail={"coordinate": j}),
        signed=TestResult(float(signed[idx]), level_mean, detail={"sign": sign, "coordinate": k}),
        answers=values,
        query_ids=query_ids,
    )


def run_tractable_test(
    oracle: OraclePolicy, cfg: TractableConfig, sigma: np.ndarray | KnownCovariance
) -> TractableResult:
    """Issue the ``4d`` queries as one family and combine both decisions.

    The oracle answers the family as one vector (``OraclePolicy.answer_all``)
    and both decisions read it. Budget errors from the oracle propagate; the
    oracle must allow at least ``4d`` further queries.
    """
    queries = build_queries(cfg, sigma)
    return _decide(oracle.answer_all(queries), cfg, queries.ids)
