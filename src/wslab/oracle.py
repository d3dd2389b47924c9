"""Simulated statistical-query oracle.

An algorithm under the statistical-query discipline never touches raw data:
it submits bounded queries ``q(y, x) in [-M, M]`` and receives any response
within a tolerance ``tau_q`` of the true expectation. The tolerance
combines a range term and a variance term, mirroring a Bernstein bound with
a capacity charge ``eta`` for the whole query family:

    tau_q = max( (eta + log(1/xi)) * M / n,
                 sqrt( 2 (eta + log(1/xi)) (M^2 - E[q]^2) / n ) ).

Three response policies are provided:

* ``EmpiricalOracle`` answers with the sample average (the canonical honest
  oracle; deterministic given the dataset);
* ``WorstCaseOracle`` answers ``E[q] + sign * tau_q``, the most hostile value
  a conforming oracle may return, to stress-test decision rules;
* ``AdversarialPairOracle`` holds two models and answers with the first
  model's expectation whenever that is simultaneously legal under both,
  which makes any test built on those responses blind to the pair.

Every query is a ``CoordinateQuery``, a truncated statistic of one
standardized coordinate. Its id, its per-sample values and its closed-form
expectation (two truncated normal moments of its window, one at each class
mean) all come from its fields, so every policy answers the same query.
``CoordinateQueryFamily`` is the test's ``4d`` queries as one object.

Every policy issues a batch, a lone query or a family, through one rule: it
answers the whole batch as a float vector in issue order, finds the first
query with no closed form or an expectation beyond its bound, and charges
and raises exactly as issuing the queries one at a time would. The
worst-case and adversarial answers come from one table of expectations and
tolerances over the batch's columns, so a query's answer has the same bits
however it is issued. An ``OracleResponse`` is built only where a caller
asks for one (``query``, ``query_all``), and a pair oracle's gap records
only when its ``report`` is read.

The honest oracle reads the covariates in row blocks of ``_BLOCK_ELEMENTS //
d`` rows, in place. A query's sum adds the rows of each block in row order
and the block sums in block order, starting from ``+0.0``; the family pass
and a lone query's column both sum that way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    BudgetExceededError,
    ExpectationOutOfRangeError,
    NoAnalyticExpectationError,
    UnsupportedQueryKindError,
    ValidationError,
)
from .model import Dataset, ModelParams

__all__ = [
    "CoordinateQuery",
    "CoordinateQueryFamily",
    "OracleConfig",
    "OracleResponse",
    "GapRecord",
    "tolerance",
    "analytic_expectation",
    "OraclePolicy",
    "EmpiricalOracle",
    "WorstCaseOracle",
    "AdversarialPairOracle",
]

# each kind's id format over (sign, j), in the family's issue order; only a
# signed-label id shows its sign
_KINDS = {
    "coordinate_mean": "coord_mean[{1}]",
    "coordinate_second_moment": "coord_var[{1}]",
    "signed_label_mean": "signed_mean[{0}{1}]",
}

# float64 elements in one row block of the honest oracle's pass: 256 KiB,
# so a block and its work buffer stay in a per-core cache
_BLOCK_ELEMENTS = 1 << 15

# distinct (standardized mean, window) moment triples kept; an adversarial
# cell needs a handful, a sweep a few hundred
_MOMENT_CACHE_SIZE = 4096

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class CoordinateQuery:
    """One truncated coordinate query, described completely by its fields.

    ``kind`` selects the statistic, ``j`` the coordinate, ``trunc`` the
    symmetric truncation level of the standardized ``X_j / sqrt(sigma_jj)``,
    ``bound_M`` the declared range ``[-M, M]``, which must be finite and
    cover the statistic's values (so ``trunc`` is finite too), and ``sign``
    the direction (``-1`` on signed-label queries only). ``id``,
    ``evaluate`` and ``analytic_expectation`` all read these fields; queries
    compare and hash by them.
    """

    kind: str
    j: int
    trunc: float
    sigma_jj: float
    bound_M: float
    sign: int = 1
    id: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise UnsupportedQueryKindError(f"unknown query kind {self.kind!r}")
        if self.sign not in (-1, 1):
            raise ValidationError(f"sign must be +1 or -1, got {self.sign}")
        if self.sign < 0 and self.kind != "signed_label_mean":
            raise ValidationError(f"sign -1 is defined for signed_label_mean only, not {self.kind}")
        if not self.trunc > 0:
            raise ValidationError("truncation level must be positive")
        if not self.sigma_jj > 0:
            raise ValidationError("sigma_jj must be positive")
        if not math.isfinite(self.bound_M):
            raise ValidationError(f"bound_M must be finite, got {self.bound_M!r}")
        if not self.bound_M >= _statistic_range(self.kind, self.trunc):
            raise ValidationError(
                f"bound_M {self.bound_M!r} is below the range "
                f"{_statistic_range(self.kind, self.trunc)!r} of {self.kind} truncated at {self.trunc!r}"
            )
        # formatted once: the honest arm reads 4d ids per dataset
        object.__setattr__(self, "id", _KINDS[self.kind].format("+" if self.sign > 0 else "-", self.j))

    def evaluate(self, labels: np.ndarray, covariates: np.ndarray) -> np.ndarray:
        """Per-sample values, shape ``(m,)``, on labels ``(m,)`` and covariates ``(m, d)``."""
        z = covariates[:, self.j] / math.sqrt(self.sigma_jj)
        if self.sign < 0:
            z = -z
        signs = 2.0 * labels - 1.0 if self.kind == "signed_label_mean" else None
        return _truncated_statistic(self.kind, signs, z, np.abs(z) <= self.trunc)


def _statistic_range(kind: str, trunc: float) -> float:
    """The largest ``|value|`` a query of ``kind`` truncated at ``trunc`` takes."""
    if kind == "coordinate_second_moment":
        return max(1.0, trunc * trunc - 1.0)
    return trunc


def _truncated_statistic(
    kind: str,
    signs: np.ndarray | None,
    z: np.ndarray,
    inside: np.ndarray | None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-sample values of a coordinate query on standardized covariates ``z``.

    ``z`` is one column of shape ``(m,)`` or a block of shape ``(m, b)``,
    one column per query; ``inside`` is ``|z| <= trunc``, or ``None`` when
    every value lies inside, and ``signs`` the labels as ``2y - 1`` (read by
    signed-label queries only), which broadcast against ``z``. The values are
    ``z 1{inside}``, ``(z^2 - 1) 1{inside}`` or ``(2y - 1) z 1{inside}`` for
    the three kinds, written to ``out`` when it is given; with no mask a mean
    query's values are ``z`` itself.
    """
    if kind == "coordinate_mean":
        return z if inside is None else np.multiply(z, inside, out=out)
    if kind == "coordinate_second_moment":
        out = np.multiply(z, z, out=out)
        np.subtract(out, 1.0, out=out)
    else:
        out = np.multiply(signs, z, out=out)
    return out if inside is None else np.multiply(out, inside, out=out)


def _rows_per_block(d: int) -> int:
    """Rows of an ``n x d`` covariate array in one block of the honest pass."""
    return max(1, _BLOCK_ELEMENTS // max(d, 1))


def _row_order_sum(block: np.ndarray) -> np.ndarray:
    """Column sums of a C-ordered ``(m, b)`` block, adding its rows in order.

    ``np.add.reduce`` does so for two or more columns; a lone column is one
    contiguous run, which it would sum pairwise, so that one accumulates.
    """
    if block.shape[1] > 1:
        return np.add.reduce(block, axis=0)
    return np.add.accumulate(block, axis=0)[-1]


class CoordinateQueryFamily(tuple):
    """The ``4d`` truncated coordinate queries, in the fixed issue order.

    Order: ``d`` standardized coordinate means, ``d`` standardized second
    moments, then ``2d`` signed-label means (all ``+`` directions, then all
    ``-``). Coordinate ``j`` is standardized by ``sqrt(diag[j])`` and
    truncated at ``trunc``; the mean and signed queries are bounded by
    ``bound_mean``, the second moments by ``bound_var``. Each element is a
    ``CoordinateQuery`` whose ``evaluate`` gives its values on any rows;
    ``column_means`` answers the whole family in one pass over row blocks,
    summed in the order ``EmpiricalOracle`` sums a single query, so the
    values agree bit for bit. ``diag``, ``scales``, ``bounds`` and ``ids``
    hold the queries' fields as arrays (the ids as a tuple). Families are
    immutable.
    """

    def __new__(
        cls, diag: np.ndarray, trunc: float, bound_mean: float, bound_var: float
    ) -> "CoordinateQueryFamily":
        diag = np.asarray(diag, dtype=float)
        groups = [
            ("coordinate_mean", 1, bound_mean),
            ("coordinate_second_moment", 1, bound_var),
            ("signed_label_mean", 1, bound_mean),
            ("signed_label_mean", -1, bound_mean),
        ]
        queries = [
            CoordinateQuery(kind, j, trunc, float(diag[j]), bound, sign)
            for kind, sign, bound in groups
            for j in range(diag.shape[0])
        ]
        family = super().__new__(cls, queries)
        arrays = {
            "diag": diag.copy(),
            "scales": np.sqrt(diag),
            "bounds": np.array([q.bound_M for q in queries], dtype=float),
        }
        for name, values in arrays.items():
            values.setflags(write=False)
            object.__setattr__(family, name, values)
        object.__setattr__(family, "trunc", trunc)
        object.__setattr__(family, "ids", tuple(q.id for q in queries))
        object.__setattr__(family, "_hash", tuple.__hash__(family))
        return family

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self) -> int:
        # the tuple's hash, taken once: a pair oracle looks a family up per issue
        return self._hash

    def column_means(self, labels: np.ndarray, covariates: np.ndarray) -> np.ndarray:
        """The ``4d`` sample means in issue order, from one pass over row blocks.

        A block is ``_BLOCK_ELEMENTS // d`` consecutive rows (at least one),
        standardized into a C-ordered buffer, or read in place when every
        scale is 1.0. Its ``|z|`` goes to one work buffer; only a block with
        a value beyond ``trunc`` makes the mask and multiplies by it (a
        factor 1.0 changes no bits). Each statistic's column sums add the
        block's rows in order, and the block sums add in block order from
        ``+0.0``, so every column is summed in row order within its block.
        """
        n, d = covariates.shape
        if d != self.scales.shape[0]:
            raise ValidationError(
                f"covariates have {d} columns, the query family {self.scales.shape[0]}"
            )
        sums = np.zeros((3, d))
        signs = (2.0 * labels - 1.0)[:, None]
        rows = max(1, min(n, _rows_per_block(d)))
        unit = bool(np.all(self.scales == 1.0))
        z_block = np.empty((rows, d))
        work_block = np.empty((rows, d))
        inside_block = np.empty((rows, d), dtype=bool)
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            z = covariates[lo:hi]
            if not (unit and z.flags.c_contiguous):
                z = np.divide(z, self.scales, out=z_block[: hi - lo])
            work = np.abs(z, out=work_block[: hi - lo])
            inside = None
            if not work.max() <= self.trunc:
                inside = np.less_equal(work, self.trunc, out=inside_block[: hi - lo])
            for row, kind in enumerate(_KINDS):
                sums[row] += _row_order_sum(_truncated_statistic(kind, signs[lo:hi], z, inside, out=work))
        # The "-" half is the sum of the negated "+" values: exactly -sum,
        # except that a zero sum stays +0.0 (the sums start from +0.0),
        # which 0.0 - sum gives and -sum does not.
        return np.concatenate([sums.ravel(), 0.0 - sums[2]]) / n


@dataclass(frozen=True)
class OracleConfig:
    """Oracle parameters: effective sample size, tail probability, capacity, budget."""

    n: int
    xi: float
    eta: float
    budget_T: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError(f"need n >= 1, got {self.n}")
        if not (0.0 < self.xi < 1.0):
            raise ValidationError(f"xi must lie in (0, 1), got {self.xi}")
        if self.eta < 0.0:
            raise ValidationError(f"eta must be nonnegative, got {self.eta}")
        if self.budget_T < 0:
            raise ValidationError(f"budget_T must be nonnegative, got {self.budget_T}")

    @property
    def capacity_term(self) -> float:
        return self.eta + math.log(1.0 / self.xi)


@dataclass(frozen=True)
class OracleResponse:
    """An oracle's answer: a value and the id of the query it answers."""

    value: float
    query_id: str


@dataclass(frozen=True)
class GapRecord:
    """Distinguishability of one query across a model pair."""

    query_id: str
    gap: float
    tolerance: float

    @property
    def flagged(self) -> bool:
        return self.gap > self.tolerance


def tolerance(q: CoordinateQuery, expectation: float, cfg: OracleConfig) -> float:
    """Allowed response deviation for ``q`` when its true expectation is known.

    Maximum of the range branch ``(eta + log(1/xi)) M / n`` and the variance
    branch ``sqrt(2 (eta + log(1/xi)) (M^2 - E^2) / n)``.
    """
    tau, failure = _tolerances(q, np.array([expectation]), cfg)
    if failure:
        raise failure[1]
    return float(tau[0])


# a batch is a lone CoordinateQuery or a CoordinateQueryFamily; a failure is
# the index in issue order of the batch's first failing query and its error
_Failure = tuple[int, Exception]


def _queries(batch) -> Sequence[CoordinateQuery]:
    return (batch,) if isinstance(batch, CoordinateQuery) else batch


def _first(*failures: _Failure | None) -> _Failure | None:
    # the failure at the lowest index; at one index the first given, which
    # is the order a lone query's checks run in
    return min(filter(None, failures), key=lambda failure: failure[0], default=None)


def _tolerances(batch, expectation: np.ndarray, cfg: OracleConfig) -> tuple[np.ndarray, _Failure | None]:
    # tolerance's formula over a batch, and its first query whose |E[q]|
    # exceeds the declared bound M beyond rounding. fmax, like Python's max,
    # keeps the range branch over a nan variance branch
    bound = batch.bound_M if isinstance(batch, CoordinateQuery) else batch.bounds
    cap = cfg.capacity_term
    range_branch = cap * bound / cfg.n
    var_bound = np.fmax(bound * bound - expectation * expectation, 0.0)
    tau = np.fmax(range_branch, np.sqrt(2.0 * cap * var_bound / cfg.n))
    beyond = np.flatnonzero(abs(expectation) > bound * (1.0 + 1e-12))
    if not beyond.size:
        return tau, None
    i = int(beyond[0])
    q = _queries(batch)[i]
    return tau, (i, ExpectationOutOfRangeError(
        f"|E[q]| = {abs(expectation[i]):.6g} exceeds the declared bound {q.bound_M:.6g} for query {q.id!r}"
    ))


# ---------------------------------------------------------------------------
# Truncated normal moments
# ---------------------------------------------------------------------------


def _phi(x: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def _Phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


@functools.lru_cache(maxsize=_MOMENT_CACHE_SIZE)
def _truncated_moments(mean: float, t: float) -> tuple[float, float, float]:
    """(mass, first, second) partial moments of N(mean, 1) on ``[-t, t]``.

    ``first = E[X 1{|X| <= t}]`` and similarly for ``second``; the moments
    are not normalized by the mass. Memoised: a model pair's queries share
    a few distinct standardized means (every coordinate off the signal
    support looks alike), and these moments are the costly part of an
    adversarial cell.
    """
    a = -t - mean
    b = t - mean
    p = _Phi(b) - _Phi(a)
    dphi = _phi(a) - _phi(b)
    m1 = mean * p + dphi
    m2 = (1.0 + mean * mean) * p + 2.0 * mean * dphi + a * _phi(a) - b * _phi(b)
    return p, m1, m2


def _expectations(batch, theta: ModelParams) -> tuple[np.ndarray, _Failure | None]:
    """``E_theta`` of a batch's queries in issue order, and its first query
    with no closed form under ``theta``.

    The batch's columns (a family's ``d``, a lone query's ``j``) are
    standardized at both class means, and each distinct value takes one
    memoised ``_truncated_moments`` call; the closed forms of
    ``analytic_expectation`` give each column's mean, second-moment and "+"
    signed-label expectations. These are laid out as the family's four
    groups, or as the lone query's kind and sign. A query standardized with
    a variance apart from the model's has no closed form; the first is
    returned as ``(index, NoAnalyticExpectationError)``.
    """
    lone = isinstance(batch, CoordinateQuery)
    columns = [batch.j] if lone else np.arange(len(batch.diag))
    diag = np.array([batch.sigma_jj]) if lone else batch.diag
    standardized = np.divide(np.stack([theta.mu0[columns], theta.mu1[columns]]), np.sqrt(diag)).ravel()
    distinct, at = np.unique(standardized, return_inverse=True)
    moments = np.array([_truncated_moments(mean, batch.trunc) for mean in distinct.tolist()])
    mass, first, second = moments.T[:, at].reshape(3, 2, -1)
    mean = (first[0] + first[1]) / 2.0
    second_moment = ((second[0] - mass[0]) + (second[1] - mass[1])) / 2.0
    signed = theta.alpha * (first[1] - first[0]) / 2.0
    # as in column_means, the "-" signed group is 0.0 - value; starting both
    # signs from +0.0 keeps a zero +0.0 (alpha = 0 times a negative gap is -0.0)
    groups = np.stack([mean, second_moment, 0.0 + signed, 0.0 - signed])
    expectation = groups[list(_KINDS).index(batch.kind) + (batch.sign < 0)] if lone else groups.ravel()
    model_var = theta.cov.diag[columns]
    apart = np.flatnonzero(_variance_apart(diag, model_var))
    if not apart.size:
        return expectation, None
    # a family's coordinate means come first, so column j's first query is query j
    j = int(apart[0])
    q = _queries(batch)[j]
    return expectation, (j, NoAnalyticExpectationError(
        f"query {q.id!r} was standardized with variance {q.sigma_jj:.6g} "
        f"but the model has {model_var[j]:.6g}"
    ))


def analytic_expectation(q: CoordinateQuery, theta: ModelParams) -> float:
    """Exact ``E_theta[q]``: the expectation of ``q.evaluate`` under ``theta``.

    With ``a_z = mu_z[j] / sqrt(sigma_jj)`` and the moments ``(p, m1, m2)``
    of the window ``[-t, t]`` at each ``a_z``, a mean query has ``(m1(a_0)
    + m1(a_1)) / 2`` and a second-moment query ``((m2 - p)(a_0) + (m2 -
    p)(a_1)) / 2``. A signed-label query mixes the label's sign with the
    class: on a symmetric window ``m1`` is odd in the mean, so its four
    (label, class) terms fold into ``sign * alpha * (m1(a_1) - m1(a_0)) / 2``.
    """
    expectation, failure = _expectations(q, theta)
    if failure:
        raise failure[1]
    return float(expectation[0])


def _variance_apart(query_var, model_var):
    # not math.isclose(model_var, query_var, rel_tol=1e-9), elementwise: a
    # query standardized with query_var has no closed form under a model
    # whose variance is that far from it; a nan or infinite difference is apart
    diff = abs(query_var - model_var)
    beyond = (diff > abs(1e-9 * query_var)) & (diff > abs(1e-9 * model_var))
    return (query_var != model_var) & ((diff != diff) | (diff == math.inf) | beyond)


# ---------------------------------------------------------------------------
# Oracle policies
# ---------------------------------------------------------------------------


class OraclePolicy:
    """Base policy: budget accounting plus a response rule.

    Every query is issued in a batch, a lone ``CoordinateQuery`` or a
    ``CoordinateQueryFamily``, through ``_issue``. A policy instance holds
    mutable budget state and is meant to be driven by one test run at a
    time; create separate instances for concurrent runs.
    """

    def __init__(self, cfg: OracleConfig) -> None:
        self.cfg = cfg
        self._issued = 0

    @property
    def queries_issued(self) -> int:
        return self._issued

    def query(self, q: CoordinateQuery) -> OracleResponse:
        return OracleResponse(value=float(self._issue(q)[0]), query_id=q.id)

    def answer_all(self, queries: Sequence[CoordinateQuery]) -> np.ndarray:
        """Issue ``queries`` in order, one budget unit each; their answers as one float vector.

        A ``CoordinateQueryFamily`` is issued as one batch, any other
        sequence as lone queries in order. Either way a budget that runs out
        partway raises on the first query past it with exactly the budget
        spent, and any other error raises at its first query, that query
        charged.
        """
        if isinstance(queries, CoordinateQueryFamily):
            return self._issue(queries)
        return np.array([self._issue(q)[0] for q in queries], dtype=float)

    def query_all(self, queries: Sequence[CoordinateQuery]) -> list[OracleResponse]:
        """``answer_all``'s answers as one response per query."""
        return [OracleResponse(v, q.id) for q, v in zip(queries, self.answer_all(queries).tolist())]

    def _issue(self, batch) -> np.ndarray:
        # the order of issuing the batch's queries one at a time, each checked
        # against the budget before it is answered: charge min(remaining
        # budget, first failing index + 1, len) units, then raise on the first
        # query past the budget, or raise the failing query's error, or answer
        values, failure = self._answer(batch)
        queries = _queries(batch)
        due = len(queries) if failure is None else failure[0] + 1
        remaining = self.cfg.budget_T - self._issued
        if remaining < due:
            self._issued += remaining
            raise BudgetExceededError(
                f"query budget of {self.cfg.budget_T} exhausted; refusing query {queries[remaining].id!r}"
            )
        self._issued += due
        if failure:
            raise failure[1]
        return values

    def _answer(self, batch) -> tuple[np.ndarray, _Failure | None]:  # pragma: no cover - abstract
        """A batch's answers in issue order, and its first query with no
        closed form or an expectation beyond its bound."""
        raise NotImplementedError


class EmpiricalOracle(OraclePolicy):
    """Honest oracle: responds with the sample average of the query.

    Responses are deterministic given the dataset and, up to rounding,
    invariant to sample order. Conformance against the exact tolerance is a
    statement about the data distribution and is checked in tests, not here.

    A family is answered by ``column_means``; a lone query runs its own
    ``evaluate`` on its column, read in place, and sums the values over the
    same row blocks in the same order, so its answer has the same bits.
    """

    def __init__(self, data: Dataset, cfg: OracleConfig) -> None:
        super().__init__(cfg)
        self.data = data

    def _answer(self, batch) -> tuple[np.ndarray, None]:
        if isinstance(batch, CoordinateQueryFamily):
            return batch.column_means(self.data.labels, self.data.covariates), None
        values = batch.evaluate(self.data.labels, self.data.covariates)
        rows = _rows_per_block(self.data.d)
        full = len(values) - len(values) % rows
        # the full blocks' sums in row order (accumulate adds in order), then the tail's
        blocks = np.add.accumulate(values[:full].reshape(-1, rows), axis=1)[:, -1].tolist()
        blocks += np.add.accumulate(values[full:])[-1:].tolist()
        total = np.float64(0.0)  # an empty dataset answers nan, as the family pass does
        for block in blocks:
            total += block
        return np.array([total / self.data.n]), None


class WorstCaseOracle(OraclePolicy):
    """Maximally biased conforming oracle: ``E[q] + sign * tau_q``.

    ``sign_policy`` is ``"+"`` or ``"-"``. A batch's expectations and
    tolerances are computed as arrays.
    """

    def __init__(self, theta: ModelParams, cfg: OracleConfig, sign_policy: str = "+") -> None:
        super().__init__(cfg)
        if sign_policy not in ("+", "-"):
            raise ValidationError(f"sign_policy must be '+' or '-', got {sign_policy!r}")
        self.theta = theta
        self.sign_policy = sign_policy

    def _answer(self, batch) -> tuple[np.ndarray, _Failure | None]:
        expectation, failure = _expectations(batch, self.theta)
        tau, beyond = _tolerances(batch, expectation, self.cfg)
        values = expectation + tau if self.sign_policy == "+" else expectation - tau
        return values, _first(failure, beyond)


class AdversarialPairOracle:
    """Oracle that answers so as to hide which of two models generated the data.

    For each query the gap ``|E_1[q] - E_0[q]|`` is compared with the
    tolerance evaluated under the second model. When the gap is within
    tolerance the oracle returns ``E_0[q]`` regardless of the true model (a
    legal response under both); otherwise it answers honestly and flags the
    query as distinguishing. If no query in a transcript is flagged, the
    transcripts under the two models are identical, so any deterministic
    decision built on them has summed error exactly one on this pair.

    A batch's gaps, tolerances and answers are computed as arrays and kept
    as one table, found again by the batch; ``report`` lists each query
    once, in assessment order.
    """

    def __init__(self, theta0: ModelParams, theta1: ModelParams, cfg: OracleConfig) -> None:
        self.theta0 = theta0
        self.theta1 = theta1
        self.cfg = cfg
        # every assessed batch in order, with its rows (gap, tolerance, answer
        # under model 0, answer under model 1), one column per query
        self._assessed: dict[CoordinateQuery | CoordinateQueryFamily, np.ndarray] = {}

    def assess(self, q: CoordinateQuery) -> GapRecord:
        table, failure = self._table(q)
        if failure:
            raise failure[1]
        return GapRecord(query_id=q.id, gap=float(table[0, 0]), tolerance=float(table[1, 0]))

    @property
    def report(self) -> list[GapRecord]:
        """Every assessed query's (gap, tolerance, flagged), once each, in assessment order."""
        records: dict[CoordinateQuery, GapRecord] = {}
        for batch, table in self._assessed.items():
            for q, gap, tol in zip(_queries(batch), table[0].tolist(), table[1].tolist()):
                records.setdefault(q, GapRecord(query_id=q.id, gap=gap, tolerance=tol))
        return list(records.values())

    def policy(self, true_model: int) -> "AdversarialPairOracle._View":
        if true_model not in (0, 1):
            raise ValidationError("true_model must be 0 or 1")
        return AdversarialPairOracle._View(self, true_model)

    def _table(self, batch) -> tuple[np.ndarray, _Failure | None]:
        # the batch's (4, len) table, kept unless some query fails: under
        # theta0's variance, theta1's, then its range under theta1, in order.
        # Batches are keyed by their fields, so a reused id with another
        # truncation or bound is assessed apart
        if batch in self._assessed:
            return self._assessed[batch], None
        e0, failure0 = _expectations(batch, self.theta0)
        e1, failure1 = _expectations(batch, self.theta1)
        tol, beyond = _tolerances(batch, e1, self.cfg)
        gap = np.abs(e1 - e0)
        table = np.stack([gap, tol, e0, np.where(gap > tol, e1, e0)])
        failure = _first(failure0, failure1, beyond)
        if failure is None:
            table.setflags(write=False)
            self._assessed[batch] = table
        return table, failure

    class _View(OraclePolicy):
        def __init__(self, parent: "AdversarialPairOracle", true_model: int) -> None:
            super().__init__(parent.cfg)
            self.parent = parent
            self.true_model = true_model

        def _answer(self, batch) -> tuple[np.ndarray, _Failure | None]:
            table, failure = self.parent._table(batch)
            return table[2 + self.true_model], failure
