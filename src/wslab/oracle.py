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
``CoordinateQueryFamily`` is the test's ``4d`` queries as one object. Every
policy's ``answer_all`` answers a family as one float vector in issue order:
the honest oracle from one pass over the covariates, the worst-case and
adversarial oracles from the family's expectations, tolerances and flags
computed as arrays, with the same formulas and operation order as a single
query's, so each answer has the same bits however it is issued. An
``OracleResponse`` is built only where a caller asks for one (``query``,
``query_all``), and a pair oracle's gap records only when its ``report``
is read.

The honest oracle reads the covariates in row blocks of ``_BLOCK_ELEMENTS //
d`` rows, in place. A query's sum adds the rows of each block in row order
and the block sums in block order, starting from ``+0.0``; the family pass
and the per-query path both sum that way.
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
    hold the queries' fields as arrays (the ids as a tuple), which the
    array paths read instead of the queries. Families are immutable.
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
        return family

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

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

    def _expectations(self, theta: ModelParams) -> np.ndarray | None:
        """``E_theta`` of every query in issue order, or ``None`` where some
        query has no closed form under ``theta`` or ``theta`` has another
        dimension, for the per-query path to answer or raise.

        The standardized means ``mu_z / scales`` of both classes take one
        memoised ``_truncated_moments`` call per distinct value, and the
        closed forms are ``_closed_forms``, as for a single query.
        """
        d = self.scales.shape[0]
        if theta.d != d or _variance_apart(self.diag, theta.cov.diag).any():
            return None
        standardized = np.divide(np.stack([theta.mu0, theta.mu1]), self.scales).ravel()
        distinct, at = np.unique(standardized, return_inverse=True)
        moments = np.array([_truncated_moments(mean, self.trunc) for mean in distinct.tolist()])
        mass, first, second = moments.T[:, at].reshape(3, 2, d)
        mean, second_moment, signed = _closed_forms(
            theta.alpha, mass[0], first[0], second[0], mass[1], first[1], second[1]
        )
        return np.concatenate([mean, second_moment, 0.0 + signed, 0.0 - signed])


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
    m = q.bound_M
    if _out_of_range(expectation, m):
        raise ExpectationOutOfRangeError(
            f"|E[q]| = {abs(expectation):.6g} exceeds the declared bound {m:.6g} for query {q.id!r}"
        )
    return float(_tolerances(m, expectation, cfg))


def _out_of_range(expectation, bound):
    # where |E[q]| exceeds the declared bound M beyond rounding; floats or arrays
    return abs(expectation) > bound * (1.0 + 1e-12)


def _tolerances(bound, expectation, cfg: OracleConfig):
    # tolerance's formula on floats or arrays alike, each operation in the
    # order of the scalar expression; fmax, like Python's max, keeps the range
    # branch over a nan variance branch
    cap = cfg.capacity_term
    range_branch = cap * bound / cfg.n
    var_bound = np.fmax(bound * bound - expectation * expectation, 0.0)
    variance_branch = np.sqrt(2.0 * cap * var_bound / cfg.n)
    return np.fmax(range_branch, variance_branch)


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


def analytic_expectation(q: CoordinateQuery, theta: ModelParams) -> float:
    """Exact ``E_theta[q]``: the expectation of ``q.evaluate`` under ``theta``.

    With ``a_z = mu_z[j] / sqrt(sigma_jj)`` and the moments ``(p, m1, m2)``
    of the window ``[-t, t]`` at each ``a_z``, a mean query has ``(m1(a_0)
    + m1(a_1)) / 2`` and a second-moment query ``((m2 - p)(a_0) + (m2 -
    p)(a_1)) / 2``. A signed-label query mixes the label's sign with the
    class: on a symmetric window ``m1`` is odd in the mean, so its four
    (label, class) terms fold into ``sign * alpha * (m1(a_1) - m1(a_0)) / 2``.
    """
    sigma_jj = float(theta.sigma[q.j, q.j])
    if _variance_apart(q.sigma_jj, sigma_jj):
        raise NoAnalyticExpectationError(
            f"query {q.id!r} was standardized with variance {q.sigma_jj:.6g} "
            f"but the model has {sigma_jj:.6g}"
        )
    scale = math.sqrt(q.sigma_jj)
    mean, second_moment, signed = _closed_forms(
        theta.alpha,
        *_truncated_moments(float(theta.mu0[q.j]) / scale, q.trunc),
        *_truncated_moments(float(theta.mu1[q.j]) / scale, q.trunc),
    )
    if q.kind == "coordinate_mean":
        return mean
    if q.kind == "coordinate_second_moment":
        return second_moment
    # as in column_means, the "-" twin is 0.0 - value; starting both signs
    # from +0.0 keeps a zero +0.0 (alpha = 0 times a negative gap is -0.0)
    return 0.0 + signed if q.sign > 0 else 0.0 - signed


def _closed_forms(alpha, p0, first0, second0, p1, first1, second1):
    # (mean, second moment, "+" signed mean) expectations from the window's
    # moments at the two classes' standardized means; floats or arrays alike
    mean = (first0 + first1) / 2.0
    second_moment = ((second0 - p0) + (second1 - p1)) / 2.0
    signed = alpha * (first1 - first0) / 2.0
    return mean, second_moment, signed


def _variance_apart(query_var, model_var):
    # not math.isclose(model_var, query_var, rel_tol=1e-9), on floats or
    # arrays: a query standardized with query_var has no closed form under a
    # model whose variance is that far from it. Operators only, so a float
    # pair stays in Python; a nan or infinite difference is apart
    diff = abs(query_var - model_var)
    beyond = (diff > abs(1e-9 * query_var)) & (diff > abs(1e-9 * model_var))
    return (query_var != model_var) & ((diff != diff) | (diff == math.inf) | beyond)


# ---------------------------------------------------------------------------
# Oracle policies
# ---------------------------------------------------------------------------


class OraclePolicy:
    """Base policy: budget accounting plus a response rule.

    A policy instance holds mutable budget state and is meant to be driven by
    one test run at a time; create separate instances for concurrent runs.
    """

    def __init__(self, cfg: OracleConfig) -> None:
        self.cfg = cfg
        self._issued = 0

    @property
    def queries_issued(self) -> int:
        return self._issued

    def query(self, q: CoordinateQuery) -> OracleResponse:
        return OracleResponse(value=self._issue(q), query_id=q.id)

    def answer_all(self, queries: Sequence[CoordinateQuery]) -> np.ndarray:
        """Issue ``queries`` in order, one budget unit each; their answers as one float vector.

        A ``CoordinateQueryFamily`` that fits in the remaining budget is
        answered as a whole. Otherwise, or where some query would raise, the
        queries are issued one at a time: a budget that runs out partway
        raises on the first query past it with exactly the budget spent, and
        any other error raises at its first query, as issuing them one at a
        time would.
        """
        if isinstance(queries, CoordinateQueryFamily) and len(queries) <= self.cfg.budget_T - self._issued:
            values = self._respond_family(queries)
            if values is not None:
                self._issued += len(queries)
                return values
        return np.array([self._issue(q) for q in queries], dtype=float)

    def query_all(self, queries: Sequence[CoordinateQuery]) -> list[OracleResponse]:
        """``answer_all``'s answers as one response per query."""
        return [OracleResponse(v, q.id) for q, v in zip(queries, self.answer_all(queries).tolist())]

    def _issue(self, q: CoordinateQuery) -> float:
        if self._issued >= self.cfg.budget_T:
            raise BudgetExceededError(
                f"query budget of {self.cfg.budget_T} exhausted; refusing query {q.id!r}"
            )
        self._issued += 1
        return self._respond(q)

    def _respond(self, q: CoordinateQuery) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def _respond_family(self, family: CoordinateQueryFamily) -> np.ndarray | None:
        """The family's answers in issue order, bitwise what ``_respond``
        gives each query, or ``None`` to issue the queries one at a time."""
        return None


class EmpiricalOracle(OraclePolicy):
    """Honest oracle: responds with the sample average of the query.

    Responses are deterministic given the dataset and, up to rounding,
    invariant to sample order. Conformance against the exact tolerance is a
    statement about the data distribution and is checked in tests, not here.

    A ``CoordinateQueryFamily`` is answered from one pass over row blocks of
    the covariates (``column_means``); any other query runs its own
    ``evaluate`` on its column, read in place, and sums the values over the
    same row blocks: in row order within a block, the block sums in block
    order from ``+0.0``, as the family pass does. So a query's answer does
    not depend on how it was issued.
    """

    def __init__(self, data: Dataset, cfg: OracleConfig) -> None:
        super().__init__(cfg)
        self.data = data

    def _respond_family(self, family: CoordinateQueryFamily) -> np.ndarray:
        return family.column_means(self.data.labels, self.data.covariates)

    def _respond(self, q: CoordinateQuery) -> float:
        values = q.evaluate(self.data.labels, self.data.covariates)
        rows = _rows_per_block(self.data.d)
        full = len(values) - len(values) % rows
        # the full blocks' sums in row order (accumulate adds in order), then the tail's
        blocks = np.add.accumulate(values[:full].reshape(-1, rows), axis=1)[:, -1].tolist()
        blocks += np.add.accumulate(values[full:])[-1:].tolist()
        total = np.float64(0.0)  # an empty dataset answers nan, as the family pass does
        for block in blocks:
            total += block
        return float(total / self.data.n)


class WorstCaseOracle(OraclePolicy):
    """Maximally biased conforming oracle: ``E[q] + sign * tau_q``.

    ``sign_policy`` is ``"+"`` or ``"-"``. A family's expectations and
    tolerances are computed as arrays, with a single query's formulas.
    """

    def __init__(self, theta: ModelParams, cfg: OracleConfig, sign_policy: str = "+") -> None:
        super().__init__(cfg)
        if sign_policy not in ("+", "-"):
            raise ValidationError(f"sign_policy must be '+' or '-', got {sign_policy!r}")
        self.theta = theta
        self.sign_policy = sign_policy

    def _respond(self, q: CoordinateQuery) -> float:
        expectation = analytic_expectation(q, self.theta)
        return self._biased(expectation, tolerance(q, expectation, self.cfg))

    def _respond_family(self, family: CoordinateQueryFamily) -> np.ndarray | None:
        expectation = family._expectations(self.theta)
        if expectation is None or _out_of_range(expectation, family.bounds).any():
            return None
        return self._biased(expectation, _tolerances(family.bounds, expectation, self.cfg))

    def _biased(self, expectation, tau):
        return expectation + tau if self.sign_policy == "+" else expectation - tau


class AdversarialPairOracle:
    """Oracle that answers so as to hide which of two models generated the data.

    For each query the gap ``|E_1[q] - E_0[q]|`` is compared with the
    tolerance evaluated under the second model. When the gap is within
    tolerance the oracle returns ``E_0[q]`` regardless of the true model (a
    legal response under both); otherwise it answers honestly and flags the
    query as distinguishing. If no query in a transcript is flagged, the
    transcripts under the two models are identical, so any deterministic
    decision built on them has summed error exactly one on this pair.

    A family's gaps, tolerances and flags are computed as arrays, with a
    single query's formulas, and kept as one table until ``report`` is read;
    ``report`` lists a query once, whether it was assessed alone, with its
    family, or both.
    """

    def __init__(self, theta0: ModelParams, theta1: ModelParams, cfg: OracleConfig) -> None:
        self.theta0 = theta0
        self.theta1 = theta1
        self.cfg = cfg
        # every assessment in order: its queries (one, or a whole family) and
        # their rows (gap, tolerance, answer under model 0, answer under
        # model 1), one column per query. The families among them, searched
        # apart so a lookup does not scan every single query; and the column
        # of each query looked up on its own, keyed by all of its fields, so
        # a reused id with another truncation or bound gets its own record
        self._assessed: list[tuple[Sequence[CoordinateQuery], np.ndarray]] = []
        self._families: list[tuple[CoordinateQueryFamily, np.ndarray]] = []
        self._single: dict[CoordinateQuery, tuple[float, float, float, float]] = {}

    def assess(self, q: CoordinateQuery) -> GapRecord:
        gap, tol, _, _ = self._column(q)
        return GapRecord(query_id=q.id, gap=gap, tolerance=tol)

    @property
    def report(self) -> list[GapRecord]:
        """Every assessed query's (gap, tolerance, flagged), once each, in assessment order."""
        records: list[GapRecord] = []
        seen: set[CoordinateQuery] = set()
        for queries, table in self._assessed:
            for q, gap, tol in zip(queries, table[0].tolist(), table[1].tolist()):
                if q not in seen:
                    seen.add(q)
                    records.append(GapRecord(query_id=q.id, gap=gap, tolerance=tol))
        return records

    def policy(self, true_model: int) -> "AdversarialPairOracle._View":
        if true_model not in (0, 1):
            raise ValidationError("true_model must be 0 or 1")
        return AdversarialPairOracle._View(self, true_model)

    def _column(self, q: CoordinateQuery) -> tuple[float, float, float, float]:
        # one query's row values, from its family's table if one was assessed
        if q in self._single:
            return self._single[q]
        for family, table in self._families:
            if q in family:
                column = self._single[q] = tuple(table[:, family.index(q)].tolist())
                return column
        e0 = analytic_expectation(q, self.theta0)
        e1 = analytic_expectation(q, self.theta1)
        tol = tolerance(q, e1, self.cfg)
        gap = abs(e1 - e0)
        column = self._single[q] = (gap, tol, e0, e1 if gap > tol else e0)
        self._assessed.append(((q,), np.array(column)[:, None]))
        return column

    def _family_table(self, family: CoordinateQueryFamily) -> np.ndarray | None:
        # the family's (4, 4d) table, or None where some query would raise
        for assessed, table in self._families:
            if assessed == family:
                return table
        e0 = family._expectations(self.theta0)
        e1 = family._expectations(self.theta1)
        if e0 is None or e1 is None or _out_of_range(e1, family.bounds).any():
            return None
        gap = np.abs(e1 - e0)
        tol = _tolerances(family.bounds, e1, self.cfg)
        table = np.stack([gap, tol, e0, np.where(gap > tol, e1, e0)])
        table.setflags(write=False)
        self._assessed.append((family, table))
        self._families.append((family, table))
        return table

    class _View(OraclePolicy):
        def __init__(self, parent: "AdversarialPairOracle", true_model: int) -> None:
            super().__init__(parent.cfg)
            self.parent = parent
            self.true_model = true_model

        def _respond(self, q: CoordinateQuery) -> float:
            return self.parent._column(q)[2 + self.true_model]

        def _respond_family(self, family: CoordinateQueryFamily) -> np.ndarray | None:
            table = self.parent._family_table(family)
            return None if table is None else table[2 + self.true_model]
