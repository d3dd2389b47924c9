"""Exhaustive (exponential-time) detection tests.

Two statistics drive the information-theoretically optimal test:

* a sparse variance search over every size-``s`` support, scanning for a
  sparse direction whose whitened pair differences carry inflated variance;
* the largest standardized coordinate of the mean between-class difference.

The combined test rejects when either reaches its threshold. The variance
search is exact over all ``C(d, s)`` supports, so it is only usable at desk
scale; a hard combinatorial budget guards against accidental blowups. For
``s >= 3`` it bounds, then verifies: a cheap trace bound on every support's
eigenvalue, from a support plan built once per covariance, and an exact
eigenproblem only where that bound can reach the best value found.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import CombinatorialBudgetError, ValidationError
from .model import Dataset, KnownCovariance
from .pairing import between_class_differences, whitened_pair_differences

__all__ = [
    "TestResult",
    "ExhaustiveResult",
    "Thresholds",
    "default_thresholds",
    "sparse_variance_statistic",
    "peak_coordinate_statistic",
    "run_exhaustive_test",
]

SUPPORT_BUDGET = 1_000_000

# float64 values per (k, s, s) operand of one batch of the s >= 3 search
# (256 KiB), so a dataset's pass stays bounded whatever C(d, s) is
_BATCH_VALUES = 1 << 15

# relative inflation of a support's trace bound: the bound and the exact value
# come from one reduced matrix, so it covers only their rounding
_BOUND_MARGIN = 1e-9

# supports per batch solved exactly, largest bounds first, before the rest
# are filtered against the best value
_SEED_SUPPORTS = 8


@dataclass(frozen=True)
class TestResult:
    """One decision: reject iff ``statistic >= threshold`` (inclusive)."""

    statistic: float
    threshold: float
    detail: object = None

    @property
    def reject(self) -> bool:
        return self.statistic >= self.threshold


@dataclass(frozen=True)
class Thresholds:
    """Rejection thresholds for the two exhaustive statistics.

    Defaults follow ``tau1 = kappa * sqrt(s log(e d / s) / n)`` and
    ``tau2 = sqrt(8 log d / n)`` with ``kappa`` the condition number of the
    covariance; ``n`` counts difference samples (pairs), not raw draws.
    """

    tau1: float
    tau2: float
    kappa: float = 1.0

    def __post_init__(self) -> None:
        if not (self.tau1 > 0 and self.tau2 > 0):
            raise ValidationError("thresholds must be positive")

    @property
    def levels(self) -> tuple[float, float]:
        """Rejection levels of (variance quotient, peak coordinate): ``(1 + tau1, tau2)``."""
        return 1.0 + self.tau1, self.tau2


def default_thresholds(d: int, s: int, n: int, sigma: np.ndarray | KnownCovariance) -> Thresholds:
    if d < 2:
        raise ValidationError(f"need d >= 2 for a meaningful coordinate scan, got {d}")
    if not (1 <= s <= d):
        raise ValidationError(f"need 1 <= s <= d, got s={s}, d={d}")
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    kappa = KnownCovariance.of(sigma, d).kappa
    tau1 = kappa * math.sqrt(s * math.log(math.e * d / s) / n)
    tau2 = math.sqrt(8.0 * math.log(d) / n)
    return Thresholds(tau1=tau1, tau2=tau2, kappa=kappa)


def sparse_variance_statistic(
    w: np.ndarray,
    sigma: np.ndarray | KnownCovariance,
    s: int,
) -> tuple[float, tuple[int, ...]]:
    """Supremum of the normalized sparse variance quotient, with its support.

    For whitened difference samples ``w`` this evaluates, exactly,

        sup over s-sparse unit v of  mean_i (v' S^{-1/2} w_i)^2 / (2 v' S^{-1} v)

    by solving, per support ``S``, the largest generalized eigenvalue of the
    pencil ``(G_S, B_S)`` with ``G`` the empirical second-moment matrix of
    ``S^{-1/2} w`` and ``B = 2 S^{-1}``: the quotient is scale-invariant in
    ``v``, so its restriction to a support is a Rayleigh quotient. Under the
    null the quotient has mean one in every direction.

    ``s = 1`` and ``s = 2`` have closed forms. For ``s >= 3`` the search
    bounds, then verifies. Per support, ``L = cholesky(B_S)`` reduces the
    pencil to the symmetric ``R_S = L^{-1} G_S L^{-T}`` with the same
    eigenvalues. A support plan holds the supports in lexicographic order and
    ``L^{-T}`` for each: ``C(d, s) * s * (s + 1)`` float64-sized values (0.95 MB
    at d=40, s=3; 37 MB at d=50, s=4), built on the first search for a
    ``(KnownCovariance, s)`` and freed with that covariance (an array
    ``sigma`` makes a new covariance, and so a new plan, on every call; pass
    the ``KnownCovariance`` to reuse it across datasets). Each dataset then
    takes the supports in batches of fixed size (about 256 KiB of float64 per
    ``(k, s, s)`` stack), so its own pass stays bounded whatever ``C(d, s)``
    is; the plan does not. Within a batch:

    * two matmuls form ``R_S - m I`` with ``m = tr(R_S) / s``; the trace
      bound of Wolkowicz and Styan (1980), ``m + sqrt((s - 1) / s)
      ||R_S - m I||_F``, bounds each largest eigenvalue;
    * the exact value, ``eigvalsh(R_S - m I) + m`` on those same matrices,
      is computed for the few largest bounds, then for every support whose
      bound reaches the best value so far, so a pruned support can neither
      beat nor tie the maximum. ``eigvalsh`` treats each matrix on its own,
      so a value is the same bits whichever supports share its call.

    Bound and value differ only by the rounding of the Frobenius sum and of
    ``eigvalsh``, both relative to the largest eigenvalue (at most the
    bound), so a ``1e-9`` relative margin covers them at any ``kappa``.

    Ties go to the first support in lexicographic order (first maximum within
    a batch, a strict ``>`` across batches), so results are deterministic and
    equal to solving every support exactly.

    Raises :class:`CombinatorialBudgetError` when ``C(d, s)`` exceeds
    ``SUPPORT_BUDGET``, before any work, and :class:`ValidationError` when
    ``G`` is not finite (a NaN or an infinity in ``w``).
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] < 1:
        raise ValidationError("w must be a non-empty 2-d array of difference samples")
    d = w.shape[1]
    if not (1 <= s <= d):
        raise ValidationError(f"need 1 <= s <= d, got s={s}, d={d}")
    if (count := math.comb(d, s)) > SUPPORT_BUDGET:
        raise CombinatorialBudgetError(
            f"enumerating C({d},{s}) = {count} supports exceeds the budget of {SUPPORT_BUDGET}; "
            "reduce s or d"
        )

    cov = KnownCovariance.of(sigma, d)
    y = w if cov.is_identity else w @ cov.inv_sqrt
    g = (y.T @ y) / w.shape[0]
    b = cov.twice_precision
    if not np.isfinite(g).all():
        raise ValidationError("difference samples must be finite")

    if s == 1:
        ratios = np.diag(g) / np.diag(b)
        j = int(np.argmax(ratios))
        return float(ratios[j]), (j,)

    if s == 2:
        jj, kk = np.triu_indices(d, k=1)
        g00, g11, g01 = np.diag(g)[jj], np.diag(g)[kk], g[jj, kk]
        b00, b11, b01 = np.diag(b)[jj], np.diag(b)[kk], b[jj, kk]
        det_b = b00 * b11 - b01 * b01
        tr = (b11 * g00 + b00 * g11 - 2.0 * b01 * g01) / det_b
        det = (g00 * g11 - g01 * g01) / det_b
        disc = np.maximum(tr * tr - 4.0 * det, 0.0)
        lam = 0.5 * (tr + np.sqrt(disc))
        idx = int(np.argmax(lam))
        return float(lam[idx]), (int(jj[idx]), int(kk[idx]))

    plan = _support_plan(cov, s)
    best = -math.inf
    best_support: tuple[int, ...] = ()
    batch = max(1, _BATCH_VALUES // (s * s))
    for start in range(0, len(plan.supports), batch):
        idx = plan.supports[start : start + batch]
        dev, m = _centred_reduction(plan.inv_chol_t[start : start + batch], g[idx[:, :, None], idx[:, None, :]])
        # Wolkowicz-Styan: lambda_max(R) <= m + sqrt((s - 1) / s) ||R - m I||_F
        frobenius = np.sqrt(np.einsum("kij,kij->k", dev, dev))
        bound = (1.0 + _BOUND_MARGIN) * (m + math.sqrt((s - 1) / s) * frobenius)
        if bound.max() < best:
            continue
        # solve the largest bounds first: their best value prunes the rest,
        # and every support that ties the batch maximum still reaches it
        lam = np.full(len(idx), -math.inf)
        seeds = np.argsort(bound)[-_SEED_SUPPORTS:]
        lam[seeds] = _exact_values(dev[seeds], m[seeds])
        reach = np.flatnonzero((bound >= max(best, lam.max())) & (lam == -math.inf))
        lam[reach] = _exact_values(dev[reach], m[reach])
        j = int(np.argmax(lam))
        if lam[j] > best:
            best = float(lam[j])
            best_support = tuple(idx[j].tolist())
    return best, best_support


class _SupportPlan(NamedTuple):
    supports: np.ndarray  # (C(d, s), s) support indices, lexicographic
    inv_chol_t: np.ndarray  # (C(d, s), s, s) L_S^{-T}, L_S = cholesky(B_S)


# one plan per (covariance, s), freed with its covariance
_PLANS: weakref.WeakKeyDictionary[KnownCovariance, dict[int, _SupportPlan]] = weakref.WeakKeyDictionary()


def _support_plan(cov: KnownCovariance, s: int) -> _SupportPlan:
    plans = _PLANS.setdefault(cov, {})
    if s not in plans:
        b = cov.twice_precision
        supports = np.fromiter(combinations(range(cov.d), s), dtype=(np.intp, s), count=math.comb(cov.d, s))
        inv_chol_t = np.empty((len(supports), s, s))
        batch = max(1, _BATCH_VALUES // (s * s))
        for start in range(0, len(supports), batch):
            idx = supports[start : start + batch]
            chol = np.linalg.cholesky(b[idx[:, :, None], idx[:, None, :]])
            inv_chol_t[start : start + batch] = np.linalg.inv(chol).swapaxes(1, 2)
        plans[s] = _SupportPlan(supports, inv_chol_t)
    return plans[s]


def _centred_reduction(inv_chol_t: np.ndarray, gs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # R_S - m I and m = tr(R_S) / s, for R_S = L^{-1} G_S L^{-T} written over
    # gs; the deviation is formed before it is squared or solved, so equal
    # eigenvalues cancel without losing precision
    s = gs.shape[-1]
    r = np.matmul(inv_chol_t.swapaxes(1, 2), gs @ inv_chol_t, out=gs)
    diag = r.reshape(len(r), s * s)[:, :: s + 1]
    m = diag.mean(axis=1)
    diag -= m[:, None]
    return r, m


def _exact_values(dev: np.ndarray, m: np.ndarray) -> np.ndarray:
    # the largest eigenvalue of each R_S from its deviation R_S - m I; eigvalsh
    # treats each matrix on its own, so a support's value does not depend on
    # which others share the call
    return np.linalg.eigvalsh(dev)[:, -1] + m


def peak_coordinate_statistic(u: np.ndarray, sigma: np.ndarray | KnownCovariance) -> tuple[float, int, int]:
    """Largest standardized coordinate of the mean class difference.

    Returns ``(value, coordinate, sign)`` where ``value = max_j |mean(u)_j| /
    sqrt(sigma_jj)``; the signed coordinate test over all +-e_j directions
    attains its supremum at this coordinate and sign.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[0] < 1:
        raise ValidationError("u must be a non-empty 2-d array of class differences")
    diag = KnownCovariance.of(sigma, u.shape[1]).diag
    ubar = u.mean(axis=0)
    standardized = np.abs(ubar) / np.sqrt(diag)
    j = int(np.argmax(standardized))
    sign = 1 if ubar[j] >= 0 else -1
    return float(standardized[j]), j, sign


@dataclass(frozen=True)
class ExhaustiveResult:
    """Outcome of the combined exhaustive test (variance search OR peak coordinate)."""

    variance_search: TestResult
    peak_coordinate: TestResult

    @property
    def reject(self) -> bool:
        return self.variance_search.reject or self.peak_coordinate.reject


def run_exhaustive_test(
    data: Dataset,
    sigma: np.ndarray | KnownCovariance,
    s: int,
    thresholds: Thresholds,
) -> ExhaustiveResult:
    """Run both exhaustive statistics on one dataset and combine by disjunction.

    :func:`default_thresholds` at the realized pair count ``n // 2`` gives
    the conventional ``thresholds``.
    """
    cov = KnownCovariance.of(sigma, data.d)
    w = whitened_pair_differences(data, cov)
    u = between_class_differences(data)
    stat1, support = sparse_variance_statistic(w, cov, s)
    stat2, coord, sign = peak_coordinate_statistic(u, cov)
    level1, level2 = (float(level) for level in thresholds.levels)
    return ExhaustiveResult(
        variance_search=TestResult(stat1, level1, detail={"support": support}),
        peak_coordinate=TestResult(stat2, level2, detail={"coordinate": coord, "sign": sign}),
    )
