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
eigenproblem only where that bound can reach the best value found. The
combined test reads a dataset's covariates in place: both statistics need
only a ``d x d`` second moment and a length-``d`` mean, summed over row blocks.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import CombinatorialBudgetError, OneClassMissingError, TooFewSamplesError, ValidationError
from .model import _BLOCK_VALUES, Dataset, KnownCovariance

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

# supports solved exactly per call, in descending bound order
_SOLVE_SUPPORTS = 8


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

    ``G`` is formed as ``S^{-1/2} (w'w / m) S^{-1/2}``, two ``d x d``
    products, so ``w`` is never whitened a second time; at identity it is
    ``w'w / m`` itself. :func:`run_exhaustive_test` forms the same ``G`` from
    the raw covariates without whitening anything.

    ``s = 1`` and ``s = 2`` have closed forms. For ``s >= 3`` the search
    bounds, then verifies. Per support, ``L = cholesky(B_S)`` reduces the
    pencil to the symmetric ``R_S = L^{-1} G_S L^{-T}`` with the same
    eigenvalues. A support plan holds the supports in lexicographic order and
    ``L^{-T}`` for each: ``C(d, s) * s * (s + 1)`` float64-sized values (0.95 MB
    at d=40, s=3; 37 MB at d=50, s=4), built on the first search for a
    ``(KnownCovariance, s)`` and freed with that covariance (an array
    ``sigma`` makes a new covariance, and so a new plan, on every call; pass
    the ``KnownCovariance`` to reuse it across datasets). A dataset's pass
    takes the supports in batches of fixed size (about 256 KiB of float64 per
    ``(k, s, s)`` stack) and keeps one float per support:

    * two matmuls form ``R_S - m I`` with ``m = tr(R_S) / s``; the trace
      bound of Wolkowicz and Styan (1980), ``m + sqrt((s - 1) / s)
      ||R_S - m I||_F``, bounds each largest eigenvalue;
    * once every support is bounded, the exact value ``eigvalsh(R_S - m I) +
      m`` (the reduction is formed again for the few supports solved) is
      computed for the few largest bounds, then in descending bound order,
      a few supports per call, stopping at the first bound below the best
      value, so a pruned support can neither beat nor tie the maximum.
      ``eigvalsh`` and the reduction treat each matrix on its own, so a value
      is the same bits whichever supports share its call.

    Bound and value differ only by the rounding of the Frobenius sum and of
    ``eigvalsh``, both relative to the largest eigenvalue (at most the
    bound), so a ``1e-9`` relative margin covers them at any ``kappa``.

    Ties go to the first support in lexicographic order, so results are
    deterministic and equal to solving every support exactly.

    Raises :class:`CombinatorialBudgetError` when ``C(d, s)`` exceeds
    ``SUPPORT_BUDGET``, before any work, and :class:`ValidationError` when
    ``w'w`` is not finite (a NaN or an infinity in ``w``).
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] < 1:
        raise ValidationError("w must be a non-empty 2-d array of difference samples")
    _check_supports(w.shape[1], s)
    cov = KnownCovariance.of(sigma, w.shape[1])
    return _variance_search(_whitened_moment(w, cov), cov, s)


def _check_supports(d: int, s: int) -> None:
    if not (1 <= s <= d):
        raise ValidationError(f"need 1 <= s <= d, got s={s}, d={d}")
    if (count := math.comb(d, s)) > SUPPORT_BUDGET:
        raise CombinatorialBudgetError(
            f"enumerating C({d},{s}) = {count} supports exceeds the budget of {SUPPORT_BUDGET}; "
            "reduce s or d"
        )


def _search_matrix(moment: np.ndarray, a: np.ndarray | None) -> np.ndarray:
    # G = a M a for a symmetric second moment M, made exactly symmetric, or M
    # itself when a is None; M is checked first, so a NaN or an infinity in
    # the samples stops before the products
    if not np.isfinite(moment).all():
        raise ValidationError("difference samples must be finite")
    if a is None:
        return moment
    g = a @ moment @ a
    g += g.T
    g *= 0.5
    return g


def _whitened_moment(w: np.ndarray, cov: KnownCovariance) -> np.ndarray:
    # G, the second moment of w S^{-1/2}, without forming w S^{-1/2}
    return _search_matrix((w.T @ w) / w.shape[0], None if cov.is_identity else cov.inv_sqrt)


def _variance_search(g: np.ndarray, cov: KnownCovariance, s: int) -> tuple[float, tuple[int, ...]]:
    # the search over supports of the pencil (G, 2 Sigma^{-1}); s is checked
    # and G finite
    b = cov.twice_precision

    if s == 1:
        ratios = np.diag(g) / np.diag(b)
        j = int(np.argmax(ratios))
        return float(ratios[j]), (j,)

    if s == 2:
        jj, kk = _pair_index(cov)
        lam = _pair_values(g, b, jj, kk)
        idx = int(np.argmax(lam))
        return float(lam[idx]), (int(jj[idx]), int(kk[idx]))

    plan = _support_plan(cov, s)
    bounds = np.empty(len(plan.supports))
    batch = max(1, _BATCH_VALUES // (s * s))
    for start in range(0, len(bounds), batch):
        dev, m = _reduction(plan, g, slice(start, start + batch))
        # Wolkowicz-Styan: lambda_max(R) <= m + sqrt((s - 1) / s) ||R - m I||_F
        frobenius = np.sqrt(np.einsum("kij,kij->k", dev, dev))
        bounds[start : start + batch] = m + math.sqrt((s - 1) / s) * frobenius
    bounds *= 1.0 + _BOUND_MARGIN
    # the largest bounds, found without a sort, give a best value; only the
    # supports whose bound reaches it are then sorted. Every support whose
    # bound reaches the final maximum is solved, so ties still go to the
    # lexicographic first
    largest = np.argpartition(bounds, -min(_SOLVE_SUPPORTS, len(bounds)))[-_SOLVE_SUPPORTS:]
    best, best_at = _verify(plan, g, bounds, largest, -math.inf, -1)
    bounds[largest] = -math.inf  # solved
    reach = np.flatnonzero(bounds >= best)
    best, best_at = _verify(plan, g, bounds, reach[np.argsort(bounds[reach])[::-1]], best, best_at)
    return best, tuple(plan.supports[best_at].tolist())


def _pair_values(g: np.ndarray, b: np.ndarray, jj: np.ndarray, kk: np.ndarray) -> np.ndarray:
    # the larger root of det(G_S - lam B_S) = 0 for every pair S = (jj, kk):
    # lam = 0.5 (tr + sqrt(max(tr^2 - 4 det, 0))) with
    # tr = (b11 g00 + b00 g11 - 2 b01 g01) / det_b,
    # det = (g00 g11 - g01^2) / det_b and det_b = b00 b11 - b01^2, each
    # operation in that order. Entries are gathered as they are needed and
    # buffers reused, so no more than five pair-long arrays are alive at once
    # (the indices are in range; unlike "raise", "clip" fills out in place)
    gd, bd = np.diag(g), np.diag(b)
    b00, b11, b01 = bd[jj], bd[kk], b[jj, kk]
    det_b = b00 * b11
    work = np.multiply(b01, b01)
    det_b -= work
    tr = b11
    tr *= np.take(gd, jj, out=work, mode="clip")  # b11 g00
    g11 = np.take(gd, kk, out=work, mode="clip")
    b00 *= g11
    tr += b00
    del b00
    g01 = g[jj, kk]
    b01 *= 2.0
    b01 *= g01
    tr -= b01
    det = np.take(gd, jj, out=b01, mode="clip")  # g00
    det *= g11
    det -= np.multiply(g01, g01, out=g11)
    tr /= det_b
    det /= det_b
    disc = np.multiply(tr, tr, out=det_b)
    det *= 4.0
    disc -= det
    np.maximum(disc, 0.0, out=disc)
    tr += np.sqrt(disc, out=disc)
    tr *= 0.5
    return tr


def _verify(plan: _SupportPlan, g: np.ndarray, bounds: np.ndarray, order: np.ndarray,
            best: float, best_at: int) -> tuple[float, int]:
    # exact values of the supports in ``order`` (descending bounds), a few per
    # call, until a bound falls below the best value; returns the best value
    # and its support's index, the lowest index among equal values
    for start in range(0, len(order), _SOLVE_SUPPORTS):
        chunk = order[start : start + _SOLVE_SUPPORTS]
        chunk = chunk[bounds[chunk] >= best]
        if not len(chunk):
            break
        lam = _exact_values(*_reduction(plan, g, chunk))
        top = lam.max()
        at = int(chunk[lam == top].min())
        if top > best or (top == best and at < best_at):
            best, best_at = float(top), at
    return best, best_at


class _SupportPlan(NamedTuple):
    supports: np.ndarray  # (C(d, s), s) support indices, lexicographic
    inv_chol_t: np.ndarray  # (C(d, s), s, s) L_S^{-T}, L_S = cholesky(B_S)


# one plan per (covariance, s), freed with its covariance; at s = 2, the
# pair index arrays of _pair_index
_PLANS: weakref.WeakKeyDictionary[
    KnownCovariance, dict[int, _SupportPlan | tuple[np.ndarray, np.ndarray]]
] = weakref.WeakKeyDictionary()


def _pair_index(cov: KnownCovariance) -> tuple[np.ndarray, np.ndarray]:
    # the (j, k), j < k, of every pair in lexicographic order; shared, so
    # never written. They stay writeable: np.take copies a read-only index
    plans = _PLANS.setdefault(cov, {})
    if 2 not in plans:
        plans[2] = np.triu_indices(cov.d, k=1)
    return plans[2]


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


def _reduction(plan: _SupportPlan, g: np.ndarray, at: slice | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # R_S - m I and m = tr(R_S) / s for the supports at ``at``, R_S = L^{-1}
    # G_S L^{-T} written over the gathered G_S; the deviation is formed before
    # it is squared or solved, so equal eigenvalues cancel without losing
    # precision. Each matrix is reduced on its own, whatever shares the call
    idx = plan.supports[at]
    inv_chol_t = plan.inv_chol_t[at]
    s = idx.shape[1]
    gs = g[idx[:, :, None], idx[:, None, :]]
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
    return _peak_coordinate(u.mean(axis=0), diag)


def _peak_coordinate(ubar: np.ndarray, diag: np.ndarray) -> tuple[float, int, int]:
    standardized = np.abs(ubar) / np.sqrt(diag)
    j = int(np.argmax(standardized))
    sign = 1 if ubar[j] >= 0 else -1
    return float(standardized[j]), j, sign


def _block_rows(x: np.ndarray) -> int:
    # rows of x per block of the sampler's size
    return max(1, _BLOCK_VALUES // x.shape[1])


def _pair_moment(x: np.ndarray, pairs: int) -> np.ndarray:
    # D'D / pairs for the raw pair differences D_i = x[2i+1] - x[2i], summed
    # over row blocks of D formed in one buffer; with one block this is the
    # product of the whole D
    buf = np.empty((min(pairs, _block_rows(x)), x.shape[1]))
    moment = None
    for start in range(0, pairs, len(buf)):
        stop = min(start + len(buf), pairs)
        block = np.subtract(x[2 * start + 1 : 2 * stop : 2], x[2 * start : 2 * stop : 2], out=buf[: stop - start])
        if moment is None:
            moment = block.T @ block
        else:
            moment += block.T @ block
    moment /= pairs
    return moment


def _class_mean_difference(x: np.ndarray, rows0: np.ndarray, rows1: np.ndarray) -> np.ndarray:
    # mean of x[rows1] - x[rows0] over row blocks; the running sum rides as
    # each block's first row, so the columns add in row order, as u.mean(axis=0)
    # adds the rows of the whole difference array u when it has two or more
    # columns
    rows = min(len(rows0), _block_rows(x))
    buf = np.empty((rows + 1, x.shape[1]))
    total = np.zeros(x.shape[1])
    for start in range(0, len(rows0), rows):
        stop = min(start + rows, len(rows0))
        block = buf[: stop - start + 1]
        block[0] = total
        # the indices are in range; unlike "raise", "clip" fills out in place
        np.take(x, rows1[start:stop], axis=0, out=block[1:], mode="clip")
        block[1:] -= x[rows0[start:stop]]
        total = np.add.reduce(block, axis=0)
    return total / len(rows0)


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

    The statistics are those of :func:`sparse_variance_statistic` on
    :func:`~wslab.pairing.whitened_pair_differences` and of
    :func:`peak_coordinate_statistic` on
    :func:`~wslab.pairing.between_class_differences`, but no difference array
    is formed: ``data.covariates`` is read in place, one row block at a time.
    The search's ``G`` is ``P C P`` (symmetrized) with ``P = Sigma^{-1}`` and
    ``C = D'D / m`` summed over blocks of the raw pair differences ``D``; at
    identity it is ``C``. The peak scan reads the mean class difference,
    summed over blocks in the same row order as the mean of the whole
    difference array, so at ``d >= 2`` it is bitwise that statistic (numpy
    sums a single column pairwise).

    Raises, in this order: :class:`TooFewSamplesError` below two samples,
    :class:`OneClassMissingError` when a label is absent, then the
    ``1 <= s <= d`` :class:`ValidationError` and
    :class:`CombinatorialBudgetError` before any block is formed, and
    :class:`ValidationError` when ``C`` is not finite (a NaN or an infinity
    in the covariates).

    :func:`default_thresholds` at the realized pair count ``n // 2`` gives
    the conventional ``thresholds``.
    """
    cov = KnownCovariance.of(sigma, data.d)
    if data.n < 2:
        raise TooFewSamplesError(f"need at least 2 samples to pair, got {data.n}")
    rows0 = np.flatnonzero(data.labels == 0)
    rows1 = np.flatnonzero(data.labels == 1)
    m = min(len(rows0), len(rows1))
    if m == 0:
        raise OneClassMissingError("both observed labels must be present to form class differences")
    _check_supports(data.d, s)
    x = data.covariates
    g = _search_matrix(_pair_moment(x, data.n // 2), None if cov.is_identity else 0.5 * cov.twice_precision)
    stat1, support = _variance_search(g, cov, s)
    stat2, coord, sign = _peak_coordinate(_class_mean_difference(x, rows0[:m], rows1[:m]), cov.diag)
    level1, level2 = (float(level) for level in thresholds.levels)
    return ExhaustiveResult(
        variance_search=TestResult(stat1, level1, detail={"support": support}),
        peak_coordinate=TestResult(stat2, level2, detail={"coordinate": coord, "sign": sign}),
    )
