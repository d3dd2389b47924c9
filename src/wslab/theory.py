"""Closed-form rate boundaries and exact divergence machinery.

Two SNR boundaries partition the supervision/signal plane:

* information boundary: ``min( sqrt(s log d / n), s log d / (alpha^2 n) )``;
* tractable boundary:   ``min( sqrt(s^2 / n),     s log d / (alpha^2 n) )``.

Below the first, every test is asymptotically powerless; between them only
super-polynomial query strategies can succeed; above the second an efficient
test exists. Both boundaries hold up to absolute constants.

The lower-bound machinery rests on two exact facts that this module also
evaluates and verifies numerically: the cross moment of two restricted
likelihood ratios equals ``cosh(<v1, v2>/2) + alpha^2 sinh(<v1, v2>/2)``, and
the chi-square divergence of the uniform sparse mixture has a hypergeometric
closed form over support overlaps.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .errors import ValidationError

__all__ = [
    "info_rate",
    "tractable_rate",
    "likelihood_cross_moment",
    "mc_likelihood_cross_moment",
    "mixture_chi_square",
    "mixture_chi_square_enumerated",
    "hyperbolic_bound_check",
]


def _check_sizes(d: int, s: int, n: int, alpha: float) -> None:
    if d < 2:
        raise ValidationError(f"need d >= 2, got {d}")
    if not (1 <= s <= d):
        raise ValidationError(f"need 1 <= s <= d, got s={s}, d={d}")
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    if not (0.0 <= alpha <= 1.0):
        raise ValidationError(f"alpha must lie in [0, 1], got {alpha}")


def _supervised_branch(d: int, s: int, n: int, alpha: float) -> float:
    a2 = alpha * alpha  # may underflow to 0 for subnormal alpha
    if a2 == 0.0:
        return math.inf
    return s * math.log(d) / (a2 * n)


def info_rate(d: int, s: int, n: int, alpha: float) -> float:
    """Information-theoretic SNR boundary ``sqrt(s log d / n) ^ (s log d / (alpha^2 n))``."""
    _check_sizes(d, s, n, alpha)
    return min(math.sqrt(s * math.log(d) / n), _supervised_branch(d, s, n, alpha))


def tractable_rate(d: int, s: int, n: int, alpha: float) -> float:
    """Computationally tractable SNR boundary ``sqrt(s^2 / n) ^ (s log d / (alpha^2 n))``."""
    _check_sizes(d, s, n, alpha)
    return min(s / math.sqrt(n), _supervised_branch(d, s, n, alpha))


# ---------------------------------------------------------------------------
# Divergence machinery
# ---------------------------------------------------------------------------


def likelihood_cross_moment(inner: float, alpha: float) -> float:
    """Cross moment of two restricted likelihood ratios under the null.

    Equals ``cosh(inner / 2) + alpha^2 sinh(inner / 2)`` where ``inner`` is
    the inner product of the two signal vectors. At ``inner = 0`` this is 1;
    at ``alpha = 1`` it collapses to ``exp(inner / 2)``.
    """
    half = inner / 2.0
    return math.cosh(half) + alpha * alpha * math.sinh(half)


def mc_likelihood_cross_moment(
    v1: np.ndarray,
    v2: np.ndarray,
    alpha: float,
    m: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo estimate of the likelihood cross moment, with standard error.

    Draws ``(Y, X)`` from the null (standard normal covariates, fair-coin
    labels), evaluates the likelihood ratio of the mean-split model for each
    signal vector,

        L_v(y, x) = (g(x, v/2) + g(x, -v/2)) / 2
                    + alpha (2y - 1) (g(x, v/2) - g(x, -v/2)) / 2,

    with ``g(x, mu) = exp(mu' x - |mu|^2 / 2)``, and averages their product.

    Exact value of the estimated quantity: because the component means are
    ``+-v/2``, a direct moment-generating-function computation gives

        E[L_{v1} L_{v2}] = cosh(<v1, v2> / 4) + alpha^2 sinh(<v1, v2> / 4),

    i.e. :func:`likelihood_cross_moment` evaluated at HALF the inner product
    (the form at the full inner product corresponds to component means
    scaled up by sqrt(2)). Verified here by quadrature and Monte Carlo.
    """
    if m < 1000:
        raise ValidationError(f"need at least 1000 Monte Carlo draws, got {m}")
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    if v1.shape != v2.shape or v1.ndim != 1:
        raise ValidationError("v1 and v2 must be 1-d arrays of equal length")
    x = rng.standard_normal((m, v1.shape[0]))
    y = rng.integers(0, 2, size=m)
    sign = 2.0 * y - 1.0

    def ratio(v: np.ndarray) -> np.ndarray:
        half = v / 2.0
        t = x @ half
        offset = 0.5 * float(half @ half)
        gp = np.exp(t - offset)
        gm = np.exp(-t - offset)
        return 0.5 * (gp + gm) + 0.5 * alpha * sign * (gp - gm)

    prod = ratio(v1) * ratio(v2)
    estimate = float(prod.mean())
    se = float(prod.std(ddof=1) / math.sqrt(m))
    return estimate, se


def _log_hyperbolic_moment(x: float, alpha: float) -> float:
    """``log(cosh(x) + alpha^2 sinh(x))`` for ``x >= 0``, overflow-free.

    Uses ``cosh(x) + a sinh(x) = e^x ((1 + a)/2 + (1 - a)/2 e^{-2x})``.
    """
    if x < 0:
        raise ValidationError("x must be nonnegative")
    a = alpha * alpha
    return x + math.log((1.0 + a) / 2.0 + (1.0 - a) / 2.0 * math.exp(-2.0 * x))


def _overlap_weights(d: int, s: int) -> np.ndarray:
    """Hypergeometric distribution of ``|S1 n S2|`` for independent uniform supports.

    Each weight is a ratio of exact integers, which Python's true division
    rounds correctly whatever their size.
    """
    weights = np.zeros(s + 1)
    lo = max(0, 2 * s - d)
    total = math.comb(d, s)
    for k in range(lo, s + 1):
        weights[k] = math.comb(s, k) * math.comb(d - s, s - k) / total
    return weights


def mixture_chi_square(d: int, s: int, beta: float, alpha: float, n: int) -> float:
    """Chi-square divergence of the n-sample uniform sparse mixture from the null.

    Exact value:

        sum_k P(|S1 n S2| = k) * ( h(beta^2 k / 2)^n - 1 ),

    with hypergeometric overlap weights and ``h(x) = cosh(x) + alpha^2
    sinh(x)``. Each term is computed as ``expm1(n * log h)``, which avoids
    both overflow inside the power and cancellation when the divergence is
    tiny; results beyond float range come back as ``inf``.
    """
    _check_sizes(d, s, n, alpha)
    if beta < 0:
        raise ValidationError(f"beta must be nonnegative, got {beta}")
    weights = _overlap_weights(d, s)
    total = 0.0
    for k in range(s + 1):
        if weights[k] == 0.0:
            continue
        exponent = n * _log_hyperbolic_moment(beta * beta * k / 2.0, alpha)
        if exponent > 709.0:  # expm1 would overflow; the divergence is astronomically large
            return math.inf
        total += weights[k] * math.expm1(exponent)
    return total


def mixture_chi_square_enumerated(d: int, s: int, beta: float, alpha: float, n: int) -> float:
    """Brute-force divergence: average over every ordered pair of supports.

    Independent oracle for :func:`mixture_chi_square`; cost grows as
    ``C(d, s)^2`` and is meant for small ``d`` only.
    """
    _check_sizes(d, s, n, alpha)
    supports = [frozenset(c) for c in combinations(range(d), s)]
    total = 0.0
    for s1 in supports:
        for s2 in supports:
            x = beta * beta * len(s1 & s2) / 2.0
            try:
                h = math.cosh(x) + alpha * alpha * math.sinh(x)
                total += h**n - 1.0
            except OverflowError:
                return math.inf
    return total / (len(supports) ** 2)


def hyperbolic_bound_check(
    x_grid: np.ndarray, v_grid: np.ndarray, tol: float = 1e-12
) -> list[tuple[float, float, float, float]]:
    """Check ``cosh(x) + v sinh(x) <= max(exp(2 v x), cosh(2x)) + tol`` on a grid.

    Returns the violating ``(x, v, lhs, rhs)`` tuples; an empty list means
    the bound held everywhere. Grids must satisfy ``x >= 0`` and
    ``v in [0, 1]``.
    """
    x = np.asarray(x_grid, dtype=float)
    v = np.asarray(v_grid, dtype=float)
    if np.any(x < 0):
        raise ValidationError("x grid must be nonnegative")
    if np.any((v < 0) | (v > 1)):
        raise ValidationError("v grid must lie in [0, 1]")
    xx = x[:, None]
    vv = v[None, :]
    lhs = np.cosh(xx) + vv * np.sinh(xx)
    rhs = np.maximum(np.exp(2.0 * vv * xx), np.cosh(2.0 * xx))
    bad = np.argwhere(lhs > rhs + tol)
    return [
        (float(x[i]), float(v[j]), float(lhs[i, j]), float(rhs[i, j]))
        for i, j in bad
    ]
