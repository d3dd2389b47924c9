"""Correctness checks for the benchmark's operations.

Output checks test a sweep's CSV and SVG against properties the method must
have. Layer checks test one layer's result against a computation made here,
apart from ``wslab``. No check compares against a stored copy of earlier
output. Every check raises :class:`CheckFailed` on a mismatch.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from collections import Counter
from itertools import combinations

import numpy as np
import scipy.linalg

SWEEP_COLUMNS = "alpha,gamma,beta,test,d,s,n,trials,type1,type2,risk,half_width,seed"
_SVG_NS = "{http://www.w3.org/2000/svg}"


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Output checks on one sweep
# ---------------------------------------------------------------------------


def parse_sweep_csv(text: str) -> tuple[list[str], list[dict]]:
    lines = text.rstrip("\n").split("\n")
    header = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    _require(bool(body) and body[0] == SWEEP_COLUMNS, "CSV column line is missing or wrong")
    names = SWEEP_COLUMNS.split(",")
    rows = []
    for line in body[1:]:
        fields = line.split(",")
        _require(len(fields) == len(names), f"CSV row has {len(fields)} fields: {line!r}")
        row = dict(zip(names, fields))
        for key in ("alpha", "gamma", "beta", "type1", "type2", "risk", "half_width"):
            row[key] = float(row[key])
        for key in ("d", "s", "n", "trials", "seed"):
            row[key] = int(row[key])
        rows.append(row)
    return header, rows


def check_sweep_csv(text: str, cfg: dict, separations: np.ndarray) -> list[dict]:
    """All CSV properties of one sweep; returns the parsed rows."""
    header, rows = parse_sweep_csv(text)
    alphas, gammas, tests = sorted(cfg["alpha"]), sorted(cfg["gamma"]), cfg["tests"]
    trials = cfg["trials"]

    # header: command and resolved config, including the seed
    _require(header[:1] == ["# command: sweep"], "CSV header does not name the sweep command")
    configs = [h for h in header if h.startswith("# config: ")]
    _require(len(configs) == 1, "CSV header has no config line")
    resolved = json.loads(configs[0][len("# config: "):])
    for key, value in cfg.items():
        if key == "threads":
            continue
        _require(resolved.get(key) == value, f"CSV header config has {key}={resolved.get(key)!r}")

    # one row per cell and test, in (alpha, gamma, test) order
    expected = [(a, g, t) for a in alphas for g in gammas for t in tests]
    got = [(r["alpha"], r["gamma"], r["test"]) for r in rows]
    _require(got == expected, f"CSV rows are not the {len(expected)} (alpha, gamma, test) rows in order")

    half_width = 1.96 * 0.5 / math.sqrt(trials)
    for r in rows:
        where = f"row alpha={r['alpha']} gamma={r['gamma']} test={r['test']}"
        for key in ("d", "s", "n", "trials", "seed"):
            _require(r[key] == cfg[key], f"{where}: {key}={r[key]}, config has {cfg[key]}")
        for key in ("type1", "type2"):
            v = r[key]
            k = round(v * trials)
            _require(0.0 <= v <= 1.0 and abs(v * trials - k) < 1e-9, f"{where}: {key}={v} is not a multiple of 1/{trials} in [0, 1]")
        _require(abs(r["risk"] - (r["type1"] + r["type2"])) <= 1e-12, f"{where}: risk != type1 + type2")
        _require(math.isclose(r["half_width"], half_width, rel_tol=1e-12), f"{where}: half_width={r['half_width']}")
        if r["test"] == "tractable_adversarial":
            _require(r["type1"] in (0.0, 1.0) and r["type2"] in (0.0, 1.0), f"{where}: adversarial errors not in {{0, 1}}")
        if r["gamma"] == 0.0:
            _require(r["beta"] == 0.0, f"{where}: beta={r['beta']} at gamma 0")
        else:
            ratio = r["gamma"] / r["beta"] ** 2
            _require(
                bool(np.isclose(separations, ratio, rtol=1e-9, atol=0.0).any()),
                f"{where}: gamma/beta^2={ratio!r} is 1_S' Sigma^-1 1_S for no size-{cfg['s']} support",
            )

    # risk does not increase in gamma beyond two half-widths
    for t in tests:
        for a in alphas:
            risks = [r["risk"] for r in rows if r["test"] == t and r["alpha"] == a]
            for lo_g, hi_g in zip(risks, risks[1:]):
                _require(hi_g <= lo_g + 2 * half_width, f"risk of {t} at alpha={a} rises from {lo_g} to {hi_g} in gamma")
    return rows


def check_sweep_svg(text: str, rows: list[dict]) -> None:
    """The SVG parses and holds one cell per (test, alpha, gamma) with its risk."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise CheckFailed(f"SVG does not parse: {exc}") from exc
    titles = [r.findtext(f"{_SVG_NS}title") for r in root.iter(f"{_SVG_NS}rect")]
    got = Counter(titles)
    want = Counter(f"alpha={r['alpha']:g} gamma={r['gamma']:g} risk={r['risk']:.3f}" for r in rows)
    _require(got == want, f"SVG has {len(titles)} cells, expected one per row ({len(rows)}) with its risk")


def check_identical(a: bytes, b: bytes, what: str) -> None:
    _require(a == b, f"{what} differ")


# ---------------------------------------------------------------------------
# Layer checks, each against a computation made here
# ---------------------------------------------------------------------------


def inverse_sqrt(sigma: np.ndarray) -> np.ndarray:
    """Sigma^{-1/2} through ``scipy.linalg.sqrtm`` (Schur method)."""
    root = np.real(scipy.linalg.sqrtm(sigma))
    return scipy.linalg.inv(root)


def check_pair_differences(x: np.ndarray, root: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``w`` equals consecutive differences times Sigma^{-1/2}; returns the reference."""
    m = x.shape[0] // 2
    ref = (x[1 : 2 * m : 2] - x[0 : 2 * m : 2]) @ root
    _require(w.shape == ref.shape, f"pair differences have shape {w.shape}, expected {ref.shape}")
    _require(np.allclose(w, ref, rtol=0.0, atol=1e-9), f"pair differences off by {np.abs(w - ref).max():.3e}")
    return ref


def class_differences(x: np.ndarray, labels: np.ndarray) -> np.ndarray:
    i0, i1 = np.flatnonzero(labels == 0), np.flatnonzero(labels == 1)
    m = min(len(i0), len(i1))
    return x[i1[:m]] - x[i0[:m]]


def check_class_differences(x: np.ndarray, labels: np.ndarray, u: np.ndarray) -> np.ndarray:
    ref = class_differences(x, labels)
    _require(u.shape == ref.shape and np.array_equal(u, ref), "between-class differences differ from the reference")
    return ref


def brute_force_variance(w: np.ndarray, root: np.ndarray, precision: np.ndarray, s: int) -> float:
    """Largest generalized eigenvalue of (G_S, 2 Sigma^-1_S) over all supports.

    ``G`` is the second-moment matrix of ``Sigma^{-1/2} w``. Each pencil is
    reduced through the Cholesky factor of its right-hand side and solved as
    a batched symmetric eigenproblem.
    """
    y = w @ root
    g = (y.T @ y) / w.shape[0]
    b = 2.0 * precision
    supports = np.array(list(combinations(range(w.shape[1]), s)))
    rows, cols = supports[:, :, None], supports[:, None, :]
    chol = np.linalg.cholesky(b[rows, cols])
    half = np.linalg.solve(chol, g[rows, cols])
    reduced = np.linalg.solve(chol, np.swapaxes(half, 1, 2))
    reduced = 0.5 * (reduced + np.swapaxes(reduced, 1, 2))
    return float(np.linalg.eigvalsh(reduced)[:, -1].max())


def check_variance_statistic(stat: float, reference: float) -> None:
    _require(math.isclose(stat, reference, rel_tol=1e-9), f"variance statistic {stat!r}, brute force {reference!r}")


def peak_statistic(u: np.ndarray, sigma: np.ndarray) -> float:
    return float(np.max(np.abs(u.mean(axis=0)) / np.sqrt(np.diag(sigma))))


def check_peak_statistic(stat: float, reference: float) -> None:
    _require(math.isclose(stat, reference, rel_tol=1e-12), f"peak statistic {stat!r}, reference {reference!r}")


def check_class_mean(u: np.ndarray, alpha: float, delta_mu: np.ndarray, sigma: np.ndarray) -> None:
    """mean(u) lies within 5 standard errors of alpha * delta_mu in every coordinate.

    Each row's covariance is 2 Sigma plus the label-mixture term
    ``2 p (1 - p) delta_mu delta_mu'`` with ``p = (1 + alpha) / 2``.
    """
    m = u.shape[0]
    var = 2.0 * np.diag(sigma) + 0.5 * (1.0 - alpha * alpha) * delta_mu**2
    z = (u.mean(axis=0) - alpha * delta_mu) / np.sqrt(var / m)
    _require(bool(np.all(np.abs(z) <= 5.0)), f"between-class mean is {np.abs(z).max():.2f} standard errors off")


def query_responses(x: np.ndarray, labels: np.ndarray, sigma: np.ndarray, trunc: float) -> np.ndarray:
    """The 4d empirical responses in issue order, as numpy column means."""
    z = x / np.sqrt(np.diag(sigma))
    keep = np.abs(z) <= trunc
    zt = z * keep
    signed = ((2.0 * labels - 1.0)[:, None] * zt).mean(axis=0)
    return np.concatenate([zt.mean(axis=0), ((z * z - 1.0) * keep).mean(axis=0), signed, -signed])


def check_responses(values: np.ndarray, reference: np.ndarray) -> None:
    _require(values.shape == reference.shape, f"{values.shape[0]} responses, expected {reference.shape[0]}")
    err = np.abs(values - reference).max()
    _require(err <= 1e-10, f"oracle responses off by {err:.3e}")


def exhaustive_thresholds(d: int, s: int, pairs: int, sigma: np.ndarray) -> tuple[float, float]:
    """README formulas: tau1 = kappa sqrt(s log(e d / s) / n), tau2 = sqrt(8 log d / n)."""
    eig = scipy.linalg.eigvalsh(sigma)
    kappa = eig[-1] / eig[0]
    return kappa * math.sqrt(s * math.log(math.e * d / s) / pairs), math.sqrt(8.0 * math.log(d) / pairs)


def query_thresholds(d: int, n: int, R: float = 4.0, C: float = 8.0) -> tuple[float, float]:
    """README formulas with xi = 1/d: (C tau_var, 2 tau_mean)."""
    xi = 1.0 / d
    root = math.sqrt(math.log(4 * d / xi) / n)
    return C * R**2 * math.log(d) * root, 2.0 * R * math.sqrt(math.log(d)) * root


def check_decision(reject: bool, statistic: float, threshold: float, what: str) -> None:
    _require(reject == (statistic >= threshold), f"{what}: reject={reject} but statistic {statistic!r} vs threshold {threshold!r}")


def query_decisions(values: np.ndarray, d: int, n: int) -> tuple[float, float, float, float]:
    """(diagonal statistic, its threshold, signed statistic, its threshold)."""
    diag_t, signed_t = query_thresholds(d, n)
    proxy = values[d : 2 * d] - values[:d] ** 2
    return float(proxy.max()), diag_t, float(values[2 * d :].max()), signed_t


def _truncated_moment(power: int, mean: float, trunc: float) -> float:
    """E[h(X) 1{|X| <= trunc}] for X ~ N(mean, 1), with h(z) = z or z^2 - 1."""
    import scipy.integrate  # only the traced run needs it; keeps it out of set-up

    def integrand(z: float) -> float:
        h = z if power == 1 else z * z - 1.0
        return h * math.exp(-0.5 * (z - mean) ** 2) / math.sqrt(2.0 * math.pi)

    value, _ = scipy.integrate.quad(integrand, -trunc, trunc, epsabs=1e-13, epsrel=1e-12, limit=200)
    return value


def query_expectations(mu0: np.ndarray, mu1: np.ndarray, sigma: np.ndarray, alpha: float, trunc: float) -> np.ndarray:
    """Exact expectations of the 4d queries under one model, by quadrature.

    With ``a_z = mu_z / sqrt(sigma_jj)`` the standardized coordinate is the
    equal mixture of N(a_0, 1) and N(a_1, 1); the signed-label mean is
    ``sign * alpha / 2 * (g(a_1) - g(a_0))`` with ``g(a)`` the truncated
    first moment of N(a, 1).
    """
    scale = np.sqrt(np.diag(sigma))
    cache: dict[tuple[int, float], float] = {}

    def moment(power: int, a: float) -> float:
        if (power, a) not in cache:
            cache[power, a] = _truncated_moment(power, a, trunc)
        return cache[power, a]

    d = len(scale)
    first = np.empty(d)
    second = np.empty(d)
    signed = np.empty(d)
    for j in range(d):
        a0, a1 = float(mu0[j] / scale[j]), float(mu1[j] / scale[j])
        first[j] = 0.5 * (moment(1, a0) + moment(1, a1))
        second[j] = 0.5 * (moment(2, a0) + moment(2, a1))
        signed[j] = 0.5 * alpha * (moment(1, a1) - moment(1, a0))
    return np.concatenate([first, second, signed, -signed])


def query_tolerances(expectations: np.ndarray, d: int, n: int, R: float = 4.0) -> np.ndarray:
    """README tolerance max((eta + log 1/xi) M / n, sqrt(2 (eta + log 1/xi)(M^2 - E^2) / n))."""
    cap = math.log(4 * d) + math.log(d)
    t = R * math.sqrt(math.log(d))
    bound = np.concatenate([np.full(d, t), np.full(d, R * R * math.log(d)), np.full(2 * d, t)])
    variance = np.sqrt(2.0 * cap * np.maximum(bound**2 - expectations**2, 0.0) / n)
    return np.maximum(cap * bound / n, variance)


def check_adversarial(null_values: np.ndarray, alt_values: np.ndarray, flagged: np.ndarray, e0: np.ndarray, e1: np.ndarray, tol: np.ndarray) -> None:
    """Null arm answers E_0 everywhere; the alternative arm answers E_1 only where flagged."""
    want_flags = np.abs(e1 - e0) > tol
    _require(np.array_equal(flagged, want_flags), f"{int((flagged != want_flags).sum())} queries flagged differently")
    err0 = np.abs(null_values - e0).max()
    _require(err0 <= 1e-9, f"null-arm adversarial responses off the quadrature by {err0:.3e}")
    err1 = np.abs(alt_values - np.where(want_flags, e1, e0)).max()
    _require(err1 <= 1e-9, f"alternative-arm adversarial responses off the quadrature by {err1:.3e}")
