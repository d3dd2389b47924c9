"""Workloads of the phase-diagram sweep benchmark.

Each workload is a sweep configuration for ``wslab sweep``. The benchmark
builds the configuration (grid, problem sizes, covariance) from the workload
and the ``--seed`` it was given; ``wslab`` receives only the generated
config file.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

MONTE_CARLO_TESTS = ("exhaustive", "tractable_honest")


@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    s: int
    n: int
    rho: float  # AR(1) correlation of the covariance; 0 means identity
    alphas: tuple[float, ...]
    gammas: tuple[float, ...]
    tests: tuple[str, ...]
    trials: int
    threads: int | None  # None leaves the CLI default (one worker per core)

    def sigma(self) -> np.ndarray:
        """The covariance: identity, or dense AR(1) with entries rho^|i-j|."""
        if self.rho == 0.0:
            return np.eye(self.d)
        idx = np.arange(self.d)
        return self.rho ** np.abs(np.subtract.outer(idx, idx)).astype(float)

    def config(self, seed: int, sigma: np.ndarray) -> dict:
        """The JSON config handed to ``wslab sweep``."""
        cfg = {
            "d": self.d,
            "s": self.s,
            "n": self.n,
            "alpha": list(self.alphas),
            "gamma": list(self.gammas),
            "sigma": "identity" if self.rho == 0.0 else sigma.tolist(),
            "trials": self.trials,
            "seed": int(seed),
            "tests": list(self.tests),
        }
        if self.threads is not None:
            cfg["threads"] = self.threads
        return cfg

    @property
    def cells(self) -> int:
        return len(self.alphas) * len(self.gammas)

    @property
    def decisions(self) -> int:
        """Monte Carlo test decisions in one sweep: cells x trials x 2 arms x tests."""
        mc = sum(t in MONTE_CARLO_TESTS for t in self.tests)
        return self.cells * self.trials * 2 * mc

    def tiny(self) -> "Workload":
        """The same problem on a 1 x 2 grid with two trials, for quick tests."""
        return replace(self, alphas=self.alphas[-1:], gammas=self.gammas[-2:], trials=2)


def support_separations(sigma: np.ndarray, s: int) -> np.ndarray:
    """``1_S' Sigma^{-1} 1_S`` for every size-``s`` support ``S``.

    The inverse is the benchmark's own (``scipy.linalg.inv``); a sweep row
    must satisfy ``gamma / beta^2`` equal to one of these values.
    """
    import scipy.linalg

    d = sigma.shape[0]
    precision = scipy.linalg.inv(sigma)
    supports = np.array(list(combinations(range(d), s)))
    return precision[supports[:, :, None], supports[:, None, :]].sum(axis=(1, 2))


def _acceptance8_alphas() -> tuple[float, ...]:
    return tuple(float(a) for a in np.round(np.linspace(0.0, 1.0, 8), 10))


def _acceptance8_gammas() -> tuple[float, ...]:
    return tuple(float(g) for g in np.round(np.geomspace(0.02, 2.0, 8), 10))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-sweep",
            d=40,
            s=2,
            n=2000,
            rho=0.0,
            alphas=_acceptance8_alphas(),
            gammas=_acceptance8_gammas(),
            tests=("exhaustive", "tractable_honest", "tractable_adversarial"),
            trials=4,
            threads=None,
        ),
        Workload(
            name="wide-sweep",
            d=200,
            s=2,
            n=20000,
            rho=0.5,
            alphas=(0.5, 1.0),
            gammas=(0.05, 2.0),
            tests=("exhaustive", "tractable_honest", "tractable_adversarial"),
            trials=2,
            threads=1,
        ),
        Workload(
            name="sparse-search",
            d=40,
            s=3,
            n=2000,
            rho=0.3,
            alphas=(0.0, 1.0),
            gammas=(0.05, 1.0),
            tests=("exhaustive",),
            trials=3,
            threads=1,
        ),
    )
}
