import os
from pathlib import Path

import numpy as np
import pytest

import wslab
from wslab.seeding import spawn_rng

# the directory this wslab is imported from: src/ of a checkout, or site-packages
_SOURCE_ROOT = str(Path(wslab.__file__).resolve().parent.parent)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


def spd_matrix(rng: np.random.Generator, d: int, lo: float = 0.5, hi: float = 2.0) -> np.ndarray:
    """Random well-conditioned SPD matrix with eigenvalues in [lo, hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    m = q @ np.diag(rng.uniform(lo, hi, size=d)) @ q.T
    return (m + m.T) / 2.0


def ar1(d: int, rho: float) -> np.ndarray:
    """Dense AR(1) covariance with entries ``rho ** |i - j|``."""
    idx = np.arange(d)
    return rho ** np.abs(np.subtract.outer(idx, idx)).astype(float)


def stream(*key: int) -> np.random.Generator:
    return spawn_rng(20260808, *key)


def child_env(env: dict[str, str] | None = None) -> dict[str, str]:
    """``env`` (default: this environment) with this wslab's directory first on
    ``PYTHONPATH``, so a child interpreter imports the same wslab, installed
    or not."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SOURCE_ROOT, env.get("PYTHONPATH")) if p)
    return env
