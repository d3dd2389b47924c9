"""Deterministic random-stream derivation.

All randomness flows from a single master seed through named substreams, so
results do not depend on the order in which work runs. Substreams are derived
with ``numpy``'s ``SeedSequence`` spawn keys, which are stable across
platforms and numpy releases.
"""

from __future__ import annotations

import numpy as np

__all__ = ["spawn_rng"]


def spawn_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Generator for the substream addressed by ``key`` under ``master_seed``.

    The same ``(master_seed, key)`` always yields a generator with the same
    byte stream; distinct keys yield statistically independent streams.
    """
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)
