"""Memory footprint of the per-dataset stages, measured with tracemalloc.

numpy reports its array buffers to tracemalloc, so the traced peak of a call
is the most memory its temporaries and result held at once. These bounds pin
that the query family's pass works in cache-sized blocks and that sampling
makes no transient ``n x d`` copy, without timing anything.
"""

import tracemalloc

import numpy as np
import pytest

from wslab import model, oracle
from wslab.tractable import TractableConfig, build_queries

from conftest import stream

_FLOAT = np.dtype(float).itemsize


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("d, n", [(40, 2000), (200, 20_000)])
def test_query_family_pass_stays_within_a_few_blocks(d, n):
    rng = stream(90, d)
    queries = build_queries(TractableConfig(d=d, n=n), np.eye(d))
    labels = rng.integers(0, 2, n).astype(np.int8)
    x = rng.standard_normal((n, d))
    peak = _traced_peak(lambda: queries.column_means(labels, x))
    assert peak <= 4 * _FLOAT * oracle._BLOCK_ELEMENTS


def test_sampling_makes_no_transient_copy():
    d, n = 40, 2000
    mu0 = np.full(d, 0.5)
    theta = model.ModelParams(mu0, mu0 + np.r_[np.ones(4), np.zeros(d - 4)], np.eye(d), 0.5)
    peak = _traced_peak(lambda: model.sample_dataset(theta, n, stream(91)))
    assert peak <= 1.25 * n * d * _FLOAT
