"""Memory footprint of the per-dataset stages, measured with tracemalloc.

numpy reports its array buffers to tracemalloc, so the traced peak of a call
is the most memory its temporaries and result held at once. These bounds pin
that the query family's pass and the variance search work in cache-sized
blocks, that a warm s = 2 search holds a few pair-long arrays, that sampling
makes no transient ``n x d`` copy, that the exhaustive test reads the
covariates in place (no pair- or class-difference array), that a sweep holds
one dataset at a time, that the search's support plan has its stated size
and dies with its covariance, and that a sweep leaves no reference cycle
behind, without timing anything.
"""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from wslab import exhaustive, experiments, model, oracle
from wslab.tractable import TractableConfig, build_queries

from conftest import ar1, stream

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


def test_correlated_sampling_makes_no_transient_copy():
    d, n = 200, 20_000
    theta = model.ModelParams(np.full(d, 0.1), np.zeros(d), ar1(d, 0.3), 0.5)
    peak = _traced_peak(lambda: model.sample_dataset(theta, n, stream(92)))
    assert peak <= 1.25 * n * d * _FLOAT


def test_exhaustive_test_reads_the_covariates_in_place():
    # one (n/2) x d difference array would be 16 MB here; the test holds a few
    # sampler-sized blocks and d x d matrices
    d, n = 200, 20_000
    cov = model.KnownCovariance(ar1(d, 0.5))
    theta = model.ModelParams(np.zeros(d), np.r_[np.ones(3), np.zeros(d - 3)], cov, 0.5)
    data = model.sample_dataset(theta, n, stream(95))
    thresholds = exhaustive.default_thresholds(d, 2, n // 2, cov)
    peak = _traced_peak(lambda: exhaustive.run_exhaustive_test(data, cov, 2, thresholds))
    assert peak <= 4 * _FLOAT * model._BLOCK_VALUES + 3 * d * d * _FLOAT


def test_pair_search_holds_a_few_pair_long_arrays():
    # a warm s = 2 search over all C(d, 2) pairs: one bound per pair and a
    # batch's entries, not an array per intermediate over every pair
    d = 200
    cov = model.KnownCovariance(ar1(d, 0.5))
    w = stream(96).standard_normal((400, d))
    g = w.T @ w / len(w)
    exhaustive._support_plan(cov, 2)
    peak = _traced_peak(lambda: exhaustive._variance_search(g, cov, 2))
    assert peak <= 8 * math.comb(d, 2) * _FLOAT


def test_sweep_holds_one_dataset_at_a_time():
    # a trial's dataset is freed before the next is drawn, and no stage makes
    # a second n x d array beside it
    d, n = 200, 20_000
    grid = experiments.SweepGrid((0.5,), (1.0,), d=d, s=2, n=n, trials=2, seed=3)
    peak = _traced_peak(lambda: experiments.sweep_phase_diagram(grid, sigma=ar1(d, 0.5), threads=1))
    assert peak <= 1.25 * n * d * _FLOAT


@pytest.mark.parametrize("d, s", [(40, 2), (40, 3), (16, 5)])
def test_support_plan_holds_indices_and_inverse_factors_only(d, s):
    # the support columns and the packed lower entries of each L_S^{-1}
    plan = exhaustive._support_plan(model.KnownCovariance(ar1(d, 0.3)), s)
    assert plan.nbytes == sum(a.nbytes for a in (plan.columns, *plan.inv_factor))
    assert plan.nbytes == math.comb(d, s) * (s + s * (s + 1) // 2) * _FLOAT


@pytest.mark.parametrize("d, s", [(40, 2), (40, 3), (16, 5)])
def test_identity_support_plan_holds_indices_only(d, s):
    # at identity each factor entry is the same for every support: one float
    plan = exhaustive._support_plan(model.KnownCovariance(np.eye(d)), s)
    assert all(isinstance(a, float) for a in plan.inv_factor)
    assert plan.nbytes == plan.columns.nbytes == math.comb(d, s) * s * _FLOAT


def test_support_plan_build_stays_under_the_stacked_plan():
    # building the plan, temporaries included, takes less than the plan of
    # supports and (s, s) inverse factors it replaces held once built
    d, s = 16, 5
    cov = model.KnownCovariance(ar1(d, 0.3))
    peak = _traced_peak(lambda: exhaustive._support_plan(cov, s))
    assert peak < math.comb(d, s) * s * (s + 1) * _FLOAT


@pytest.mark.parametrize("d, s", [(16, 5), (40, 4)])
def test_identity_support_plan_build_peaks_near_the_plan(d, s):
    # the support columns are filled in place, not stacked from a repeated
    # copy of the columns so far
    cov = model.KnownCovariance(np.eye(d))
    peak = _traced_peak(lambda: exhaustive._support_plan(cov, s))
    assert peak <= 1.25 * exhaustive._support_plan(cov, s).nbytes


def test_support_plan_dies_with_its_covariance():
    # one plan per s, built by the first search and reused by the next
    cov = model.KnownCovariance(ar1(12, 0.3))
    w = stream(93).standard_normal((50, 12))
    arrays = []
    for s in (2, 3):
        first = exhaustive.sparse_variance_statistic(w, cov, s)
        plan = exhaustive._support_plan(cov, s)
        assert exhaustive.sparse_variance_statistic(w, cov, s) == first
        assert exhaustive._support_plan(cov, s) is plan
        arrays += [weakref.ref(a) for a in (plan.columns, *plan.inv_factor)]
    assert all(a() is not None for a in arrays)
    del cov, plan
    gc.collect()
    assert all(a() is None for a in arrays)


def test_sweep_leaves_no_reference_cycle():
    # a cycle through the sweep's context would keep its covariance and support
    # plan alive after the sweep, until the cycle collector happened to run
    grid = experiments.SweepGrid((0.5,), (1.0,), d=8, s=3, n=100, trials=2, seed=1)
    gc.collect()
    gc.disable()
    try:
        experiments.sweep_phase_diagram(grid, sigma=ar1(8, 0.3))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_warm_variance_search_stays_within_a_few_batches():
    d, s = 40, 3
    cov = model.KnownCovariance(ar1(d, 0.3))
    w = stream(94).standard_normal((200, d))
    exhaustive.sparse_variance_statistic(w, cov, s)  # builds the plan
    peak = _traced_peak(lambda: exhaustive.sparse_variance_statistic(w, cov, s))
    assert peak <= 4 * _FLOAT * exhaustive._BATCH_VALUES
