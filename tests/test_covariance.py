import numpy as np
import pytest

from wslab import errors, experiments, model
from wslab.exhaustive import (
    Thresholds,
    default_thresholds,
    peak_coordinate_statistic,
    run_exhaustive_test,
    sparse_variance_statistic,
)
from wslab.oracle import EmpiricalOracle
from wslab.pairing import whitened_pair_differences
from wslab.tractable import (
    TractableConfig,
    build_queries,
    default_oracle_config,
    run_tractable_test,
)

from conftest import stream

D, N = 2, 20


def _data() -> model.Dataset:
    return model.Dataset(labels=[0, 1] * (N // 2), covariates=stream(90).standard_normal((N, D)))


_CFG = TractableConfig(d=D, n=N)

ENTRY_POINTS = {
    "ModelParams": lambda sigma: model.ModelParams(np.zeros(D), np.zeros(D), sigma, 0.5),
    "whitened_pair_differences": lambda sigma: whitened_pair_differences(_data(), sigma),
    "sparse_variance_statistic": lambda sigma: sparse_variance_statistic(
        _data().covariates, sigma, 1
    ),
    "peak_coordinate_statistic": lambda sigma: peak_coordinate_statistic(
        _data().covariates, sigma
    ),
    "default_thresholds": lambda sigma: default_thresholds(D, 1, N, sigma),
    "run_exhaustive_test": lambda sigma: run_exhaustive_test(_data(), sigma, 1, Thresholds(1.0, 1.0)),
    "build_queries": lambda sigma: build_queries(_CFG, sigma),
    "run_tractable_test": lambda sigma: run_tractable_test(
        EmpiricalOracle(_data(), default_oracle_config(_CFG)), _CFG, sigma
    ),
    "sweep_phase_diagram": lambda sigma: experiments.sweep_phase_diagram(
        experiments.SweepGrid((0.5,), (0.5,), d=D, s=1, n=N, trials=1, seed=0), sigma=sigma
    ),
}

BAD_SIGMAS = {
    "nan": (np.array([[1.0, np.nan], [np.nan, 1.0]]), errors.NonSPDError),
    "indefinite": (np.array([[1.0, 2.0], [2.0, 1.0]]), errors.NonSPDError),
    "asymmetric": (np.array([[1.0, 1e-11], [0.0, 1.0]]), errors.NonSPDError),
    "ill-conditioned": (np.diag([1.0, 1e-14]), errors.NonSPDError),
    "zero-diagonal": (np.diag([1.0, 0.0]), errors.NonPositiveDiagonalError),
    "wrong-dimension": (np.eye(3), errors.DimMismatchError),
    "non-square": (np.ones((2, 3)), errors.DimMismatchError),
    "empty": (np.zeros((0, 0)), errors.DimMismatchError),  # was a bare IndexError
}


@pytest.mark.parametrize("case", sorted(BAD_SIGMAS))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_rejects_a_bad_sigma_alike(entry, case):
    sigma, expected = BAD_SIGMAS[case]
    with pytest.raises(errors.WslabError) as info:
        ENTRY_POINTS[entry](sigma)
    assert info.type is expected


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_accepts_a_known_covariance(entry):
    ENTRY_POINTS[entry](model.KnownCovariance(np.diag([1.0, 2.0])))


def test_of_returns_a_known_covariance_unchanged():
    cov = model.KnownCovariance(np.eye(3))
    assert model.KnownCovariance.of(cov) is cov
    assert model.KnownCovariance.of(cov, 3) is cov
    with pytest.raises(errors.DimMismatchError):
        model.KnownCovariance.of(cov, 4)


def test_cached_arrays_are_read_only_copies():
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    cov = model.KnownCovariance(sigma)
    sigma[0, 0] = 9.0
    assert cov.sigma[0, 0] == 2.0
    for name in ("sigma", "diag", "inv_sqrt", "twice_precision", "chol"):
        with pytest.raises(ValueError):
            getattr(cov, name)[0] = 0.0
    np.testing.assert_allclose(cov.twice_precision, 2.0 * np.linalg.inv(cov.sigma), rtol=1e-12)
    np.testing.assert_allclose(cov.chol @ cov.chol.T, cov.sigma, rtol=1e-12)


def _count_calls(monkeypatch, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


@pytest.mark.parametrize("trials", [3, 6])
def test_sweep_factors_sigma_once(monkeypatch, trials):
    d = 10
    idx = np.arange(d)
    sigma = 0.5 ** np.abs(idx[:, None] - idx[None, :])  # AR(1)
    grid = experiments.SweepGrid((0.5, 1.0), (0.3, 1.0), d=d, s=2, n=200, trials=trials, seed=3)
    counts = _count_calls(monkeypatch, ("eigh", "eigvalsh", "cholesky"))
    experiments.sweep_phase_diagram(grid, tests=("exhaustive",), sigma=sigma)
    assert counts == {"eigh": 1, "eigvalsh": 0, "cholesky": 1}
