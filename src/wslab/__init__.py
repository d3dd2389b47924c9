"""Numerical laboratory for detection under randomly corrupted labels.

The package simulates a weakly supervised two-component Gaussian model,
runs both the exhaustive (exponential-time) and the bounded-query
(polynomial-time) detection tests, simulates honest and adversarial
statistical-query oracles, evaluates the closed-form rate boundaries and
divergence formulas behind both lower bounds, and sweeps Monte Carlo phase
diagrams over the supervision/signal plane.
"""

from .errors import (
    AlphaRangeError,
    BudgetExceededError,
    CombinatorialBudgetError,
    ConfigError,
    DimMismatchError,
    EmptySupportError,
    ExpectationOutOfRangeError,
    NoAnalyticExpectationError,
    NonPositiveDiagonalError,
    NonSPDError,
    OneClassMissingError,
    TooFewSamplesError,
    UnsupportedQueryKindError,
    ValidationError,
    WslabError,
)
from .exhaustive import (
    ExhaustiveResult,
    TestResult,
    Thresholds,
    default_thresholds,
    peak_coordinate_statistic,
    run_exhaustive_test,
    sparse_variance_statistic,
)
from .experiments import (
    OracleDemoReport,
    RiskEstimate,
    SweepGrid,
    SweepRow,
    estimate_risk,
    oracle_demo,
    sweep_phase_diagram,
)
from .model import (
    AltSpec,
    Dataset,
    ModelParams,
    make_restricted_alternative,
    sample_dataset,
    snr,
    validate_params,
)
from .oracle import (
    AdversarialPairOracle,
    BoundedQuery,
    EmpiricalOracle,
    GapRecord,
    OracleConfig,
    OracleResponse,
    TruncatedQuerySpec,
    WorstCaseOracle,
    analytic_expectation,
    tolerance,
)
from .pairing import (
    between_class_differences,
    sym_inverse_sqrt,
    whitened_pair_differences,
)
from .theory import (
    hyperbolic_bound_check,
    info_rate,
    likelihood_cross_moment,
    mc_likelihood_cross_moment,
    mixture_chi_square,
    mixture_chi_square_enumerated,
    tractable_rate,
)
from .tractable import (
    TractableConfig,
    TractableResult,
    build_queries,
    default_oracle_config,
    diagonal_threshold_test,
    run_tractable_test,
    signed_mean_test,
)

__version__ = "0.1.0"
