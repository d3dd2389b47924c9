"""Semantic exception hierarchy.

Public functions raise these instead of bare ValueError so callers (and the
CLI exit-code mapping) can react to the failure class, not message text.
"""

from __future__ import annotations


class WslabError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(WslabError, ValueError):
    """Inputs violate a documented contract (domain, shape, range)."""


class NonSPDError(ValidationError):
    """Covariance is not symmetric positive-definite (or too ill-conditioned)."""


class AlphaRangeError(ValidationError):
    """Label-fidelity parameter alpha is outside [0, 1]."""


class DimMismatchError(ValidationError):
    """Mean vectors and covariance have inconsistent dimensions."""


class EmptySupportError(ValidationError):
    """A sparse alternative was requested with an empty support."""


class TooFewSamplesError(ValidationError):
    """Not enough samples to form even one pair."""


class OneClassMissingError(ValidationError):
    """All observed labels are identical, so no between-class differences exist."""


class NonPositiveDiagonalError(ValidationError):
    """Covariance diagonal must be strictly positive to standardize coordinates."""


class ExpectationOutOfRangeError(ValidationError):
    """Claimed expectation exceeds the declared bound of the query."""


class CombinatorialBudgetError(WslabError):
    """Support enumeration would exceed the configured combinatorial cap."""


class BudgetExceededError(WslabError):
    """Oracle query budget is exhausted."""


class NoAnalyticExpectationError(WslabError):
    """The query was standardized with another variance than the model's."""


class UnsupportedQueryKindError(WslabError):
    """A coordinate query names a kind that is not one of the registered kinds."""


class ConfigError(WslabError):
    """Run configuration failed to parse or validate."""
