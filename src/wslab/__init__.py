"""Numerical laboratory for detection under randomly corrupted labels.

The package simulates a weakly supervised two-component Gaussian model,
runs both the exhaustive (exponential-time) and the bounded-query
(polynomial-time) detection tests, simulates honest and adversarial
statistical-query oracles, evaluates the closed-form rate boundaries and
divergence formulas behind both lower bounds, and sweeps Monte Carlo phase
diagrams over the supervision/signal plane.

Each public name lives in one module and is imported from it
(``from wslab.experiments import sweep_phase_diagram``); the package itself
re-exports nothing.
"""

__version__ = "0.1.0"
