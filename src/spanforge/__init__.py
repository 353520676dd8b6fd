"""spanforge: exact classical simulation and verification of approximate span programs.

The package computes every witness quantity of a span program exactly
(sizes, errors, min-error witnesses), decomposes the associated reflection
products into phases, simulates the phase/amplitude-estimation decision and
estimation algorithms with exact outcome distributions and query accounting,
and applies the machinery to effective-resistance estimation on graphs.
"""

from ._linalg import DEFAULT_TOLS, Tolerances
from .algorithms import (
    EstimateResult,
    ThresholdSpec,
    decide_threshold,
    gap_estimate,
    kappa_estimate,
    witness_estimate,
)
from .qsim import QueryLedger, amplitude_estimation
from .resistance import (
    Graph,
    build_st_span_program,
    estimate_resistance,
    exact_resistance,
    lower_bound_family,
    parse_graph_file,
)
from .spanprog import (
    MinimalWitness,
    SpanProgram,
    WitnessReport,
    input_factors,
    minimal_witness,
    normalize,
    or_span_program,
    validate,
    witness_report,
)
from .spectral import kappa_bound
from .oracle import build_U, build_Uprime, discriminant, scale, verify_reflection_factorization

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOLS",
    "Tolerances",
    "EstimateResult",
    "ThresholdSpec",
    "decide_threshold",
    "gap_estimate",
    "kappa_estimate",
    "witness_estimate",
    "QueryLedger",
    "amplitude_estimation",
    "Graph",
    "build_st_span_program",
    "estimate_resistance",
    "exact_resistance",
    "lower_bound_family",
    "parse_graph_file",
    "verify_reflection_factorization",
    "MinimalWitness",
    "SpanProgram",
    "WitnessReport",
    "input_factors",
    "minimal_witness",
    "normalize",
    "or_span_program",
    "scale",
    "validate",
    "witness_report",
    "build_U",
    "build_Uprime",
    "discriminant",
    "kappa_bound",
]
