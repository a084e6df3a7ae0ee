"""Exact analysis of Laplacian fractional revival on simple graphs.

The library decides, with exact integer and rational arithmetic, whether a
graph admits proper Laplacian fractional revival, periodicity, or perfect
state transfer between vertices, computes earliest times and amplitudes,
and independently verifies every positive decision with a floating-point
spectral oracle.
"""

__version__ = "0.1.0"

from .errors import (
    NonIntegerSupportError,
    NotApplicableError,
    SpecialSmallGraphError,
)
from .graphs import (
    Graph,
    GraphFormatError,
    cartesian_product,
    complement,
    complete_graph,
    cycle_graph,
    disjoint_union,
    double_cone,
    empty_graph,
    hadamard_graph,
    is_connected,
    is_double_cone,
    join,
    laplacian,
    parse_edgelist,
    parse_graph6,
    path_graph,
    standard_graph,
    sylvester_hadamard,
    threshold_graph,
    to_graph6,
)
from .revival import (
    PhaseRational,
    RevivalDecision,
    RevivalStatus,
    all_lafr_pairs,
    class_gcd,
    decide_proper_lafr,
    earliest_common_lafr_time,
)
from .spectral import (
    PairPartition,
    eigenvalue_support,
    is_periodic,
    strong_cospectral,
)

__all__ = [
    "Graph",
    "GraphFormatError",
    "NonIntegerSupportError",
    "NotApplicableError",
    "SpecialSmallGraphError",
    "RevivalStatus",
    "RevivalDecision",
    "PhaseRational",
    "PairPartition",
    "parse_graph6",
    "to_graph6",
    "parse_edgelist",
    "laplacian",
    "complement",
    "join",
    "disjoint_union",
    "cartesian_product",
    "double_cone",
    "threshold_graph",
    "hadamard_graph",
    "sylvester_hadamard",
    "standard_graph",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "empty_graph",
    "is_connected",
    "is_double_cone",
    "eigenvalue_support",
    "is_periodic",
    "strong_cospectral",
    "decide_proper_lafr",
    "all_lafr_pairs",
    "earliest_common_lafr_time",
    "class_gcd",
]
