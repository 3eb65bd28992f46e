"""Coherent closure of colored complete digraphs.

Exact Weisfeiler-Leman style refinement, a Monte Carlo variant built on
random substitutions and exact integer matrix products, a direct verifier
for the coherence axioms, and a small CLI around them.
"""

from .classical import (
    FingerprintMatrix,
    RefinementInvariantError,
    WlResult,
    classical_closure,
    classical_step,
    iteration_budget,
    noncommutative_product,
)
from .coherence import (
    CoherenceReport,
    CoherenceWitness,
    fixture_names,
    make_fixture,
    verify_coherent,
)
from .graph import (
    ColorMatrix,
    InputError,
    PartitionView,
    RefinementOutcome,
    color_counts,
    is_color_isomorphism,
    is_rainbow,
    is_refinement,
    is_same_partition,
    normalize_by_value,
    partition_view,
    permute_vertices,
    rainbow_refine,
    refine_by,
    validate,
)
from .io import (
    GraphFileError,
    RunReport,
    format_graph_text,
    input_digest,
    parse_graph_text,
    read_graph_file,
    write_graph_file,
)
from .matmul import INT64_MAX, OverflowGuardError, multiply
from .probabilistic import (
    PairedRun,
    RandomSubstitution,
    RunParams,
    StoppingPolicy,
    ValueMatrix,
    check_coherent,
    draw_substitution,
    error_bound,
    numeric_product,
    paired_closure,
    probabilistic_closure,
    probabilistic_step,
)

__version__ = "0.1.0"

__all__ = [
    "CoherenceReport",
    "CoherenceWitness",
    "ColorMatrix",
    "FingerprintMatrix",
    "GraphFileError",
    "INT64_MAX",
    "InputError",
    "OverflowGuardError",
    "PairedRun",
    "PartitionView",
    "RandomSubstitution",
    "RefinementInvariantError",
    "RefinementOutcome",
    "RunParams",
    "RunReport",
    "StoppingPolicy",
    "ValueMatrix",
    "WlResult",
    "check_coherent",
    "classical_closure",
    "classical_step",
    "color_counts",
    "draw_substitution",
    "error_bound",
    "fixture_names",
    "format_graph_text",
    "input_digest",
    "is_color_isomorphism",
    "is_rainbow",
    "is_refinement",
    "is_same_partition",
    "iteration_budget",
    "make_fixture",
    "multiply",
    "noncommutative_product",
    "normalize_by_value",
    "numeric_product",
    "paired_closure",
    "parse_graph_text",
    "partition_view",
    "permute_vertices",
    "probabilistic_closure",
    "probabilistic_step",
    "rainbow_refine",
    "read_graph_file",
    "refine_by",
    "validate",
    "verify_coherent",
    "write_graph_file",
    "__version__",
]
