"""Coherent closure of colored complete digraphs.

Exact Weisfeiler-Leman style refinement, a Monte Carlo variant built on
random substitutions and exact integer matrix products, a direct verifier
for the coherence axioms, and a small CLI around them.  The names below are
the library API the README documents; everything else lives in the
submodules.
"""

from .classical import classical_closure
from .coherence import make_fixture, verify_coherent
from .graph import InputError, is_same_partition, validate
from .io import GraphFileError, read_graph_file, write_graph_file
from .probabilistic import (
    OverflowGuardError,
    ResourceGuardError,
    RunParams,
    StoppingPolicy,
    check_coherent,
    paired_closure,
    probabilistic_closure,
)

__version__ = "0.1.0"

__all__ = [
    "GraphFileError",
    "InputError",
    "OverflowGuardError",
    "ResourceGuardError",
    "RunParams",
    "StoppingPolicy",
    "check_coherent",
    "classical_closure",
    "is_same_partition",
    "make_fixture",
    "paired_closure",
    "probabilistic_closure",
    "read_graph_file",
    "validate",
    "verify_coherent",
    "write_graph_file",
    "__version__",
]
