"""Exact treewidth and pathwidth solvers parameterized by vertex cover size.

Public surface: the four solvers (each returns (width, decomposition)), the
reference oracles, the decomposition validator, and the .gr/.td formats.
"""

from .complement import pathwidth_cvc
from .cover import is_vertex_cover, minimum_vertex_cover
from .decomposition import Decomposition, find_violations, validate
from .errors import (InputError, InternalError, InvalidDecompositionError,
                     ParseError, ResourceLimitError)
from .formats import emit_gr, emit_td, parse_cover, parse_gr, parse_td
from .graph import Graph
from .oracle import pathwidth_exact, treewidth_exact
from .pathwidth import pathwidth_vc
from .treewidth import treewidth_vc_4k
from .treewidth_fast import treewidth_vc_3k

__version__ = "0.1.0"

__all__ = [
    "Decomposition", "Graph", "InputError", "InternalError",
    "InvalidDecompositionError",
    "ParseError", "ResourceLimitError", "emit_gr", "emit_td",
    "find_violations", "is_vertex_cover", "minimum_vertex_cover",
    "parse_cover", "parse_gr", "parse_td", "pathwidth_cvc", "pathwidth_exact",
    "pathwidth_vc", "treewidth_exact", "treewidth_vc_3k", "treewidth_vc_4k",
    "validate",
]
