"""Toll convexity toolkit.

Computes tolled-walk intervals, toll convex hulls, toll extreme vertices,
clique-separator decompositions, minimum toll hull sets of connected
graphs in polynomial time, and streams all minimum hull sets; brute-force
oracles certify every computation at small scale.
"""

from .atoms import AtomDecomposition, atoms
from .check import EnumerationReport, compare_with_bruteforce
from .convexity import (
    extreme_vertices,
    fast_concavity_test,
    is_t_concave,
    is_t_convex,
    is_toll_extreme,
    toll_hull,
    toll_interval,
)
from .enumeration import enumerate_min_hull_sets
from .graph import (
    Graph,
    GraphError,
    ParseError,
    SizeLimitError,
    fixture,
    generate,
    is_caterpillar,
    is_tree,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    parse_graph6_file,
    to_edge_list,
    to_graph6,
)
from .solver import (
    CharacteristicBlock,
    HullResult,
    SolverInvariantError,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "AtomDecomposition",
    "CharacteristicBlock",
    "EnumerationReport",
    "Graph",
    "GraphError",
    "HullResult",
    "ParseError",
    "SizeLimitError",
    "SolverInvariantError",
    "atoms",
    "compare_with_bruteforce",
    "enumerate_min_hull_sets",
    "extreme_vertices",
    "fast_concavity_test",
    "fixture",
    "generate",
    "is_caterpillar",
    "is_t_concave",
    "is_t_convex",
    "is_toll_extreme",
    "is_tree",
    "parse_edge_list",
    "parse_graph",
    "parse_graph6",
    "parse_graph6_file",
    "solve",
    "to_edge_list",
    "to_graph6",
    "toll_hull",
    "toll_interval",
]
