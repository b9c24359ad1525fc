"""Exact geometric-arithmetic index arithmetic, line graphs, and verification."""

from .graphs import (
    Graph,
    GraphClass,
    GraphKind,
    canonical_form,
    classify,
    complete_bipartite_graph,
    complete_graph,
    components,
    cycle_graph,
    delete_edge,
    double_star_graph,
    from_edge_list,
    graph_name,
    is_isomorphic,
    is_minimal_edge,
    is_nontrivial,
    path_graph,
    paw_graph,
    star_graph,
)
from .formats import parse_graph6, parse_graph_spec, read_edge_list, to_graph6, write_edge_list
from .indices import IndexValue, chi_alpha, ga1, harmonic, m1, m1_alpha, m2, m2_alpha, randic
from .linegraph import GraphFacts, line_graph
from .radicals import RadicalNumber, compare, format_radical, radical_sqrt
from .report import CheckReport
from .checks import CHECK_IDS, run_checks
from .enumeration import enumerate_connected, extremal_search, verify_no_preimage

__version__ = "0.1.0"
