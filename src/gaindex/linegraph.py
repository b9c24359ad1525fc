"""Line graph construction and the per-graph facts the checkers share.

The line graph of G has one vertex per edge of G, with two vertices adjacent
exactly when the underlying edges share an endpoint.  Every operation here
requires a non-trivial input (each component with at least two edges): the
line graph of a single edge is an isolated vertex, which the index machinery
rejects.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .formats import MAX_EDGES
from .graphs import (
    Graph,
    components,
    from_edge_list,
    is_biregular,
    is_nontrivial,
    is_regular,
)
from .indices import _degree_pairs, _ga1_exact
from .radicals import RadicalNumber

__all__ = [
    "GraphFacts",
    "line_graph",
    "verify_degree_identity",
]


def _require_nontrivial(g: Graph) -> None:
    if not is_nontrivial(g):
        raise ValueError(
            "line graph requires every component to have at least two edges "
            "(the line graph of a single edge is an isolated vertex)"
        )


def line_graph(g: Graph) -> Graph:
    """The line graph; vertex i is the edge ``g.edges[i]``."""
    _require_nontrivial(g)
    line_m = sum(d * (d - 1) // 2 for d in g.deg)
    if line_m > MAX_EDGES:
        raise ValueError(
            f"the line graph would have {line_m} edges, over the limit "
            f"MAX_EDGES = {MAX_EDGES}"
        )
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        incident[u].append(i)
        incident[v].append(i)
    pairs = [p for at_vertex in incident for p in combinations(at_vertex, 2)]
    return from_edge_list(g.m, pairs)


@dataclass(frozen=True)
class GraphFacts:
    """One graph and the facts the checkers read, each computed on first read."""

    graph: Graph

    @classmethod
    def of(cls, g: Graph | GraphFacts) -> GraphFacts:
        """``g`` itself if it is already a ``GraphFacts``, else its facts."""
        return g if isinstance(g, GraphFacts) else cls(g)

    @cached_property
    def degree_pairs(self) -> Counter[tuple[int, int]]:
        """Edge count per (smaller, larger) endpoint-degree pair."""
        return _degree_pairs(self.graph)

    @cached_property
    def components(self) -> tuple[Graph, ...]:
        return tuple(components(self.graph))

    @cached_property
    def connected(self) -> bool:
        return len(self.components) <= 1

    @cached_property
    def nontrivial(self) -> bool:
        return is_nontrivial(self.graph)

    @cached_property
    def regular(self) -> bool:
        return is_regular(self.graph)

    @cached_property
    def biregular(self) -> bool:
        return is_biregular(self.graph)

    @cached_property
    def edge_reason(self) -> str | None:
        """Why a statement needing an edge in every component does not apply."""
        if self.graph.m == 0:
            return "graph has no edges"
        if 0 in self.graph.deg:
            return "every component must contain an edge (isolated vertices present)"
        return None

    @cached_property
    def nontrivial_reason(self) -> str | None:
        """Why a statement needing two edges in every component does not apply."""
        if self.edge_reason:
            return self.edge_reason
        if not self.nontrivial:
            return "every component must have at least two edges"
        return None

    @cached_property
    def ga1(self) -> RadicalNumber:
        return _ga1_exact(self.degree_pairs)

    @cached_property
    def m1(self) -> int:
        return sum(d * d for d in self.graph.deg)

    @cached_property
    def m2(self) -> int:
        return sum(a * b * count for (a, b), count in self.degree_pairs.items())

    @cached_property
    def forgotten(self) -> int:
        return sum(d**3 for d in self.graph.deg)

    @cached_property
    def line(self) -> GraphFacts:
        """The facts of the line graph (raises unless the graph is non-trivial)."""
        return GraphFacts(line_graph(self.graph))


def verify_degree_identity(g: Graph | GraphFacts) -> bool:
    """Each line-graph degree equals du+dv-2, and the degree range fits.

    Also checks max_degree(L) <= 2*max_degree(G)-2 and
    min_degree(L) >= 2*min_degree(G)-2.
    """
    f = GraphFacts.of(g)
    g, lg = f.graph, f.line.graph
    for i, (u, v) in enumerate(g.edges):
        if lg.deg[i] != g.deg[u] + g.deg[v] - 2:
            return False
    if lg.max_degree > 2 * g.max_degree - 2:
        return False
    if lg.min_degree < 2 * g.min_degree - 2:
        return False
    return True


def regular_line_condition(g: Graph | GraphFacts) -> bool:
    """Structural condition equivalent to the line graph being regular.

    Every component regular or biregular, with the same max+min degree sum
    across components.
    """
    f = GraphFacts.of(g)
    target = f.graph.max_degree + f.graph.min_degree
    for comp in f.components:
        if not (is_regular(comp) or is_biregular(comp)):
            return False
        if comp.max_degree + comp.min_degree != target:
            return False
    return True
