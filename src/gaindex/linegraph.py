"""Line graph construction and the structural identities that come with it.

The line graph of G has one vertex per edge of G, with two vertices adjacent
exactly when the underlying edges share an endpoint.  Every operation here
requires a non-trivial input (each component with at least two edges): the
line graph of a single edge is an isolated vertex, which the index machinery
rejects.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

from .formats import MAX_EDGES
from .graphs import (
    Edge,
    Graph,
    components,
    from_edge_list,
    is_biregular,
    is_nontrivial,
    is_path,
    is_regular,
)
from .indices import _degree_pairs, _ga1_exact
from .radicals import RadicalNumber
from .report import CheckReport, exact_report

__all__ = [
    "GraphFacts",
    "LineGraphResult",
    "line_graph",
    "verify_degree_identity",
    "line_zagreb_identity",
    "line_regularity_characterization",
    "line_tree_characterization",
]


@dataclass(frozen=True)
class LineGraphResult:
    """The line graph plus the edge-to-vertex correspondence and basic stats."""

    graph: Graph
    edge_order: tuple[Edge, ...] = field(compare=False)

    @property
    def vertex_of_edge(self) -> dict[Edge, int]:
        return {e: i for i, e in enumerate(self.edge_order)}

    @property
    def stats(self) -> tuple[int, int, int, int]:
        """(max degree, min degree, vertex count, edge count) of the line graph."""
        lg = self.graph
        return (lg.max_degree, lg.min_degree, lg.n, lg.m)


def _require_nontrivial(g: Graph) -> None:
    if not is_nontrivial(g):
        raise ValueError(
            "line graph requires every component to have at least two edges "
            "(the line graph of a single edge is an isolated vertex)"
        )


def line_graph(g: Graph) -> LineGraphResult:
    """Construct the line graph; vertex i corresponds to the i-th sorted edge."""
    _require_nontrivial(g)
    line_m = sum(d * (d - 1) // 2 for d in g.deg)
    if line_m > MAX_EDGES:
        raise ValueError(
            f"the line graph would have {line_m} edges, over the limit "
            f"MAX_EDGES = {MAX_EDGES}"
        )
    order = g.edges  # already sorted lexicographically
    index = {e: i for i, e in enumerate(order)}
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for e in order:
        u, v = e
        incident[u].append(index[e])
        incident[v].append(index[e])
    pairs: set[Edge] = set()
    for at_vertex in incident:
        for i, j in combinations(at_vertex, 2):
            pairs.add((i, j) if i < j else (j, i))
    lg = from_edge_list(len(order), sorted(pairs))
    return LineGraphResult(graph=lg, edge_order=order)


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
        return GraphFacts(line_graph(self.graph).graph)


def verify_degree_identity(g: Graph) -> bool:
    """Each line-graph degree equals du+dv-2, and the degree range fits.

    Also checks max_degree(L) <= 2*max_degree(G)-2 and
    min_degree(L) >= 2*min_degree(G)-2.
    """
    result = line_graph(g)
    lg = result.graph
    for i, (u, v) in enumerate(result.edge_order):
        if lg.deg[i] != g.deg[u] + g.deg[v] - 2:
            return False
    if lg.max_degree > 2 * g.max_degree - 2:
        return False
    if lg.min_degree < 2 * g.min_degree - 2:
        return False
    return True


def line_zagreb_identity(g: Graph | GraphFacts) -> CheckReport:
    """First Zagreb index of the line graph from indices of the base graph.

    M1(L(G)) = 4m - 4*M1(G) + 2*M2(G) + F(G), exactly, in integers.
    """
    f = GraphFacts.of(g)
    rhs = 4 * f.graph.m - 4 * f.m1 + 2 * f.m2 + f.forgotten
    return exact_report(
        "line_zagreb_identity",
        "==",
        RadicalNumber(f.line.m1),
        RadicalNumber(rhs),
        notes="M1 of the line graph vs 4m - 4*M1 + 2*M2 + F",
    )


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


def line_regularity_characterization(g: Graph | GraphFacts) -> CheckReport:
    """Line graph regular iff every component is regular-or-biregular with
    constant degree sum; both directions checked by construction."""
    f = GraphFacts.of(g)
    actual = f.line.regular
    predicted = regular_line_condition(f)
    per_comp = ", ".join(
        f"({c.max_degree},{c.min_degree})" for c in f.components
    )
    return exact_report(
        "line_regular_iff",
        "==",
        RadicalNumber(1 if actual else 0),
        RadicalNumber(1 if predicted else 0),
        notes=f"line graph regular: {actual}; component degree extremes: {per_comp}",
    )


def line_tree_characterization(g: Graph | GraphFacts) -> list[CheckReport]:
    """For connected non-trivial g: line graph is a tree iff g is a path.

    Also reports the size monotonicity m <= m(L(G)) for non-paths.
    """
    f = GraphFacts.of(g)
    g = f.graph
    if not g.is_connected:
        raise ValueError("tree characterization requires a connected graph")
    lg = f.line.graph
    lg_is_tree = lg.is_connected and lg.m == lg.n - 1
    g_is_path = is_path(g)
    reports = [
        exact_report(
            "line_tree_iff",
            "==",
            RadicalNumber(1 if lg_is_tree else 0),
            RadicalNumber(1 if g_is_path else 0),
            notes=f"line graph tree: {lg_is_tree}; input is a path: {g_is_path}",
        )
    ]
    if not g_is_path:
        reports.append(
            exact_report(
                "line_size_monotone",
                "<=",
                RadicalNumber(g.m),
                RadicalNumber(lg.m),
                notes="edge count does not drop when passing to the line graph "
                "of a connected non-path",
            )
        )
    return reports
