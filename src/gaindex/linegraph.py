"""Line graph construction and the per-graph facts the checkers share.

:class:`GraphFacts` is the one place that derives a graph's degree pairs,
degree counts and GA1; the checkers and every index of
:mod:`gaindex.indices` read them from it.

The line graph L(G) has one vertex per edge of G, with two vertices adjacent
exactly when the underlying edges share an endpoint, so the vertex uv has
degree du + dv - 2.  The checkers read L(G) only through :class:`LineFacts`,
whose order, size, degree pairs, GA1, M1 and regularity are read off G's
edges and degrees; only :func:`line_graph` builds L(G) as a ``Graph``, for
``gaindex linegraph`` and :func:`verify_degree_identity`.  Every operation
here requires a non-trivial input (each component with at least two edges):
the line graph of a single edge is an isolated vertex, which the index
machinery rejects.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
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
from .radicals import RadicalNumber, radical_sum

__all__ = [
    "GraphFacts",
    "LineFacts",
    "line_graph",
    "verify_degree_identity",
]


def _require_nontrivial(g: Graph) -> None:
    if not is_nontrivial(g):
        raise ValueError(
            "line graph requires every component to have at least two edges "
            "(the line graph of a single edge is an isolated vertex)"
        )


def _line_size(g: Graph) -> int:
    """Edge count of the line graph, sum of C(deg, 2); raises unless ``g`` is
    non-trivial and the count is within ``MAX_EDGES``."""
    _require_nontrivial(g)
    line_m = sum(d * (d - 1) // 2 for d in g.deg)
    if line_m > MAX_EDGES:
        raise ValueError(
            f"the line graph would have {line_m} edges, over the limit "
            f"MAX_EDGES = {MAX_EDGES}"
        )
    return line_m


def line_graph(g: Graph) -> Graph:
    """The line graph; vertex i is the edge ``g.edges[i]``."""
    _line_size(g)
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        incident[u].append(i)
        incident[v].append(i)
    pairs = [p for at_vertex in incident for p in combinations(at_vertex, 2)]
    return from_edge_list(g.m, pairs)


def _ga1_exact(pairs: Counter[tuple[int, int]]) -> RadicalNumber:
    """GA1, the sum of 2*sqrt(du*dv)/(du+dv) over edges, from degree-pair counts."""
    return radical_sum([(2 * count, a * b, a + b) for (a, b), count in pairs.items()])


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
        """Edge count per (smaller, larger) endpoint-degree pair, keyed in
        order of first appearance along the sorted edges."""
        g = self.graph
        pairs: Counter[tuple[int, int]] = Counter()
        for u, v in g.edges:
            a, b = g.deg[u], g.deg[v]
            pairs[(a, b) if a <= b else (b, a)] += 1
        return pairs

    @cached_property
    def degree_counts(self) -> Counter[int]:
        """Vertex count per degree."""
        return Counter(self.graph.deg)

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
    def regular_components(self) -> bool:
        """Every component regular: every edge joins two vertices of one degree."""
        return all(a == b for a, b in self.degree_pairs)

    @cached_property
    def regular_or_biregular_components(self) -> bool:
        """Every component regular or biregular: equivalent, without isolated
        vertices, to every component of the line graph being regular."""
        return all(is_regular(c) or is_biregular(c) for c in self.components)

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
    def regular_line_condition(self) -> bool:
        """Every component regular or biregular, with the same max+min degree
        sum across components: equivalent to the line graph being regular."""
        sums = {c.max_degree + c.min_degree for c in self.components}
        return self.regular_or_biregular_components and len(sums) <= 1

    @cached_property
    def line(self) -> LineFacts:
        """The facts of the line graph (raises unless the graph is non-trivial)."""
        return LineFacts(self)


@dataclass(frozen=True)
class LineFacts:
    """The facts of L(G) that the checkers read, each read off G's edges and
    degrees on first read; ``graph`` builds L(G) itself.

    Each equals the same fact of ``GraphFacts(line_graph(g))``, the order of
    ``degree_pairs`` included.  Construction raises, as :func:`line_graph`
    does, unless G is non-trivial and L(G) has at most ``MAX_EDGES`` edges.
    """

    base: GraphFacts
    m: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _line_size(self.base.graph))

    @property
    def n(self) -> int:
        return self.base.graph.m

    @cached_property
    def graph(self) -> Graph:
        return line_graph(self.base.graph)

    @cached_property
    def degree_pairs(self) -> Counter[tuple[int, int]]:
        """Edge count per (smaller, larger) degree pair of L(G).

        Keys first appear in the order of :attr:`GraphFacts.degree_pairs` of
        the built line graph, whose edges (i, j), i < j, are sorted; float mode sums
        the pairs in that order.  G's edges are sorted with u < v, so the
        edges j > i that meet edge i = (u, v) are u's edges after v in
        ``adj[u]``, then v's edges after u in ``adj[v]``, in increasing j.
        """
        g = self.base.graph
        deg = g.deg
        # The L-degrees of each vertex's edges, in the order of adj.
        at = [[d + deg[w] - 2 for w in g.adj[x]] for x, d in enumerate(deg)]
        passed = [0] * g.n  # edges at each vertex up to the current one
        pairs: dict[tuple[int, int], int] = {}  # counts faster than a Counter
        for u, v in g.edges:
            passed[u] += 1
            passed[v] += 1
            a = deg[u] + deg[v] - 2
            for b in at[u][passed[u]:] + at[v][passed[v]:]:
                key = (a, b) if a <= b else (b, a)
                pairs[key] = pairs.get(key, 0) + 1
        return Counter(pairs)

    @cached_property
    def ga1(self) -> RadicalNumber:
        return _ga1_exact(self.degree_pairs)

    @cached_property
    def m1(self) -> int:
        pairs = self.base.degree_pairs
        return sum(count * (a + b - 2) ** 2 for (a, b), count in pairs.items())

    @cached_property
    def regular(self) -> bool:
        return len({a + b for a, b in self.base.degree_pairs}) == 1


def verify_degree_identity(f: GraphFacts) -> bool:
    """Each line-graph degree equals du+dv-2, and the degree range fits.

    Also checks max_degree(L) <= 2*max_degree(G)-2 and
    min_degree(L) >= 2*min_degree(G)-2.
    """
    g, lg = f.graph, f.line.graph
    for i, (u, v) in enumerate(g.edges):
        if lg.deg[i] != g.deg[u] + g.deg[v] - 2:
            return False
    if lg.max_degree > 2 * g.max_degree - 2:
        return False
    if lg.min_degree < 2 * g.min_degree - 2:
        return False
    return True

