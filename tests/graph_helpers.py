"""Graph constructions that only the tests use."""

from __future__ import annotations

from gaindex.graphs import Edge, Graph, canonical_key, from_edge_list, graph_from_key, induced_subgraph


def strip_isolated(g: Graph) -> Graph:
    """Drop degree-0 vertices, relabeling the rest in ascending order."""
    kept = [v for v in range(g.n) if g.deg[v] > 0]
    return induced_subgraph(g, kept)


def add_edge(g: Graph, u: int, v: int) -> Graph:
    return from_edge_list(g.n, list(g.edges) + [(u, v)])


def canonical_graph(g: Graph) -> Graph:
    """The canonically labeled representative of g's isomorphism class."""
    return graph_from_key(g.n, canonical_key(g))


def disjoint_union(*graphs: Graph) -> Graph:
    pairs: list[Edge] = []
    offset = 0
    for g in graphs:
        pairs.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.n
    return from_edge_list(offset, pairs)
