"""Graph constructions and GA1 helpers that only the tests use."""

from __future__ import annotations

from fractions import Fraction

from gaindex.graphs import Edge, Graph, canonical_key, from_edge_list, graph_from_key, induced_subgraph
from gaindex.radicals import RadicalNumber


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


def ga_ratio_curve(t: int | Fraction) -> Fraction:
    """2t/(1+t^2): increases on [0,1], decreases on [1,inf), peaks at t=1."""
    frac = Fraction(t)
    if frac < 0:
        raise ValueError("defined for t >= 0")
    return 2 * frac / (1 + frac * frac)


def ga_edge_term(x: int | Fraction, y: int | Fraction) -> RadicalNumber:
    """2*sqrt(xy)/(x+y), the per-edge term of the geometric-arithmetic index."""
    fx, fy = Fraction(x), Fraction(y)
    if fx <= 0 or fy <= 0:
        raise ValueError("defined for positive arguments")
    return RadicalNumber.sqrt_fraction(fx * fy) * Fraction(2, 1) / (fx + fy)
