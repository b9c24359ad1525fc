"""Graph constructions, every small graph, GA1 helpers, exact-value decoders and a
labeling-free view of check reports that only the tests use."""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from typing import Iterable

from gaindex.enumeration import enumerate_connected
from gaindex.graphs import Edge, Graph, canonical_key, from_edge_list, graph_from_key, induced_subgraph
from gaindex.indices import Exponent, _power_factor
from gaindex.radicals import RadicalNumber, radical_sum
from gaindex.report import CheckReport


def strip_isolated(g: Graph) -> Graph:
    """Drop degree-0 vertices, relabeling the rest in ascending order."""
    kept = [v for v in range(g.n) if g.deg[v] > 0]
    return induced_subgraph(g, kept)


def add_edge(g: Graph, u: int, v: int) -> Graph:
    return from_edge_list(g.n, list(g.edges) + [(u, v)])


def relabel(g: Graph, perm: list[int]) -> Graph:
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def labeling_free_verdicts(reports: Iterable[CheckReport]) -> Counter[tuple]:
    """The rows of ``reports`` that relabeling a connected graph must keep,
    as a multiset.

    A row holds every field of a report except two: the display floats,
    which float mode sums in an order that follows the labeling, and the
    notes of edge_deletion_drop, which name the deleted edge.
    """
    return Counter(
        (
            r.check_id,
            r.mode,
            r.holds,
            r.equality,
            r.predicted_equality,
            r.characterization_consistent,
            r.preconditions_met,
            str(r.lhs.exact),
            str(r.rhs.exact),
            "" if r.check_id == "edge_deletion_drop" else r.notes,
        )
        for r in reports
    )


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


def all_graphs(n_max: int) -> list[list[Graph]]:
    """Every graph with at most ``n_max`` vertices, connected or not, one per
    isomorphism class, listed by order.

    Each class is the disjoint union of a multiset of connected classes of
    ``enumerate_connected``, taken once in nondecreasing position along them;
    order 0 holds the graph with no vertices.
    """
    connected = [g for n in range(1, n_max + 1) for g in enumerate_connected(n)]
    by_order: list[list[Graph]] = [[] for _ in range(n_max + 1)]

    def grow(parts: list[Graph], first: int, n: int) -> None:
        by_order[n].append(disjoint_union(*parts))
        for i in range(first, len(connected)):
            if n + connected[i].n > n_max:
                break  # the connected classes come in increasing order
            grow(parts + [connected[i]], i, n + connected[i].n)

    grow([], 0, 0)
    return by_order


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


def exact_pow(base: int | Fraction | RadicalNumber, alpha: Exponent) -> RadicalNumber:
    """``gaindex.indices._power_factor`` as a value."""
    power = _power_factor(base, alpha)
    return power if isinstance(power, RadicalNumber) else radical_sum([power])


_TERM_RE = re.compile(
    r"^(?P<coeff>\d+(?:/\d+)?)?(?P<star>\*)?(?:sqrt\((?P<q>\d+)\))?$"
)


def parse_radical(text: str) -> RadicalNumber:
    """Parse the display format produced by ``gaindex.radicals.format_radical``."""
    compact = text.replace(" ", "")
    if not compact:
        raise ValueError("empty radical literal")
    if compact == "0":
        return RadicalNumber(0)
    tokens = re.findall(r"[+-]?[^+-]+", compact)
    if "".join(tokens) != compact:
        raise ValueError(f"malformed radical literal: {text!r}")
    terms: dict[int, Fraction] = {}
    for token in tokens:
        sign = 1
        body = token
        if body[0] in "+-":
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        m = _TERM_RE.match(body)
        if not m or (m.group("star") and not (m.group("coeff") and m.group("q"))) or (
            not m.group("coeff") and not m.group("q")
        ) or (m.group("coeff") and m.group("q") and not m.group("star")):
            raise ValueError(f"malformed radical term: {token!r}")
        coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
        q = int(m.group("q")) if m.group("q") else 1
        if q < 1:
            raise ValueError(f"malformed radical term: {token!r}")
        cur = terms.get(q, Fraction(0)) + sign * coeff
        if cur:
            terms[q] = cur
        else:
            terms.pop(q, None)
    return RadicalNumber(terms)
