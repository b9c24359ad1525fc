"""Isomorph-free generation of small connected graphs and extremal sweeps.

Generation is exact: one canonical representative per isomorphism class.
Each order grows from the classes one vertex smaller by joining a new vertex
to a nonempty set of old ones (to a single one for trees), deduplicating with
canonical keys.  This reaches everything because every connected graph on
n >= 2 vertices has a vertex whose removal leaves it connected, such as a
leaf of a spanning tree.  A child is keyed only when a cheap degree
invariant says its new vertex could be the one chosen for removal (a
canonical construction path filter), which leaves about two keys per class.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import isqrt

from .formats import MAX_EDGES
from .graphs import (
    Graph,
    GraphKind,
    canonical_key,
    canonical_form,
    classify,
    complete_bipartite_graph,
    cycle_graph,
    double_star_graph,
    from_edge_list,
    graph_from_key,
    graph_name,
    is_biregular,
    is_nontrivial,
    is_regular,
    path_graph,
    paw_graph,
    star_graph,
)
from .indices import ga1
from .linegraph import line_graph
from .radicals import RadicalNumber, compare
from .report import CheckReport, exact_report

__all__ = [
    "ENUMERATION_MAX_N",
    "Bucket",
    "BucketMember",
    "enumerate_connected",
    "enumerate_trees",
    "connected_with_edges",
    "connected_nontrivial",
    "classify_small_values",
    "classify_line_small_values",
    "expected_small_value_families",
    "expected_line_small_value_families",
    "buckets_match_families",
    "line_graph_preimages",
    "verify_no_preimage",
    "check_double_star_rational",
    "check_complete_bipartite_integer",
    "extremal_search",
    "random_connected",
    "census_rows",
]

ENUMERATION_MAX_N = 8
# The largest random order whose complete graph keeps within the input limit.
_RANDOM_MAX_N = (1 + isqrt(1 + 8 * MAX_EDGES)) // 2


def enumerate_trees(n: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class of trees on n vertices."""
    if n < 1:
        raise ValueError("need at least one vertex")
    return _augmented_classes(n, trees=True)


def enumerate_connected(n: int) -> tuple[Graph, ...]:
    """One canonical representative per connected graph on n vertices.

    Exhaustive and exact; bounded because canonical keys are an exhaustive
    search.  Each child is keyed straight from the neighbour bitmasks it is
    built as, by the ordered-cell search of :func:`canonical_key`, and only
    the representatives become :class:`Graph` values.  n = 7 (853 classes)
    takes about 0.3 s and n = 8 (11,117 classes) about 5 s, both on 2 cores
    with Python 3.11.
    """
    if not 1 <= n <= ENUMERATION_MAX_N:
        raise ValueError(f"enumeration supports 1 <= n <= {ENUMERATION_MAX_N}")
    return _augmented_classes(n, trees=False)


@lru_cache(maxsize=None)
def _augmented_classes(n: int, trees: bool) -> tuple[Graph, ...]:
    """Every class on n - 1 vertices plus a vertex n - 1 joined to a nonempty
    set of old vertices (one old vertex for trees), deduplicated by canonical
    key and sorted by (m, key).

    A child gets a key only if its new vertex minimises
    f(v) = (deg v, sorted degrees of v's neighbours) over its non-cut
    vertices (McKay's canonical construction path, with f in place of the
    canonical orbit).  This loses no class: take any G in a class and any v
    minimising f over G's non-cut vertices.  G - v is connected, so it is
    isomorphic to a class P on n - 1 vertices, and joining a new vertex to
    the image of N(v) in P gives a child isomorphic to G in which the new
    vertex plays v.  Both f and being non-cut are invariant under
    isomorphism, so that child passes.  A tree's non-cut vertices are its
    leaves, so trees are the same case.
    """
    if n == 1:
        return (from_edge_list(1, []),)
    new = n - 1
    found: set[tuple[int, ...]] = set()
    for g in _augmented_classes(new, trees=trees):
        old_masks = [sum(1 << w for w in nbrs) for nbrs in g.adj]
        for size in (1,) if trees else range(1, n):
            for joined in combinations(range(new), size):
                masks = old_masks.copy()
                for v in joined:
                    masks[v] |= 1 << new
                masks.append(sum(1 << v for v in joined))
                if _new_vertex_is_minimal(masks):
                    found.add(canonical_key(masks))
    # A key has one bit per edge, so its popcount is m.
    ordered = sorted(found, key=lambda key: (sum(map(int.bit_count, key)), key))
    return tuple(graph_from_key(n, key) for key in ordered)


def _new_vertex_is_minimal(masks: list[int]) -> bool:
    """Whether no non-cut vertex v has f(v) < f(last vertex), for the
    invariant f of :func:`_augmented_classes`; ``masks`` are neighbour
    bitmasks of a connected graph whose last vertex is non-cut."""
    n = len(masks)
    deg = [mask.bit_count() for mask in masks]

    def f(v: int) -> tuple[int, list[int]]:
        return deg[v], sorted(deg[w] for w in range(n) if masks[v] >> w & 1)

    new = n - 1
    target = f(new)
    everyone = (1 << n) - 1
    for v in range(new):
        if deg[v] > target[0] or f(v) >= target:
            continue
        # v is non-cut when a search from the new vertex avoiding v reaches
        # every other vertex.
        rest = everyone & ~(1 << v)
        seen = frontier = 1 << new
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= masks[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & rest & ~seen
            seen |= frontier
        if seen == rest:
            return False
    return True


def connected_with_edges(n_max: int) -> list[Graph]:
    """All connected graphs with at least one edge and order up to n_max."""
    if n_max > ENUMERATION_MAX_N:  # refused before any order is enumerated
        raise ValueError(f"order {n_max} exceeds ENUMERATION_MAX_N = {ENUMERATION_MAX_N}")
    out: list[Graph] = []
    for n in range(2, n_max + 1):
        out.extend(enumerate_connected(n))
    return out


def connected_nontrivial(n_max: int) -> list[Graph]:
    """All connected graphs with at least two edges and order up to n_max."""
    return [g for g in connected_with_edges(n_max) if g.m >= 2]


# -- small-value classification ----------------------------------------------


@dataclass(frozen=True)
class BucketMember:
    canonical: str
    graph: Graph
    value: RadicalNumber
    name: str | None


@dataclass(frozen=True)
class Bucket:
    """Graphs whose index value lies in the half-open interval (lower, upper]."""

    lower: int
    upper: int
    members: tuple[BucketMember, ...]


_BUCKET_RANGES = ((0, 1), (1, 2), (2, 3), (3, 4))


def _bucketize(pairs: list[tuple[Graph, RadicalNumber]]) -> list[Bucket]:
    filled: dict[tuple[int, int], list[BucketMember]] = {r: [] for r in _BUCKET_RANGES}
    for g, value in pairs:
        for lo, hi in _BUCKET_RANGES:
            if compare(value, lo) > 0 and compare(value, hi) <= 0:
                filled[(lo, hi)].append(
                    BucketMember(
                        canonical=canonical_form(g),
                        graph=g,
                        value=value,
                        name=graph_name(g),
                    )
                )
                break
    return [
        Bucket(lo, hi, tuple(sorted(filled[(lo, hi)], key=lambda m: m.canonical)))
        for lo, hi in _BUCKET_RANGES
    ]


def classify_small_values(n_max: int) -> list[Bucket]:
    """Bucket every connected graph (with an edge, n <= n_max) by exact GA1.

    The (3,4] bucket is complete only once all orders up to 6 are present,
    hence the precondition.
    """
    if n_max < 6:
        raise ValueError("n_max >= 6 is required to fill the (3,4] bucket")
    pairs = []
    for g in connected_with_edges(n_max):
        value = ga1(g).exact
        assert value is not None
        pairs.append((g, value))
    return _bucketize(pairs)


def classify_line_small_values(n_max: int) -> list[Bucket]:
    """Bucket non-trivial connected graphs by the exact GA1 of their line graph.

    A line-graph value of at most 4 forces at most 6 edges, hence at most 7
    vertices in the source graph: n_max >= 7 sees every member.
    """
    if n_max < 7:
        raise ValueError("n_max >= 7 is required to cover every possible member")
    pairs = []
    for g in connected_nontrivial(n_max):
        value = ga1(line_graph(g)).exact
        assert value is not None
        pairs.append((g, value))
    return _bucketize(pairs)


def expected_small_value_families() -> dict[tuple[int, int], list[Graph]]:
    """The known classification of GA1 values up to 4, by membership."""
    return {
        (0, 1): [path_graph(2)],
        (1, 2): [path_graph(3)],
        (2, 3): [cycle_graph(3), path_graph(4), star_graph(4)],
        (3, 4): [
            star_graph(6),
            star_graph(5),
            path_graph(5),
            double_star_graph(1, 2),
            cycle_graph(4),
            paw_graph(),
        ],
    }


def expected_line_small_value_families() -> dict[tuple[int, int], list[Graph]]:
    """The known classification of line-graph GA1 values up to 4 (source graphs)."""
    return {
        (0, 1): [path_graph(3)],
        (1, 2): [path_graph(4)],
        (2, 3): [cycle_graph(3), star_graph(4), path_graph(5)],
        (3, 4): [path_graph(6), cycle_graph(4), double_star_graph(1, 2)],
    }


def buckets_match_families(
    buckets: list[Bucket], families: dict[tuple[int, int], list[Graph]]
) -> bool:
    """Same isomorphism classes in every bucket."""
    for bucket in buckets:
        expected = families.get((bucket.lower, bucket.upper), [])
        got = sorted(member.canonical for member in bucket.members)
        want = sorted(canonical_form(g) for g in expected)
        if got != want:
            return False
    return True


# -- line-graph preimages ------------------------------------------------------


def line_graph_preimages(target: Graph) -> list[Graph]:
    """All connected non-trivial graphs whose line graph is the target.

    A preimage must have exactly as many edges as the target has vertices,
    which bounds its order by that count plus one; the search is exhaustive.
    """
    if target.n >= ENUMERATION_MAX_N:
        raise ValueError(
            f"target order {target.n} >= ENUMERATION_MAX_N = {ENUMERATION_MAX_N}"
        )
    m_needed = target.n
    target_key = canonical_key(target)
    out = []
    for n in range(2, m_needed + 2):
        for g in enumerate_connected(n):
            if g.m != m_needed or not is_nontrivial(g):
                continue
            if canonical_key(line_graph(g)) == target_key:
                out.append(g)
    return out


def verify_no_preimage(target: Graph) -> bool:
    return not line_graph_preimages(target)


# -- worked families ------------------------------------------------------------

_BIPARTITE_K_MAX = 40  # K(200, 800) has 160,000 edges


def check_double_star_rational(n1: int, n2: int) -> CheckReport:
    """Double star on leaf counts n1^2-1 and n2^2-1: rational GA1, not biregular.

    Verifies the closed form
    2(n1^2-1)n1/(n1^2+1) + 2(n2^2-1)n2/(n2^2+1) + 2*n1*n2/(n1^2+n2^2) exactly.
    """
    check_id = "double_star_rational"
    if n1 < 1 or n2 < 1:
        raise ValueError("both parameters must be positive integers")
    if n1 == n2:
        raise ValueError("parameters must be different")
    a, b = n1 * n1 - 1, n2 * n2 - 1
    g = double_star_graph(a, b)
    value = ga1(g).exact
    assert value is not None
    closed = RadicalNumber(
        Fraction(2 * (n1 * n1 - 1) * n1, n1 * n1 + 1)
        + Fraction(2 * (n2 * n2 - 1) * n2, n2 * n2 + 1)
        + Fraction(2 * n1 * n2, n1 * n1 + n2 * n2)
    )
    degenerate = min(a, b) == 0
    notes = (
        f"rational: {value.is_rational}; biregular: {is_biregular(g)}"
        + ("; degenerate: a center has no leaves (graph is a star)" if degenerate else "")
    )
    report = exact_report(check_id, "==", value, closed, notes=notes)
    holds = report.equality and value.is_rational and (degenerate or not is_biregular(g))
    return replace(report, holds=holds, preconditions_met=not degenerate)


def check_complete_bipartite_integer(k: int) -> CheckReport:
    """K(5k,20k): GA1 is exactly the integer 80*k^2 although the graph is
    not regular."""
    check_id = "complete_bipartite_integer"
    if k < 1:
        raise ValueError("k must be a positive integer")
    if k > _BIPARTITE_K_MAX:
        raise ValueError(f"k={k} exceeds the size guard {_BIPARTITE_K_MAX}")
    g = complete_bipartite_graph(5 * k, 20 * k)
    value = ga1(g).exact
    assert value is not None
    kind = classify(g).kind
    notes = (
        f"integer: {value.is_integer}; classified: {kind.value}; "
        f"regular: {is_regular(g)}"
    )
    report = exact_report(check_id, "==", value, RadicalNumber(80 * k * k), notes=notes)
    holds = (
        report.equality
        and value.is_integer
        and kind is GraphKind.COMPLETE_BIPARTITE
        and not is_regular(g)
    )
    return replace(report, holds=holds)


# -- extremal search -------------------------------------------------------------


def extremal_search(
    n: int, m: int, objective: str
) -> list[tuple[Graph, RadicalNumber]]:
    """Exhaustive optimum of GA1 over connected graphs with given (n, m).

    Returns every optimal graph (exact ties included) with its exact value.
    """
    if objective not in ("min", "max"):
        raise ValueError("objective must be 'min' or 'max'")
    if not (n - 1 <= m <= n * (n - 1) // 2):
        raise ValueError(f"no connected graph has n={n}, m={m}")
    candidates = [g for g in enumerate_connected(n) if g.m == m]
    if not candidates:
        raise ValueError(f"no connected graph has n={n}, m={m}")
    values = []
    for g in candidates:
        value = ga1(g).exact
        assert value is not None
        values.append((g, value))
    best = values[0][1]
    for _, value in values[1:]:
        cmp = compare(value, best)
        if (objective == "min" and cmp < 0) or (objective == "max" and cmp > 0):
            best = value
    return [(g, value) for g, value in values if compare(value, best) == 0]


# -- random generation ------------------------------------------------------------


def random_connected(rng: random.Random, n_high: int = 12) -> Graph:
    """Seeded random connected graph on 3..n_high vertices via edge
    probability, retried until connected (with a spanning-tree fallback so it
    always terminates).  n_high is checked before any draw."""
    if not 3 <= n_high <= _RANDOM_MAX_N:
        raise ValueError(
            f"random graphs need 3 <= n_high <= {_RANDOM_MAX_N} "
            f"(MAX_EDGES = {MAX_EDGES}), got {n_high}"
        )
    n = rng.randint(3, n_high)
    p = rng.uniform(0.25, 0.75)
    for _ in range(100):
        pairs = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        g = from_edge_list(n, pairs)
        if g.is_connected:
            return g
    pairs = [(rng.randrange(i), i) for i in range(1, n)]
    extra = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return from_edge_list(n, pairs + extra)


# -- census -----------------------------------------------------------------------


def census_rows(n: int) -> list[dict[str, object]]:
    """Per-class census rows for order n, ready for CSV output."""
    rows = []
    for g in enumerate_connected(n):
        value = ga1(g) if g.m else None
        # A representative is graph_from_key(n, key) for its lexmin key, so
        # its own upper triangle, column by column, is its canonical_form.
        edges = set(g.edges)
        bits = "".join("01"[(j, k) in edges] for k in range(1, n) for j in range(k))
        rows.append(
            {
                "canonical_form": f"{n}:{bits}",
                "name": graph_name(g) or "",
                "n": g.n,
                "m": g.m,
                "ga1_exact": "" if value is None else str(value.exact),
                "ga1_float": "" if value is None else repr(value.approx),
            }
        )
    return rows
