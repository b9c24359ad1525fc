"""Isomorph-free generation of small connected graphs and extremal sweeps.

Generation is exact: one canonical representative per isomorphism class.
Each order grows from the classes one vertex smaller by joining a new vertex
to a nonempty set of old ones (to a single one for trees), deduplicating with
canonical keys.  This reaches everything because every connected graph on
n >= 2 vertices has a vertex whose removal leaves it connected, such as a
leaf of a spanning tree.  Of the join sets that an automorphism of the
parent maps onto each other only one is tried, and a child is keyed only
when a cheap degree invariant says its new vertex could be the one chosen
for removal (a canonical construction path filter).  That leaves about 1.05
keys per class at n = 7 and 8.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .formats import MAX_EDGES
from .graphs import (
    Graph,
    canonical_key,
    canonical_form,
    cycle_graph,
    double_star_graph,
    from_edge_list,
    graph_from_key,
    graph_name,
    is_nontrivial,
    path_graph,
    paw_graph,
    star_graph,
)
from .indices import ga1
from .linegraph import GraphFacts, line_graph
from .radicals import RadicalNumber, compare

__all__ = [
    "ENUMERATION_MAX_N",
    "Bucket",
    "BucketMember",
    "enumerate_connected",
    "enumerate_trees",
    "validate_order",
    "connected_with_edges",
    "connected_nontrivial",
    "classify_small_values",
    "classify_line_small_values",
    "expected_small_value_families",
    "expected_line_small_value_families",
    "buckets_match_families",
    "line_graph_preimages",
    "verify_no_preimage",
    "extremal_search",
    "validate_random_order",
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
    takes about 0.1 s and n = 8 (11,117 classes) about 3 s, both on 2 cores
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

    Of the join sets of one parent P, only the first of each orbit of P's
    automorphism group is tried (B. D. McKay, "Isomorph-free exhaustive
    generation", J. Algorithms 26, 1998).  This loses no class either:
    extending any sigma in Aut(P) by new -> new is an isomorphism from the
    child of S onto the child of sigma(S), and the filter is invariant under
    isomorphism, so the two children pass or fail together and give one key.
    """
    if n == 1:
        return (from_edge_list(1, []),)
    new = n - 1
    bit = 1 << new
    found: set[tuple[int, ...]] = set()
    for g in _augmented_classes(new, trees=trees):
        old_masks = [sum(1 << w for w in nbrs) for nbrs in g.adj]
        images = [_join_images(sigma) for sigma in _automorphism_generators(old_masks)]
        tried = bytearray(bit)
        for joined in [1 << v for v in range(new)] if trees else range(1, bit):
            if tried[joined]:
                continue
            if images:
                # Mark the whole orbit of this join set as tried.
                orbit = [joined]
                tried[joined] = 1
                while orbit:
                    s = orbit.pop()
                    for image in images:
                        t = image[s]
                        if not tried[t]:
                            tried[t] = 1
                            orbit.append(t)
            masks = [m | bit if joined >> v & 1 else m for v, m in enumerate(old_masks)]
            masks.append(joined)
            if _new_vertex_is_minimal(masks):
                found.add(canonical_key(masks))
    # A key has one bit per edge, so its popcount is m.
    ordered = sorted(found, key=lambda key: (sum(map(int.bit_count, key)), key))
    return tuple(graph_from_key(n, key) for key in ordered)


def _automorphism_generators(masks: list[int]) -> list[tuple[int, ...]]:
    """Generators of the automorphism group of the graph with neighbour
    bitmasks ``masks``, as image tuples; none for a trivial group.

    Down the stabilizer chain: for k = n-1 to 0, and for each w > k not yet
    in k's orbit under the generators found so far (each fixes 0..k-1), a
    backtrack looks for one automorphism that fixes 0..k-1 and maps k to w.
    The generators found at k and above then carry k onto every vertex an
    automorphism fixing 0..k-1 can, and so generate that whole stabilizer.
    """
    n = len(masks)
    deg = [mask.bit_count() for mask in masks]
    everyone = (1 << n) - 1
    gens: list[tuple[int, ...]] = []

    def extend(image: list[int], used: int, choices: int) -> bool:
        # Map vertex len(image) to one of ``choices``, then the rest, so that
        # adjacency to every vertex already mapped is kept.
        v = len(image)
        if v == n:
            return True
        want = 0
        for x in range(v):
            if masks[v] >> x & 1:
                want |= 1 << image[x]
        while choices:
            low = choices & -choices
            choices ^= low
            u = low.bit_length() - 1
            if deg[u] == deg[v] and masks[u] & used == want:
                image.append(u)
                if extend(image, used | low, everyone & ~(used | low)):
                    return True
                image.pop()
        return False

    for k in range(n - 1, -1, -1):
        orbit = 1 << k
        for w in range(k + 1, n):
            if orbit >> w & 1:
                continue
            image = list(range(k))
            if extend(image, (1 << k) - 1, 1 << w):
                gens.append(tuple(image))
                # Close k's orbit under the generators found so far.
                frontier = orbit
                while frontier:
                    low = frontier & -frontier
                    frontier ^= low
                    x = low.bit_length() - 1
                    for sigma in gens:
                        if not orbit >> sigma[x] & 1:
                            orbit |= 1 << sigma[x]
                            frontier |= 1 << sigma[x]
    return gens


def _join_images(sigma: tuple[int, ...]) -> list[int]:
    """``sigma``'s image of every subset of its vertices, as bitmasks: each
    set's image is that of the set without its lowest bit, plus one bit."""
    images = [0] * (1 << len(sigma))
    for s in range(1, len(images)):
        low = s & -s
        images[s] = images[s ^ low] | 1 << sigma[low.bit_length() - 1]
    return images


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


def validate_order(n_max: int) -> None:
    """Raise ``ValueError`` if ``connected_with_edges(n_max)`` would refuse
    n_max; nothing is enumerated.  Below order 2 no graph has an edge."""
    if n_max < 2:
        raise ValueError(f"order {n_max} is below 2, the least order with an edge")
    if n_max > ENUMERATION_MAX_N:
        raise ValueError(f"order {n_max} exceeds ENUMERATION_MAX_N = {ENUMERATION_MAX_N}")


def connected_with_edges(n_max: int) -> list[Graph]:
    """All connected graphs with at least one edge and order up to n_max."""
    validate_order(n_max)
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
    graphs = connected_nontrivial(n_max)
    return _bucketize([(g, GraphFacts(g).line.ga1) for g in graphs])


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


def validate_random_order(n_high: int) -> None:
    """Raise ``ValueError`` if ``random_connected`` would refuse n_high; no
    graph is drawn."""
    if not 3 <= n_high <= _RANDOM_MAX_N:
        raise ValueError(
            f"random graphs need 3 <= n_high <= {_RANDOM_MAX_N} "
            f"(MAX_EDGES = {MAX_EDGES}), got {n_high}"
        )


def random_connected(rng: random.Random, n_high: int = 12) -> Graph:
    """Seeded random connected graph on 3..n_high vertices via edge
    probability, retried until connected (with a spanning-tree fallback so it
    always terminates).  n_high is checked before any draw."""
    validate_random_order(n_high)
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
