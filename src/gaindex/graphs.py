"""Simple undirected graphs on dense integer vertices, with small-n tooling.

Graphs are immutable after construction; every operation returns a new value.
Vertex labels are always 0..n-1.  Canonical forms are exact (minimum
upper-triangle adjacency bitstring over all relabelings) and therefore decide
isomorphism, but only for small orders.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

__all__ = [
    "Graph",
    "GraphKind",
    "GraphClass",
    "from_edge_list",
    "components",
    "is_nontrivial",
    "is_minimal_edge",
    "delete_edge",
    "classify",
    "graph_name",
    "canonical_key",
    "canonical_form",
    "graph_from_key",
    "is_isomorphic",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "double_star_graph",
    "complete_graph",
    "complete_bipartite_graph",
    "paw_graph",
]

CANONICAL_MAX_N = 9

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """A finite simple graph; vertices are 0..n-1, edges sorted and distinct,
    each stored with u < v.

    ``adj`` (sorted neighbor tuples) and ``deg`` are derived from ``edges``.
    """

    n: int
    edges: tuple[Edge, ...]
    adj: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    deg: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.n
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        edges = tuple(self.edges)  # a list of edges would break == and hash
        neigh: list[list[int]] = [[] for _ in range(n)]
        prev: Edge = (-1, -1)
        for e in edges:
            u, v = e
            if not 0 <= u < v < n:
                raise ValueError(f"edge {e} is not a pair with 0 <= u < v < n={n}")
            if e <= prev:
                raise ValueError(f"edges must be sorted and distinct: {e} follows {prev}")
            # Sorted edges list each vertex's smaller neighbors in order,
            # then its larger ones, so every neighbor list comes out sorted.
            neigh[u].append(v)
            neigh[v].append(u)
            prev = e
        adj = tuple(map(tuple, neigh))
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "deg", tuple(map(len, adj)))

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def max_degree(self) -> int:
        return max(self.deg, default=0)

    @property
    def min_degree(self) -> int:
        return min(self.deg, default=0)

    @property
    def isolated_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if self.deg[v] == 0)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        """Adjacency lookup in the lower-degree endpoint's neighbor list."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            return False
        if self.deg[u] > self.deg[v]:
            u, v = v, u
        return v in self.adj[u]

    @property
    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = {0}
        stack = [0]
        while stack:
            for w in self.adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def __str__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges)})"


def from_edge_list(n: int, pairs: list[Edge] | tuple[Edge, ...]) -> Graph:
    """Build a graph from (possibly repeated) vertex pairs.

    Duplicate pairs collapse to a single edge; self-loops and out-of-range
    vertices are rejected.
    """
    edge_set: set[Edge] = set()
    for u, v in pairs:
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) is not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        edge_set.add((u, v) if u < v else (v, u))
    return Graph(n, tuple(sorted(edge_set)))


def components(g: Graph) -> list[Graph]:
    """Connected components as standalone graphs (vertices relabeled in order).

    Isolated vertices come back as single-vertex components, so callers can
    reject edgeless pieces explicitly.  A connected graph is its own single
    component and comes back as itself.
    """
    seen = [False] * g.n
    out: list[Graph] = []
    for start in range(g.n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        stack = [start]
        while stack:
            for w in g.adj[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        if len(comp) == g.n:
            return [g]
        comp.sort()
        out.append(induced_subgraph(g, comp))
    return out


def induced_subgraph(g: Graph, vertices: list[int]) -> Graph:
    """Subgraph induced by ``vertices``, relabeled 0..k-1 in the given order."""
    index = {v: i for i, v in enumerate(vertices)}
    keep = set(vertices)
    pairs = [
        (index[u], index[v]) for u, v in g.edges if u in keep and v in keep
    ]
    return from_edge_list(len(vertices), pairs)


def is_nontrivial(g: Graph) -> bool:
    """True when every connected component has at least two edges: no vertex
    is isolated and no edge is alone, with both endpoints of degree 1."""
    return 0 not in g.deg and all(g.deg[u] + g.deg[v] > 2 for u, v in g.edges)


def _norm_edge(e: Edge) -> Edge:
    u, v = e
    return (u, v) if u < v else (v, u)


def is_minimal_edge(g: Graph, e: Edge) -> bool:
    """An edge both of whose endpoint degrees are minimal in their neighborhoods.

    Formally ``uv`` with ``deg(u) <= deg(w)`` for every other neighbor ``w`` of
    ``u`` and symmetrically for ``v``; either condition may hold vacuously.
    """
    u, v = _norm_edge(e)
    if not g.has_edge(u, v):
        raise ValueError(f"edge ({u}, {v}) not in graph")
    for a, b in ((u, v), (v, u)):
        for w in g.adj[a]:
            if w != b and g.deg[a] > g.deg[w]:
                return False
    return True


def delete_edge(g: Graph, e: Edge) -> Graph:
    """Remove one edge, keeping the vertex set (isolated vertices remain)."""
    u, v = _norm_edge(e)
    if not g.has_edge(u, v):
        raise ValueError(f"edge ({u}, {v}) not in graph")
    return from_edge_list(g.n, [p for p in g.edges if p != (u, v)])


# -- structural classification -------------------------------------------


class GraphKind(Enum):
    REGULAR = "regular"
    BIREGULAR = "biregular"
    PATH = "path"
    CYCLE = "cycle"
    STAR = "star"
    DOUBLE_STAR = "double_star"
    COMPLETE_BIPARTITE = "complete_bipartite"
    OTHER = "other"


@dataclass(frozen=True)
class GraphClass:
    kind: GraphKind
    params: tuple[int, ...]
    degree_class_counts: dict[int, int] = field(compare=False)

    def __str__(self) -> str:
        inner = ",".join(str(p) for p in self.params)
        return f"{self.kind.value}({inner})" if inner else self.kind.value


def is_regular(g: Graph) -> bool:
    return g.n > 0 and g.max_degree == g.min_degree


def is_biregular(g: Graph) -> bool:
    """Exactly two vertex degrees with every edge joining one of each.

    This is the bipartition-free reading of a (max,min)-biregular graph; it
    coincides with the bipartite definition whenever there are no isolated
    vertices, and stays well defined for disconnected graphs.
    """
    degrees = set(g.deg)
    if len(degrees) != 2:
        return False
    hi, lo = max(degrees), min(degrees)
    return all({g.deg[u], g.deg[v]} == {hi, lo} for u, v in g.edges)


def is_path(g: Graph) -> bool:
    return is_path_component(g) and g.is_connected


def is_path_component(g: Graph) -> bool:
    """:func:`is_path` for a graph known to be connected, such as one of
    :func:`components`: n - 1 edges and no degree above 2, without a search."""
    return g.n >= 2 and g.m == g.n - 1 and g.max_degree <= 2


def is_cycle(g: Graph) -> bool:
    return g.n >= 3 and g.is_connected and all(d == 2 for d in g.deg)


def is_star(g: Graph) -> bool:
    """Star on n >= 2 vertices (a single edge counts: it is the 2-vertex star).

    A vertex of degree n - 1 reaches every other, so no search is needed.
    """
    return g.n >= 2 and g.m == g.n - 1 and g.max_degree == g.n - 1


def is_double_star(g: Graph) -> bool:
    """Tree with exactly two adjacent non-leaf vertices (each with >= 1 leaf)."""
    if not (g.n >= 4 and g.is_connected and g.m == g.n - 1):
        return False
    centers = [v for v in range(g.n) if g.deg[v] >= 2]
    return len(centers) == 2 and g.has_edge(centers[0], centers[1])


def _bipartition(g: Graph) -> tuple[list[int], list[int]] | None:
    color = [-1] * g.n
    sides: tuple[list[int], list[int]] = ([], [])
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        sides[0].append(start)
        stack = [start]
        while stack:
            u = stack.pop()
            for w in g.adj[u]:
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    sides[color[w]].append(w)
                    stack.append(w)
                elif color[w] == color[u]:
                    return None
    return sides


def is_complete_bipartite(g: Graph) -> bool:
    if g.n < 2 or not g.is_connected:
        return False
    sides = _bipartition(g)
    return sides is not None and g.m == len(sides[0]) * len(sides[1])


def classify(g: Graph) -> GraphClass:
    """Most specific structural class, for reporting.

    Named shapes win over the generic regular/biregular kinds, except that a
    regular graph is never reported as complete bipartite.  Predicates such as
    :func:`is_regular` / :func:`is_biregular` are exposed independently, so
    nothing downstream depends on this precedence.  Disconnected graphs get
    ``OTHER`` (component classes are available via :func:`components`).
    """
    counts = dict(Counter(g.deg))
    if not g.is_connected or g.n < 2:
        return GraphClass(GraphKind.OTHER, (), counts)
    if is_path(g):
        return GraphClass(GraphKind.PATH, (g.n,), counts)
    if is_cycle(g):
        return GraphClass(GraphKind.CYCLE, (g.n,), counts)
    if is_star(g):
        return GraphClass(GraphKind.STAR, (g.n,), counts)
    if is_double_star(g):
        centers = sorted(d - 1 for d in g.deg if d >= 2)
        return GraphClass(GraphKind.DOUBLE_STAR, tuple(centers), counts)
    if is_regular(g):
        return GraphClass(GraphKind.REGULAR, (g.max_degree,), counts)
    if is_complete_bipartite(g):
        sides = _bipartition(g)
        assert sides is not None
        p, q = sorted((len(sides[0]), len(sides[1])))
        return GraphClass(GraphKind.COMPLETE_BIPARTITE, (p, q), counts)
    if is_biregular(g):
        return GraphClass(GraphKind.BIREGULAR, (g.max_degree, g.min_degree), counts)
    return GraphClass(GraphKind.OTHER, (), counts)


def graph_name(g: Graph) -> str | None:
    """Conventional name (P5, C4, S5, DS1,2, K2,3, K4, paw) if recognized."""
    cls = classify(g)
    if cls.kind is GraphKind.PATH:
        return f"P{g.n}"
    if cls.kind is GraphKind.CYCLE:
        return f"C{g.n}"
    if cls.kind is GraphKind.STAR:
        return f"S{g.n}"
    if cls.kind is GraphKind.DOUBLE_STAR:
        a, b = cls.params
        return f"DS{a},{b}"
    if cls.kind is GraphKind.COMPLETE_BIPARTITE:
        p, q = cls.params
        return f"K{p},{q}"
    if cls.kind is GraphKind.REGULAR:
        if g.m == g.n * (g.n - 1) // 2:
            return f"K{g.n}"
        if is_complete_bipartite(g):
            half = g.n // 2
            return f"K{half},{half}"
        return None
    if g.n == 4 and g.m == 4 and sorted(g.deg) == [1, 2, 2, 3]:
        return "paw"
    return None


# -- canonical forms -------------------------------------------------------


def canonical_key(g: Graph | list[int]) -> tuple[int, ...]:
    """Minimum column-major upper-triangle encoding over all relabelings.

    ``g`` is a :class:`Graph` or its neighbour bitmasks: bit ``w`` of
    ``g[v]`` is set iff ``vw`` is an edge.  Entry ``k-1`` of the key packs
    the adjacency bits between position ``k`` and positions ``0..k-1``
    (earlier position = more significant bit).  Minimizing this tuple
    lexicographically is exact, so equal keys mean isomorphic graphs.

    The search places one vertex per position, depth first.  The unplaced
    vertices form cells, bitmasks of the vertices that share a column against
    the placed prefix, kept in increasing column order.  Placing ``v`` splits
    each cell into its non-neighbours of ``v`` (column ``col << 1``) and its
    neighbours (``col << 1 | 1``), which keeps the order, so the first cell
    holds the minimum column and only its members can come next.  Of twins
    (equal open or closed neighborhoods) one is tried.  A branch whose prefix
    equals that of the best key found so far is cut as soon as its next
    column is larger than the best key's; a complete labeling that is
    smaller replaces it.  This is branch and bound on the exact minimum, so
    the key is the same as that of a full search.
    """
    if isinstance(g, Graph):
        masks = [0] * g.n
        for u, v in g.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    else:
        masks = g
    n = len(masks)
    if n > CANONICAL_MAX_N:
        raise ValueError(
            "canonical form is exhaustive and limited to "
            f"n <= {CANONICAL_MAX_N}; got n={n}"
        )
    if n <= 1:
        return ()

    best: list[int] = []  # the smallest full column list so far
    prefix: list[int] = []

    def split(cells: list[tuple[int, int]], mv: int) -> list[tuple[int, int]]:
        # The cells after placing a vertex with neighbour mask ``mv``.
        out: list[tuple[int, int]] = []
        for col, cell in cells:
            if cell & ~mv:
                out.append((col << 1, cell & ~mv))
            if cell & mv:
                out.append((col << 1 | 1, cell & mv))
        return out

    def search(cells: list[tuple[int, int]], tied: bool) -> None:
        # ``cells`` are the (column, cell) pairs of the unplaced vertices
        # against ``prefix``; ``tied`` says that ``prefix`` equals the start
        # of ``best``.  A lone candidate is placed in this frame.
        nonlocal best
        depth = len(prefix)
        while True:
            if len(cells) == n - len(prefix):
                # Every cell is a singleton, so the rest of the order is forced.
                placed: list[int] = []
                for col, cell in cells:
                    v = cell.bit_length() - 1
                    mv = masks[v]
                    for u in placed:
                        col = col << 1 | (mv >> u & 1)
                    placed.append(v)
                    if tied:
                        bound = best[len(prefix)]
                        if col > bound:
                            break
                        tied = col == bound
                    prefix.append(col)
                else:
                    if not tied:
                        best = prefix.copy()
                break
            cmin, first = cells[0]
            if tied:
                bound = best[len(prefix)]
                if cmin > bound:
                    break
                tied = cmin == bound
            prefix.append(cmin)
            if first & (first - 1) == 0:
                cells = split(cells[1:], masks[first.bit_length() - 1])
                continue
            rest = cells[1:]
            seen_open: set[int] = set()
            seen_closed: set[int] = set()
            candidates = first
            while candidates:
                bit = candidates & -candidates
                candidates ^= bit
                # Twins (same open or closed neighborhood) are interchangeable
                # by an automorphism fixing everything else; explore one of each.
                mv = masks[bit.bit_length() - 1]
                closed = mv | bit
                if mv in seen_open or closed in seen_closed:
                    continue
                seen_open.add(mv)
                seen_closed.add(closed)
                child = split([(cmin, first ^ bit), *rest], mv)
                if tied and child[0][0] > best[len(prefix)]:
                    continue
                search(child, tied)
                # Now ``best`` starts with ``prefix``: either it already did,
                # or the child, never cut, ended on a smaller leaf.
                tied = True
            break
        del prefix[depth:]

    search([(0, (1 << n) - 1)], False)
    return tuple(best[1:])  # position 0 contributes no bits


def canonical_form(g: Graph) -> str:
    """Canonical key rendered as a bitstring, prefixed by the order."""
    key = canonical_key(g)
    bits = "".join(format(col, f"0{k}b") for k, col in enumerate(key, start=1))
    return f"{g.n}:{bits}"


def graph_from_key(n: int, key: tuple[int, ...]) -> Graph:
    """Decode a :func:`canonical_key`: the representative whose key is ``key``."""
    pairs = []
    for k, col in enumerate(key, start=1):
        for j in range(k):
            if (col >> (k - 1 - j)) & 1:
                pairs.append((j, k))
    return from_edge_list(n, pairs)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.m != h.m:
        return False
    return canonical_key(g) == canonical_key(h)


# -- named families ---------------------------------------------------------


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("a path needs at least one vertex")
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least three vertices")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """Star on ``n`` vertices: center 0 joined to the other n-1 vertices."""
    if n < 2:
        raise ValueError("a star needs at least two vertices")
    return from_edge_list(n, [(0, i) for i in range(1, n)])


def double_star_graph(a: int, b: int) -> Graph:
    """Adjacent centers 0 and 1 carrying ``a`` and ``b`` pendant leaves."""
    if a < 0 or b < 0:
        raise ValueError("leaf counts must be nonnegative")
    pairs: list[Edge] = [(0, 1)]
    nxt = 2
    for _ in range(a):
        pairs.append((0, nxt))
        nxt += 1
    for _ in range(b):
        pairs.append((1, nxt))
        nxt += 1
    return from_edge_list(nxt, pairs)


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("need at least one vertex")
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite_graph(p: int, q: int) -> Graph:
    if p < 1 or q < 1:
        raise ValueError("both sides need at least one vertex")
    return from_edge_list(p + q, [(i, p + j) for i in range(p) for j in range(q)])


def paw_graph() -> Graph:
    """Triangle with one pendant edge."""
    return from_edge_list(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
