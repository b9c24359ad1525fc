"""Simple undirected graphs on dense integer vertices, with small-n tooling.

Graphs are immutable after construction; every operation returns a new value.
Vertex labels are always 0..n-1.  Canonical forms are exact (minimum
upper-triangle adjacency bitstring over all relabelings) and therefore decide
isomorphism, but only for small orders.
"""

from __future__ import annotations

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
    "minimal_edges",
    "delete_edge",
    "classify",
    "graph_name",
    "canonical_key",
    "canonical_form",
    "format_key",
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

    def has_edge(self, u: int, v: int) -> bool:
        """Adjacency lookup in the lower-degree endpoint's neighbor list."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            return False
        if self.deg[u] > self.deg[v]:
            u, v = v, u
        return v in self.adj[u]

    @property
    def is_connected(self) -> bool:
        return len(components(self)) <= 1

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


def minimal_edges(g: Graph) -> list[Edge]:
    """The edges for which :func:`is_minimal_edge` holds, in ``g.edges`` order.

    One pass counts each vertex's neighbors of lower degree; ``uv`` is
    minimal when ``v`` is the only such neighbor of ``u`` or there is none,
    and symmetrically for ``v``.
    """
    deg = g.deg
    lower = [sum(deg[w] < d for w in g.adj[x]) for x, d in enumerate(deg)]
    return [
        (u, v)
        for u, v in g.edges
        if lower[u] == (deg[v] < deg[u]) and lower[v] == (deg[u] < deg[v])
    ]


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
    """A structural class; ``name`` is the conventional name, if any, and is
    left out of equality and hashing."""

    kind: GraphKind
    params: tuple[int, ...]
    name: str | None = field(default=None, compare=False)

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


def is_path_component(g: Graph) -> bool:
    """A path, for a graph known to be connected, such as one of
    :func:`components`: n - 1 edges and no degree above 2, without a search."""
    return g.n >= 2 and g.m == g.n - 1 and g.max_degree <= 2


def is_star(g: Graph) -> bool:
    """Star on n >= 2 vertices (a single edge counts: it is the 2-vertex star).

    A vertex of degree n - 1 reaches every other, so no search is needed.
    """
    return g.n >= 2 and g.m == g.n - 1 and g.max_degree == g.n - 1


def classify(g: Graph) -> GraphClass:
    """Most specific structural class and its conventional name (P5, C4, S5,
    DS1,2, K2,3, K4, K3,3, paw), for reporting.

    Named shapes win over the generic regular/biregular kinds, except that a
    regular graph is never reported as complete bipartite.  Disconnected
    graphs get ``OTHER`` (component classes are available via
    :func:`components`).  Connectivity is the only search; every other shape
    is read off n, m and the degrees.
    """
    n, m, deg = g.n, g.m, g.deg
    if n < 2 or not g.is_connected:
        return GraphClass(GraphKind.OTHER, ())
    if is_path_component(g):
        return GraphClass(GraphKind.PATH, (n,), f"P{n}")
    if is_star(g):
        return GraphClass(GraphKind.STAR, (n,), f"S{n}")
    if m == n - 1:  # a tree
        # The non-leaves of a tree span a tree, so two that are the only
        # ones are adjacent.
        centers = sorted(d - 1 for d in deg if d >= 2)
        if len(centers) == 2:
            a, b = centers
            return GraphClass(GraphKind.DOUBLE_STAR, (a, b), f"DS{a},{b}")
    hi, lo = g.max_degree, g.min_degree
    if hi == lo:
        if hi == 2:
            return GraphClass(GraphKind.CYCLE, (n,), f"C{n}")
        name = None
        if hi == n - 1:
            name = f"K{n}"
        elif 2 * hi == n:
            # With A the non-neighbours of 0 (0 included) and B = N(0), let
            # every b in B have N(b) = A.  Then B is independent, and each
            # vertex of A sees all of B, which is its whole degree |B| = n/2,
            # so A is independent too: the graph is K(A, B) = K(n/2, n/2).
            outside = set(range(n)).difference(g.adj[0])
            if all(set(g.adj[b]) == outside for b in g.adj[0]):
                name = f"K{hi},{hi}"
        return GraphClass(GraphKind.REGULAR, (hi,), name)
    if is_biregular(g):
        # Every edge joins the two degree classes, so the graph is bipartite
        # between them, and complete exactly when m is their product.
        if m == deg.count(hi) * deg.count(lo):
            return GraphClass(GraphKind.COMPLETE_BIPARTITE, (lo, hi), f"K{lo},{hi}")
        return GraphClass(GraphKind.BIREGULAR, (hi, lo))
    name = "paw" if n == 4 and m == 4 and sorted(deg) == [1, 2, 2, 3] else None
    return GraphClass(GraphKind.OTHER, (), name)


def graph_name(g: Graph) -> str | None:
    """Conventional name (P5, C4, S5, DS1,2, K2,3, K4, K3,3, paw) if
    recognized: the ``name`` of :func:`classify`."""
    return classify(g).name


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

    A candidate is cut on all of its coming columns before the search
    enters it.  Placed at position ``at - 1``, it leaves cells that fill
    positions ``at``, ``at + 1``, ... in order, since the next vertex always
    comes from the first cell and splitting keeps the order.  So the column
    at ``at + j`` is its cell's column ``col`` followed by ``j`` bits still
    unknown, and at least ``col << j``.  If these least columns, compared in
    turn with the best key's, reach one that is larger before one that is
    smaller, every labeling below the candidate is larger than the best key,
    and if they tie all the way none is smaller either: the candidate is
    cut.  The first descent, which sets the first best key, starts each
    position with the candidate that has the fewest neighbours in the first
    cell, so that zero bits come early and the later cuts come sooner.
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
                mv = masks[first.bit_length() - 1]
                child = []
                for col, cell in cells[1:]:
                    low = cell & ~mv
                    if low:
                        child.append((col << 1, low))
                    if low != cell:
                        child.append((col << 1 | 1, cell ^ low))
                cells = child
                continue
            rest = cells[1:]
            head = cmin << 1
            at = len(prefix)
            # Twins (same open or closed neighborhood) are interchangeable by
            # an automorphism fixing everything else; explore one of each.
            # ``twins`` holds open masks and complemented, so negative, closed ones.
            twins: set[int] = set()
            candidates = first
            lead = 0
            if not tied:
                # The first descent leads with the candidate that has the
                # fewest neighbours in the first cell, so that its child's
                # head cell is the largest.
                fewest = n
                while candidates:
                    bit = candidates & -candidates
                    candidates ^= bit
                    k = (masks[bit.bit_length() - 1] & first).bit_count()
                    if k < fewest:
                        fewest, lead = k, bit
                candidates = first
            while candidates:
                bit = lead or candidates & -candidates
                lead = 0
                candidates ^= bit
                mv = masks[bit.bit_length() - 1]
                closed = ~(mv | bit)
                if mv in twins or closed in twins:
                    continue
                twins.add(mv)
                twins.add(closed)
                left = first ^ bit  # nonempty, as ``first`` has two members
                low = left & ~mv
                child = [(head, low)] if low else []
                if low != left:
                    child.append((head | 1, left ^ low))
                for col, cell in rest:
                    low = cell & ~mv
                    if low:
                        child.append((col << 1, low))
                    if low != cell:
                        child.append((col << 1 | 1, cell ^ low))
                if tied:
                    # Compare the least column at each coming position, the
                    # cell's column ``c`` shifted past the bits still unknown,
                    # with ``best``: cut at the first larger one, or when all
                    # tie, and search the child at the first smaller one.
                    k = at
                    for c, part in child:
                        c <<= k - at
                        b = best[k]
                        while c == b:
                            k += 1
                            part &= part - 1
                            if not part:
                                break
                            c <<= 1
                            b = best[k]
                        else:
                            break
                    else:
                        continue
                    if c > b:
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
    return format_key(g.n, canonical_key(g))


def format_key(n: int, key: tuple[int, ...]) -> str:
    """The order and a :func:`canonical_key`'s columns as one bitstring."""
    bits = "".join(format(col, f"0{k}b") for k, col in enumerate(key, start=1))
    return f"{n}:{bits}"


def graph_from_key(n: int, key: tuple[int, ...]) -> Graph:
    """Decode a :func:`canonical_key`: the representative whose key is ``key``.

    Bit ``v-1-u`` of column ``v`` (entry ``v-1``) is the edge ``uv``, so
    reading row by row gives the sorted edges :class:`Graph` takes.
    """
    return Graph(n, tuple(
        (u, v) for u in range(n) for v in range(u + 1, n) if key[v - 1] >> (v - 1 - u) & 1
    ))


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
