"""Graph construction, classification, canonical forms, and text formats."""

from __future__ import annotations

import hashlib
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaindex.enumeration import enumerate_connected
from gaindex.formats import (
    Graph6Error,
    iter_graph6,
    parse_graph6,
    parse_graph_spec,
    read_edge_list,
    to_graph6,
    write_edge_list,
)
from gaindex.graphs import (
    CANONICAL_MAX_N,
    Graph,
    GraphKind,
    canonical_form,
    canonical_key,
    classify,
    complete_bipartite_graph,
    complete_graph,
    components,
    cycle_graph,
    delete_edge,
    double_star_graph,
    from_edge_list,
    graph_name,
    is_biregular,
    is_isomorphic,
    is_minimal_edge,
    is_nontrivial,
    is_regular,
    is_star,
    path_graph,
    paw_graph,
    star_graph,
)
from graph_helpers import add_edge, canonical_graph, disjoint_union, relabel, strip_isolated

try:
    import networkx as nx
except ImportError:  # pragma: no cover
    nx = None


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edge_list(n, pairs)


def reference_canonical_key(g: Graph) -> tuple[int, ...]:
    """Oracle for :func:`canonical_key` without its bound: at each position
    rebuild every remaining vertex's column against the chosen prefix,
    recurse into each minimum-column vertex (one per twin class) and keep the
    smallest suffix."""
    n = g.n
    if n <= 1:
        return ()
    masks = [0] * n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u

    def best_suffix(chosen: list[int], remaining: list[int]) -> list[int]:
        if not remaining:
            return []
        k = len(chosen)
        scored: list[tuple[int, int]] = []
        for v in remaining:
            col = 0
            for j, u in enumerate(chosen):
                if (masks[v] >> u) & 1:
                    col |= 1 << (k - 1 - j)
            scored.append((col, v))
        cmin = min(c for c, _ in scored)
        best: list[int] | None = None
        seen_open: set[int] = set()
        seen_closed: set[int] = set()
        for col, v in scored:
            if col != cmin:
                continue
            if masks[v] in seen_open or masks[v] | (1 << v) in seen_closed:
                continue
            seen_open.add(masks[v])
            seen_closed.add(masks[v] | (1 << v))
            chosen.append(v)
            suffix = best_suffix(chosen, [w for w in remaining if w != v])
            chosen.pop()
            if best is None or suffix < best:
                best = suffix
        assert best is not None
        return [cmin] + best

    return tuple(best_suffix([], list(range(n)))[1:])


def brute_force_isomorphic(g: Graph, h: Graph) -> bool:
    """Independent oracle: try every vertex bijection."""
    if g.n != h.n or sorted(g.deg) != sorted(h.deg):
        return False
    h_edges = set(h.edges)
    for perm in permutations(range(g.n)):
        mapped = {
            tuple(sorted((perm[u], perm[v]))) for u, v in g.edges
        }
        if mapped == h_edges:
            return True
    return False


class TestConstruction:
    def test_smallest_edge(self):
        g = from_edge_list(2, [(0, 1)])
        assert g.m == 1 and g.n == 2

    def test_cycle_degrees(self):
        g = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert all(d == 2 for d in g.deg)

    def test_duplicates_collapse(self):
        g = from_edge_list(3, [(0, 1), (0, 1)])
        assert g.m == 1

    def test_reversed_pair_is_same_edge(self):
        g = from_edge_list(3, [(1, 0), (0, 1)])
        assert g.m == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            from_edge_list(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            from_edge_list(3, [(0, 3)])

    @pytest.mark.parametrize(
        "edges",
        [((1, 2), (0, 1)), ((0, 1), (0, 1)), ((1, 0),), ((1, 1),), ((0, 3),), ((-1, 0),)],
        ids=["unsorted", "duplicated", "reversed", "self_loop", "out_of_range", "negative"],
    )
    def test_constructor_rejects_inconsistent_edges(self, edges):
        with pytest.raises(ValueError):
            Graph(3, edges)

    def test_constructor_derives_adjacency_and_degrees(self):
        g = Graph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))
        assert g == paw_graph()
        assert g.adj == ((1, 2), (0, 2), (0, 1, 3), (2,))
        assert g.deg == (2, 2, 3, 1)
        assert Graph(4, list(g.edges)) == g
        with pytest.raises(TypeError):
            Graph(2, ((0, 1),), adj=((1,), (0,)), deg=(1, 1))
        with pytest.raises(ValueError, match="nonnegative"):
            Graph(-1, ())

    def test_handshake_random(self):
        rng = random.Random(11)
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 10))
            assert sum(g.deg) == 2 * g.m

    def test_has_edge_matches_edge_list(self):
        rng = random.Random(15)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 8))
            for u in range(-1, g.n + 1):
                for v in range(-1, g.n + 1):
                    assert g.has_edge(u, v) == (tuple(sorted((u, v))) in g.edges)


class TestComponents:
    def test_two_components(self):
        g = disjoint_union(cycle_graph(3), path_graph(2))
        comps = components(g)
        assert len(comps) == 2
        assert sorted(c.n for c in comps) == [2, 3]

    def test_connected_graph_single(self):
        g = cycle_graph(4)
        assert len(components(g)) == 1

    @pytest.mark.parametrize("g", [path_graph(1), path_graph(2), complete_graph(4)])
    def test_connected_graph_is_its_own_component(self, g):
        # Returned as itself, not rebuilt as a relabeled copy.
        assert components(g)[0] is g

    def test_isolated_vertex_flagged(self):
        g = from_edge_list(3, [(0, 1)])
        assert g.isolated_vertices == (2,)
        assert len(components(g)) == 2

    def test_strip_isolated(self):
        g = from_edge_list(4, [(1, 3)])
        assert strip_isolated(g).n == 2


class TestNontrivial:
    def test_single_edge_false(self):
        assert not is_nontrivial(path_graph(2))

    def test_two_edge_path_true(self):
        assert is_nontrivial(path_graph(3))

    def test_mixed_union_false(self):
        assert not is_nontrivial(disjoint_union(cycle_graph(3), path_graph(2)))

    def test_matches_component_edge_counts(self):
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randint(0, 8)
            pairs = [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3
            ]
            g = from_edge_list(n, pairs)
            assert is_nontrivial(g) == all(c.m >= 2 for c in components(g))


class TestMinimalEdge:
    def naive_minimal(self, g: Graph, e) -> bool:
        u, v = e
        ok_u = all(g.deg[u] <= g.deg[w] for w in g.adj[u] if w != v)
        ok_v = all(g.deg[v] <= g.deg[w] for w in g.adj[v] if w != u)
        return ok_u and ok_v

    def test_cycle_edges_minimal(self):
        g = cycle_graph(4)
        assert all(is_minimal_edge(g, e) for e in g.edges)

    def test_path4_middle_not_minimal(self):
        g = path_graph(4)
        assert not is_minimal_edge(g, (1, 2))

    def test_path4_end_minimal(self):
        g = path_graph(4)
        assert is_minimal_edge(g, (0, 1))

    def test_missing_edge_rejected(self):
        with pytest.raises(ValueError):
            is_minimal_edge(path_graph(3), (0, 2))

    @pytest.mark.parametrize("edge", [(0, 3), (-1, 0), (2, 7)])
    def test_out_of_range_edge_rejected(self, edge):
        with pytest.raises(ValueError):
            is_minimal_edge(path_graph(3), edge)

    def test_min_degree_endpoints_always_minimal(self):
        rng = random.Random(5)
        for _ in range(100):
            g = random_graph(rng, rng.randint(2, 8))
            small = g.min_degree if g.m else None
            for e in g.edges:
                u, v = e
                if g.deg[u] == g.deg[v] == small:
                    assert is_minimal_edge(g, e)

    def test_agrees_with_naive_definition(self):
        rng = random.Random(6)
        for _ in range(200):
            g = random_graph(rng, rng.randint(2, 8))
            for e in g.edges:
                assert is_minimal_edge(g, e) == self.naive_minimal(g, e)


class TestDeleteEdge:
    def test_cycle_minus_edge_is_path(self):
        assert is_isomorphic(delete_edge(cycle_graph(4), (0, 1)), path_graph(4))

    def test_single_edge_leaves_isolated(self):
        g = delete_edge(path_graph(2), (0, 1))
        assert g.isolated_vertices == (0, 1)

    def test_triangle_minus_edge_is_path(self):
        assert is_isomorphic(delete_edge(cycle_graph(3), (0, 1)), path_graph(3))

    def test_missing_edge_rejected(self):
        with pytest.raises(ValueError):
            delete_edge(path_graph(3), (0, 2))

    @pytest.mark.parametrize("edge", [(0, 3), (-1, 0), (2, 7)])
    def test_out_of_range_edge_rejected(self, edge):
        with pytest.raises(ValueError):
            delete_edge(path_graph(3), edge)

    def test_delete_then_readd_is_identity_up_to_iso(self):
        rng = random.Random(12)
        for _ in range(50):
            g = random_graph(rng, rng.randint(2, 7))
            if not g.edges:
                continue
            e = rng.choice(g.edges)
            again = add_edge(delete_edge(g, e), *e)
            assert canonical_key(again) == canonical_key(g)


class TestCanonicalForm:
    def test_permutation_invariance(self):
        rng = random.Random(99)
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 7))
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(relabel(g, perm)) == canonical_form(g)

    def test_p3_vs_triangle_differ(self):
        assert canonical_form(path_graph(3)) != canonical_form(cycle_graph(3))

    def test_c4_vs_paw_differ(self):
        # Same order and size; the brute-force oracle confirms non-isomorphism.
        assert not brute_force_isomorphic(cycle_graph(4), paw_graph())
        assert canonical_form(cycle_graph(4)) != canonical_form(paw_graph())

    def test_matches_brute_force_oracle(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(2, 5)
            g, h = random_graph(rng, n), random_graph(rng, n)
            assert (canonical_key(g) == canonical_key(h)) == brute_force_isomorphic(
                g, h
            )

    def test_key_is_true_permutation_minimum(self):
        def brute_min_key(g: Graph) -> tuple[int, ...]:
            edges = set(g.edges)
            best = None
            for order in permutations(range(g.n)):
                cols = []
                for k in range(1, g.n):
                    col = 0
                    for j in range(k):
                        u, v = order[j], order[k]
                        if ((u, v) if u < v else (v, u)) in edges:
                            col |= 1 << (k - 1 - j)
                    cols.append(col)
                t = tuple(cols)
                if best is None or t < best:
                    best = t
            return best or ()

        rng = random.Random(123)
        for _ in range(40):
            n = rng.randint(2, 6)
            g = random_graph(rng, n, p=rng.choice([0.2, 0.5, 0.8]))
            assert canonical_key(g) == brute_min_key(g)

    def test_matches_reference_on_grown_graphs(self):
        # Every graph the enumeration builds for n <= 6: each class one vertex
        # smaller plus a new vertex joined to a nonempty set of old ones.
        checked = 0
        for n in range(2, 7):
            for g in enumerate_connected(n - 1):
                for size in range(1, n):
                    for joined in combinations(range(n - 1), size):
                        new_edges = tuple((v, n - 1) for v in joined)
                        grown = from_edge_list(n, g.edges + new_edges)
                        assert canonical_key(grown) == reference_canonical_key(grown)
                        checked += 1
        assert checked == 1 + 3 + 14 + 90 + 651

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=1, max_value=CANONICAL_MAX_N),
        st.floats(min_value=0.1, max_value=0.9),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_matches_reference_on_random_graphs(self, n, p, seed):
        g = random_graph(random.Random(seed), n, p)
        assert canonical_key(g) == reference_canonical_key(g)

    def test_mask_reads_at_n7(self):
        # The cuts are branch and bound on an exact minimum, so a weaker cut
        # keeps every key and shows only as more work.  Over the 853 classes
        # at n = 7, each relabelled at random, the search reads the neighbour
        # masks 52,450 times; without the within-cell shift of the coming
        # columns it reads 52,456, and shifting one bit less at each cell's
        # first position 66,257.
        reads = 0

        class CountedMasks(list):
            def __getitem__(self, i):
                nonlocal reads
                reads += 1
                return super().__getitem__(i)

        rng = random.Random(1)
        for g in enumerate_connected(7):
            perm = list(range(g.n))
            rng.shuffle(perm)
            masks = [0] * g.n
            for u, v in g.edges:
                masks[perm[u]] |= 1 << perm[v]
                masks[perm[v]] |= 1 << perm[u]
            assert canonical_key(CountedMasks(masks)) == canonical_key(g)
        assert reads <= 52_450

    def test_canonical_graph_is_isomorphic_rep(self):
        rng = random.Random(14)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 7))
            rep = canonical_graph(g)
            assert canonical_key(rep) == canonical_key(g)

    def test_order_limit(self):
        with pytest.raises(ValueError, match="n <= 9"):
            canonical_form(path_graph(10))

    def test_order_limit_on_masks(self):
        with pytest.raises(ValueError, match="n <= 9"):
            canonical_key([0] * 10)

    def test_masks_key_like_graphs_on_grown_graphs(self):
        # Every child the enumeration builds for n <= 7, as the neighbour
        # bitmasks it keys and as the graph they describe.
        checked = 0
        for n in range(2, 8):
            new = n - 1
            for g in enumerate_connected(new):
                old_masks = [sum(1 << w for w in nbrs) for nbrs in g.adj]
                for size in range(1, n):
                    for joined in combinations(range(new), size):
                        masks = old_masks.copy()
                        for v in joined:
                            masks[v] |= 1 << new
                        masks.append(sum(1 << v for v in joined))
                        grown = from_edge_list(n, g.edges + tuple((v, new) for v in joined))
                        assert canonical_key(masks) == canonical_key(grown)
                        checked += 1
        assert checked == 1 + 3 + 14 + 90 + 651 + 7056

    @pytest.mark.parametrize("n", range(1, 10))
    def test_edgeless_and_complete_keys(self, n):
        edgeless = (0,) * (n - 1)
        complete = tuple((1 << k) - 1 for k in range(1, n))
        assert canonical_key(from_edge_list(n, [])) == edgeless
        assert canonical_key([0] * n) == edgeless
        assert canonical_key(complete_graph(n)) == complete
        assert canonical_key([((1 << n) - 1) ^ (1 << v) for v in range(n)]) == complete

    def test_matches_reference_at_the_order_limit(self):
        rng = random.Random(9)
        for _ in range(200):
            g = random_graph(rng, 9, rng.uniform(0.1, 0.9))
            assert canonical_key(g) == reference_canonical_key(g), g

    @pytest.mark.parametrize(
        "name",
        [
            "C9", "K3 box K3", "K3,3,3", "K4,5", "complement of C9",
            "C9(1,2)", "C9(1,3)", "C8", "Q3", "K4,4", "C8(1,4)", "C8(1,2)", "C8(1,3)",
            "complement of C8",
        ],
    )
    def test_symmetric_graphs_at_the_order_limit_keep_their_key(self, name):
        # Vertex- or part-transitive graphs tie the best prefix on many
        # branches, which is where a wrong cut would show; those on 8
        # vertices are of the largest order that enumeration keys.
        def circulant(n: int, *steps: int) -> Graph:
            return from_edge_list(n, [(i, (i + s) % n) for i in range(n) for s in steps])

        pairs = list(combinations(range(9), 2))
        g = {
            "C9": cycle_graph(9),
            "K3 box K3": from_edge_list(
                9, [(u, v) for u, v in pairs if (u // 3 == v // 3) != (u % 3 == v % 3)]
            ),
            "K3,3,3": from_edge_list(9, [(u, v) for u, v in pairs if u // 3 != v // 3]),
            "K4,5": complete_bipartite_graph(4, 5),
            "complement of C9": circulant(9, 2, 3, 4),
            "C9(1,2)": circulant(9, 1, 2),
            "C9(1,3)": circulant(9, 1, 3),
            "C8": cycle_graph(8),
            "Q3": from_edge_list(8, [(u, u ^ b) for u in range(8) for b in (1, 2, 4)]),
            "K4,4": complete_bipartite_graph(4, 4),
            "C8(1,4)": circulant(8, 1, 4),
            "C8(1,2)": circulant(8, 1, 2),
            "C8(1,3)": circulant(8, 1, 3),
            "complement of C8": circulant(8, 2, 3, 4),
        }[name]
        key = canonical_key(g)
        assert key == reference_canonical_key(g)
        assert sum(map(int.bit_count, key)) == g.m
        rng = random.Random(name)
        for _ in range(30):
            assert canonical_key(relabel(g, rng.sample(range(g.n), g.n))) == key


@st.composite
def graph_with_relabelling_and_rival(draw):
    """A graph on at most 7 vertices, a random relabelling of it, and an
    independent random graph of the same order."""
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = list(combinations(range(n), 2))

    def draw_graph() -> Graph:
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return from_edge_list(n, [p for p, k in zip(pairs, keep) if k])

    g = draw_graph()
    perm = draw(st.permutations(range(n)))
    return g, relabel(g, perm), draw_graph()


@pytest.mark.skipif(nx is None, reason="networkx unavailable")
class TestIsomorphismAgainstNetworkx:
    def to_nx(self, g: Graph):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        return h

    @settings(max_examples=300, deadline=None)
    @given(graph_with_relabelling_and_rival())
    def test_is_isomorphic_matches_networkx(self, graphs):
        g, relabelled, rival = graphs
        assert is_isomorphic(g, relabelled)
        assert nx.is_isomorphic(self.to_nx(g), self.to_nx(relabelled))
        expected = nx.is_isomorphic(self.to_nx(g), self.to_nx(rival))
        assert is_isomorphic(g, rival) == expected


class TestClassify:
    def test_cycle(self):
        cls = classify(cycle_graph(4))
        assert cls.kind is GraphKind.CYCLE and cls.params == (4,)

    def test_star_with_counts(self):
        cls = classify(star_graph(4))
        assert cls.kind is GraphKind.STAR and cls.params == (4,)

    def test_complete_bipartite(self):
        cls = classify(complete_bipartite_graph(5, 20))
        assert cls.kind is GraphKind.COMPLETE_BIPARTITE and cls.params == (5, 20)
        g = complete_bipartite_graph(5, 20)
        assert is_biregular(g) and not is_regular(g)
        assert g.max_degree == 20 and g.min_degree == 5

    def test_regular_beats_complete_bipartite(self):
        assert classify(complete_bipartite_graph(3, 3)).kind is GraphKind.REGULAR

    def test_path_and_star_predicates_overlap(self):
        p3 = path_graph(3)
        assert classify(p3).kind is GraphKind.PATH
        assert is_star(p3) and is_biregular(p3)

    def test_single_edge_is_two_vertex_star(self):
        assert is_star(path_graph(2))

    def test_double_star(self):
        cls = classify(double_star_graph(1, 2))
        assert cls.kind is GraphKind.DOUBLE_STAR and cls.params == (1, 2)

    def test_disconnected_is_other(self):
        g = disjoint_union(cycle_graph(3), cycle_graph(3))
        assert classify(g).kind is GraphKind.OTHER

    def test_names(self):
        assert graph_name(path_graph(5)) == "P5"
        assert graph_name(cycle_graph(3)) == "C3"
        assert graph_name(star_graph(6)) == "S6"
        assert graph_name(double_star_graph(1, 2)) == "DS1,2"
        assert graph_name(complete_bipartite_graph(2, 3)) == "K2,3"
        assert graph_name(complete_graph(4)) == "K4"
        assert graph_name(paw_graph()) == "paw"

    def test_class_and_name_pinned(self):
        # Every connected class with n <= 7, then 2,000 seeded random graphs
        # with n <= 10, 1,028 of them disconnected.
        graphs = [g for n in range(1, 8) for g in enumerate_connected(n)]
        rng = random.Random(1)
        for _ in range(2000):
            n = rng.randint(1, 10)
            graphs.append(random_graph(rng, n, rng.uniform(0.05, 0.6)))
        text = "".join(
            f"{to_graph6(g)}|{classify(g)}|{graph_name(g) or ''}\n" for g in graphs
        )
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "a6e83e28107562e53238332a292cd360727682bc92aab758672ffd6f1f0b57ab"
        )

    def test_one_component_search(self, monkeypatch):
        # At most one search per call; the shape is read off the degrees.
        calls = []

        def counting_split(g):
            calls.append(g)
            return components(g)

        monkeypatch.setattr("gaindex.graphs.components", counting_split)
        for g in (paw_graph(), complete_bipartite_graph(2, 5), complete_bipartite_graph(3, 3)):
            calls.clear()
            classify(g)
            assert len(calls) <= 1, graph_name(g)


class TestGraph6:
    def test_parse_single_edge(self):
        assert parse_graph6("A_").edges == ((0, 1),)

    def test_parse_triangle(self):
        g = parse_graph6("Bw")
        assert is_isomorphic(g, cycle_graph(3))

    def test_empty_rejected_with_offset(self):
        with pytest.raises(Graph6Error) as err:
            parse_graph6("")
        assert err.value.offset == 0

    def test_bad_character_offset(self):
        with pytest.raises(Graph6Error):
            parse_graph6("B\x07")

    def test_wrong_length(self):
        with pytest.raises(Graph6Error, match="data characters"):
            parse_graph6("Bww")

    def test_header_accepted(self):
        assert parse_graph6(">>graph6<<A_").m == 1

    def test_roundtrip_small(self):
        rng = random.Random(3)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 12))
            assert parse_graph6(to_graph6(g)) == g

    def test_text_roundtrip_bit_exact(self):
        rng = random.Random(4)
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 9))
            line = to_graph6(g)
            assert to_graph6(parse_graph6(line)) == line

    def test_large_order_header(self):
        g = from_edge_list(100, [(0, 99)])
        assert parse_graph6(to_graph6(g)) == g

    @pytest.mark.skipif(nx is None, reason="networkx unavailable")
    def test_against_networkx_encoder(self):
        rng = random.Random(8)
        sizes = [rng.randint(1, 11) for _ in range(97)] + [62, 63, 64, 1000]
        for n in sizes:
            g = random_graph(rng, n, p=0.5 if n < 20 else 0.08)
            nx_graph = nx.Graph()
            nx_graph.add_nodes_from(range(g.n))
            nx_graph.add_edges_from(g.edges)
            reference = nx.to_graph6_bytes(nx_graph, header=False).decode().strip()
            assert to_graph6(g) == reference
            back = nx.from_graph6_bytes(to_graph6(g).encode())
            assert set(back.edges()) == {tuple(e) for e in g.edges}

    def test_iter_graph6_lines(self):
        graphs = iter_graph6("A_\n\nBw\n")
        assert [g.n for g in graphs] == [2, 3]

    @pytest.mark.parametrize(
        "line,limit",
        [
            # 10,001 vertices: refused at the size field, before the data.
            ("~A[P", "MAX_VERTICES"),
            # K448, 100,128 edges: every data bit set.
            ("~?F?" + "~" * (448 * 447 // 12), "MAX_EDGES"),
        ],
        ids=["n10001", "K448"],
    )
    def test_oversized_graph6_rejected_before_building(
        self, line, limit, monkeypatch
    ):
        refuse_builders(monkeypatch)
        with pytest.raises(ValueError, match=limit):
            parse_graph6(line)


class TestEdgeListFormat:
    def test_roundtrip(self):
        g = paw_graph()
        assert read_edge_list(write_edge_list(g)) == g

    def test_format_shape(self):
        assert write_edge_list(path_graph(2)) == "2 1\n0 1\n"

    def test_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            read_edge_list("x y\n0 1\n")

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="edge lines"):
            read_edge_list("3 2\n0 1\n")

    @pytest.mark.parametrize(
        "text,limit",
        [("1000000000 0\n", "MAX_VERTICES"), ("10 1000000000\n", "MAX_EDGES")],
    )
    def test_oversized_header_rejected_before_building(
        self, text, limit, monkeypatch
    ):
        refuse_builders(monkeypatch)
        with pytest.raises(ValueError, match=limit):
            read_edge_list(text)


class TestGraphSpec:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("P5", path_graph(5)),
            ("C4", cycle_graph(4)),
            ("S5", star_graph(5)),
            ("K2,3", complete_bipartite_graph(2, 3)),
            ("K4", complete_graph(4)),
            ("DS1,2", double_star_graph(1, 2)),
            ("paw", paw_graph()),
        ],
    )
    def test_named(self, spec, expected):
        assert is_isomorphic(parse_graph_spec(spec), expected)

    def test_graph6_fallback(self):
        assert parse_graph_spec("Bw").m == 3

    def test_junk_rejected(self):
        with pytest.raises(ValueError):
            parse_graph_spec("nonsense!!")

    @pytest.mark.parametrize(
        "spec,limit",
        [
            ("K100000,100000", "MAX_VERTICES"),
            ("P1000000000", "MAX_VERTICES"),
            ("C1000000000", "MAX_VERTICES"),
            ("S1000000000", "MAX_VERTICES"),
            ("DS1000000000,1", "MAX_VERTICES"),
            ("K9000", "MAX_EDGES"),
            ("K5000,21", "MAX_EDGES"),
        ],
    )
    def test_oversized_spec_rejected_before_building(self, spec, limit, monkeypatch):
        refuse_builders(monkeypatch)
        with pytest.raises(ValueError, match=limit):
            parse_graph_spec(spec)


def refuse_builders(monkeypatch):
    """Make every graph builder that gaindex.formats calls fail the test."""
    import gaindex.formats as formats

    def refuse(*args, **kwargs):
        raise AssertionError("a graph was built before the size check")

    for name in (
        "path_graph",
        "cycle_graph",
        "star_graph",
        "complete_graph",
        "complete_bipartite_graph",
        "double_star_graph",
        "paw_graph",
        "from_edge_list",
    ):
        monkeypatch.setattr(formats, name, refuse)
