"""Exhaustive generation, bucket classification, preimages, worked families."""

from __future__ import annotations

import random
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from pathlib import Path

import pytest

from gaindex import enumeration
from gaindex.checks import check_complete_bipartite_integer, check_double_star_rational
from gaindex.enumeration import (
    buckets_match_families,
    census_rows,
    classify_line_small_values,
    classify_small_values,
    connected_nontrivial,
    connected_with_edges,
    enumerate_connected,
    enumerate_trees,
    expected_line_small_value_families,
    expected_small_value_families,
    extremal_search,
    line_graph_preimages,
    random_connected,
    verify_no_preimage,
)
from gaindex.formats import to_graph6
from gaindex.graphs import (
    Graph,
    canonical_form,
    canonical_key,
    cycle_graph,
    double_star_graph,
    from_edge_list,
    graph_from_key,
    graph_name,
    is_isomorphic,
    path_graph,
    star_graph,
)
from gaindex.indices import ga1
from gaindex.radicals import RadicalNumber

ROOT = Path(__file__).resolve().parents[1]

try:
    import networkx as nx
except ImportError:  # pragma: no cover
    nx = None


def labeled_class_count(n: int) -> int:
    """Independent oracle: count isomorphism classes of connected graphs by
    pairwise permutation testing over all labeled graphs."""
    all_pairs = list(combinations(range(n), 2))
    classes: list[set[tuple]] = []
    for mask in range(1 << len(all_pairs)):
        edges = frozenset(
            all_pairs[i] for i in range(len(all_pairs)) if (mask >> i) & 1
        )
        g = from_edge_list(n, list(edges))
        if not g.is_connected:
            continue
        found = False
        for known in classes:
            if edges in known:
                found = True
                break
        if not found:
            orbit = set()
            for perm in permutations(range(n)):
                orbit.add(
                    frozenset(
                        tuple(sorted((perm[u], perm[v]))) for u, v in edges
                    )
                )
            classes.append(orbit)
    return len(classes)


@lru_cache(maxsize=None)
def reference_augmented_classes(n: int, trees: bool) -> tuple[Graph, ...]:
    """Generate-then-dedupe without the construction-path filter: every child
    of every class one vertex smaller gets a canonical key."""
    if n == 1:
        return (from_edge_list(1, []),)
    found = set()
    for g in reference_augmented_classes(n - 1, trees):
        for size in (1,) if trees else range(1, n):
            for joined in combinations(range(n - 1), size):
                grown = from_edge_list(n, g.edges + tuple((v, n - 1) for v in joined))
                found.add(canonical_key(grown))
    ordered = sorted(found, key=lambda key: (sum(map(int.bit_count, key)), key))
    return tuple(graph_from_key(n, key) for key in ordered)


class TestConstructionPathFilter:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_connected_match_reference(self, n):
        assert enumerate_connected(n) == reference_augmented_classes(n, False)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_trees_match_reference(self, n):
        assert enumerate_trees(n) == reference_augmented_classes(n, True)

    def test_only_non_cut_vertices_can_beat_the_new_vertex(self):
        def masks(g):
            return [sum(1 << w for w in nbrs) for nbrs in g.adj]

        # Path 0 - 2 - 1 with its centre last: leaf 0 is non-cut and beats it.
        path = from_edge_list(3, [(0, 2), (1, 2)])
        assert not enumeration._new_vertex_is_minimal(masks(path))
        # Two K4s joined through the path 0 - 3 - 4 (n = 9).  Vertex 3 alone
        # has the least f, but it is a cut vertex, so its class is reached
        # only through a child whose new vertex is a degree-3 K4 vertex.
        k4_pair = from_edge_list(
            9,
            list(combinations((0, 1, 2, 8), 2))
            + list(combinations((4, 5, 6, 7), 2))
            + [(0, 3), (3, 4)],
        )
        assert enumeration._new_vertex_is_minimal(masks(k4_pair))

    def test_filter_skips_keys(self, monkeypatch):
        expected = enumerate_connected(7)  # also fills the cache below n = 7
        calls = 0

        def counted(g):
            nonlocal calls
            calls += 1
            return canonical_key(g)

        monkeypatch.setattr(enumeration, "canonical_key", counted)
        assert enumeration._augmented_classes.__wrapped__(7, False) == expected
        children = len(enumerate_connected(6)) * (2**6 - 1)
        assert len(expected) <= calls < children

    def test_children_are_keyed_without_building_graphs(self, monkeypatch):
        from gaindex import graphs

        expected = enumerate_connected(7)  # also fills the cache below n = 7
        built = 0
        build = graphs.from_edge_list

        def counted(n, pairs):
            nonlocal built
            built += 1
            return build(n, pairs)

        monkeypatch.setattr(graphs, "from_edge_list", counted)
        monkeypatch.setattr(enumeration, "from_edge_list", counted)
        assert enumeration._augmented_classes.__wrapped__(7, False) == expected
        assert built == len(expected)  # one per representative


class TestEnumerationCounts:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_counts_match_brute_force_oracle(self, n):
        assert len(enumerate_connected(n)) == labeled_class_count(n)

    def test_counts_match_census(self):
        # Standard census of connected graphs on 1..7 vertices.
        assert [len(enumerate_connected(n)) for n in range(1, 8)] == [
            1, 1, 2, 6, 21, 112, 853,
        ]

    def test_tree_counts_match_census(self):
        assert [len(enumerate_trees(n)) for n in range(1, 9)] == [
            1, 1, 1, 2, 3, 6, 11, 23,
        ]

    def test_no_duplicate_classes(self):
        graphs = enumerate_connected(6)
        forms = [canonical_form(g) for g in graphs]
        assert len(set(forms)) == len(forms)

    def test_all_connected(self):
        assert all(g.is_connected for g in enumerate_connected(6))

    def test_representatives_are_canonically_labeled(self):
        from graph_helpers import canonical_graph

        for g in enumerate_connected(5):
            assert canonical_graph(g) == g

    def test_order_limit(self):
        with pytest.raises(ValueError, match="enumeration supports"):
            enumerate_connected(9)
        with pytest.raises(ValueError, match="enumeration supports"):
            enumerate_connected(0)

    def test_representatives_and_order_match_stored_file(self):
        # The benchmark's input file holds the graph6 of enumerate_connected(n),
        # n = 2..7, in the order the enumeration returns them.
        stored = (ROOT / "perfbench" / "data" / "connected_n2_7.g6").read_text().splitlines()
        produced = [to_graph6(g) for n in range(2, 8) for g in enumerate_connected(n)]
        assert produced == stored

    def test_isolated_vertex_flagged(self):
        (k1,) = enumerate_connected(1)
        assert k1.m == 0 and k1.isolated_vertices == (0,)

    @pytest.mark.skipif(nx is None, reason="networkx unavailable")
    @pytest.mark.parametrize("n", range(2, 8))
    def test_representatives_pairwise_non_isomorphic_under_networkx(self, n):
        # Isomorphic graphs share m and the degree sequence, so only pairs
        # within such a group can be isomorphic.
        groups = defaultdict(list)
        for g in enumerate_connected(n):
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges)
            groups[(g.m, tuple(sorted(g.deg)))].append(h)
        for group in groups.values():
            for a, b in combinations(group, 2):
                assert not nx.is_isomorphic(a, b)


class TestBuckets:
    def test_small_values_match_known_lists(self):
        buckets = classify_small_values(6)
        assert buckets_match_families(buckets, expected_small_value_families())

    def test_small_value_exact_values(self):
        buckets = classify_small_values(6)
        by_range = {(b.lower, b.upper): b for b in buckets}
        ones = by_range[(0, 1)]
        assert [m.name for m in ones.members] == ["P2"]
        assert ones.members[0].value == RadicalNumber(1)
        twos = by_range[(1, 2)]
        assert twos.members[0].value == RadicalNumber({2: Fraction(4, 3)})

    def test_membership_values_lie_in_range(self):
        for bucket in classify_small_values(6):
            for member in bucket.members:
                assert bucket.lower < member.value
                assert member.value <= bucket.upper

    def test_line_values_match_known_lists(self):
        buckets = classify_line_small_values(7)
        assert buckets_match_families(buckets, expected_line_small_value_families())

    def test_line_collision_recorded(self):
        buckets = classify_line_small_values(7)
        middle = next(b for b in buckets if (b.lower, b.upper) == (2, 3))
        names = sorted(m.name for m in middle.members)
        assert names == ["C3", "P5", "S4"]
        threes = [m for m in middle.members if m.value == RadicalNumber(3)]
        assert len(threes) == 2  # the triangle and the 4-vertex star collide

    def test_nmax_guards(self):
        with pytest.raises(ValueError):
            classify_small_values(5)
        with pytest.raises(ValueError):
            classify_line_small_values(6)


class TestPreimages:
    def test_double_star_has_none(self):
        assert verify_no_preimage(double_star_graph(1, 2))

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_stars_have_none(self, n):
        assert verify_no_preimage(star_graph(n))

    def test_triangle_preimages(self):
        pre = line_graph_preimages(cycle_graph(3))
        assert sorted(graph_name(g) for g in pre) == ["C3", "S4"]
        assert not verify_no_preimage(cycle_graph(3))

    def test_cycles_are_their_own_preimage(self):
        pre = line_graph_preimages(cycle_graph(5))
        assert len(pre) == 1 and is_isomorphic(pre[0], cycle_graph(5))

    def test_target_size_guard(self):
        with pytest.raises(ValueError, match="ENUMERATION_MAX_N = 8"):
            line_graph_preimages(path_graph(8))


class TestWorkedFamilies:
    def test_double_star_2_3(self):
        report = check_double_star_rational(2, 3)
        assert report.holds and report.preconditions_met
        value = report.lhs.exact
        assert value is not None
        assert value.as_fraction() == Fraction(528, 65)

    def test_double_star_3_4(self):
        report = check_double_star_rational(3, 4)
        assert report.holds
        assert report.lhs.exact is not None and report.lhs.exact.is_rational

    def test_double_star_degenerate_flagged(self):
        # n1 = 1 leaves a center without leaves: a star, outside the statement.
        report = check_double_star_rational(1, 2)
        assert report.mode == "skipped" and not report.preconditions_met
        assert "degenerate" in report.notes
        assert not report.violated

    def test_double_star_equal_parameters_rejected(self):
        with pytest.raises(ValueError, match="different"):
            check_double_star_rational(2, 2)

    @pytest.mark.parametrize("k,expected", [(1, 80), (2, 320)])
    def test_complete_bipartite_values(self, k, expected):
        report = check_complete_bipartite_integer(k)
        assert report.holds
        assert report.lhs.exact == RadicalNumber(expected)
        assert "regular: False" in report.notes

    def test_complete_bipartite_guards(self):
        with pytest.raises(ValueError):
            check_complete_bipartite_integer(0)
        with pytest.raises(ValueError, match="size guard"):
            check_complete_bipartite_integer(50)


class TestExtremalSearch:
    def test_tree_minimum_is_star(self):
        optima = extremal_search(5, 4, "min")
        assert len(optima) == 1
        g, value = optima[0]
        assert is_isomorphic(g, star_graph(5))
        assert value == RadicalNumber(Fraction(16, 5))

    def test_tree_maximum_is_path(self):
        optima = extremal_search(5, 4, "max")
        assert len(optima) == 1
        g, value = optima[0]
        assert is_isomorphic(g, path_graph(5))
        assert value == RadicalNumber({1: 2, 2: Fraction(4, 3)})

    def test_n4_m4_max_is_cycle(self):
        optima = extremal_search(4, 4, "max")
        assert len(optima) == 1
        assert is_isomorphic(optima[0][0], cycle_graph(4))

    def test_tree_extremality_exhaustive(self):
        # Every tree sits between the star and the path of its order.
        for n in range(3, 8):
            lo = ga1(star_graph(n)).exact
            hi = ga1(path_graph(n)).exact
            assert lo is not None and hi is not None
            for tree in enumerate_trees(n):
                value = ga1(tree).exact
                assert value is not None
                assert lo <= value <= hi

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError):
            extremal_search(4, 7, "max")
        with pytest.raises(ValueError):
            extremal_search(4, 2, "min")
        with pytest.raises(ValueError):
            extremal_search(4, 4, "best")


class TestRandomGeneration:
    def test_deterministic_for_seed(self):
        first = [random_connected(random.Random(42)) for _ in range(1)]
        second = [random_connected(random.Random(42)) for _ in range(1)]
        assert first == second

    def test_connected_and_in_range(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_connected(rng, n_high=12)
            assert g.is_connected and 3 <= g.n <= 12

    @pytest.mark.parametrize("n_high", [2, 448, 100_000])
    def test_order_bound_refused_before_any_draw(self, n_high):
        # 447 is the largest order whose complete graph has <= MAX_EDGES edges.
        rng = random.Random(7)
        state = rng.getstate()
        with pytest.raises(ValueError, match=r"3 <= n_high <= 447 \(MAX_EDGES"):
            random_connected(rng, n_high=n_high)
        assert rng.getstate() == state

    @pytest.mark.parametrize("n_high", [3, 447])
    def test_order_bound_ends_are_accepted(self, n_high):
        g = random_connected(random.Random(7), n_high=n_high)
        assert g.is_connected and 3 <= g.n <= n_high


class TestCensusRows:
    def test_rows_n3(self):
        rows = census_rows(3)
        names = sorted(row["name"] for row in rows)
        assert names == ["C3", "P3"]
        by_name = {row["name"]: row for row in rows}
        assert by_name["C3"]["ga1_exact"] == "3"
        assert by_name["P3"]["ga1_exact"] == "4/3*sqrt(2)"

    def test_k1_row_has_blank_value(self):
        rows = census_rows(1)
        assert rows[0]["ga1_exact"] == ""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_canonical_form_column_matches_search(self, n):
        # census_rows reads each representative's own labeling; the search
        # over all relabelings must give the same string.
        forms = [row["canonical_form"] for row in census_rows(n)]
        assert forms == [canonical_form(g) for g in enumerate_connected(n)]


class TestHelperIterators:
    def test_connected_with_edges_excludes_k1(self):
        graphs = connected_with_edges(4)
        assert all(g.m >= 1 for g in graphs)
        assert len(graphs) == 1 + 2 + 6

    def test_order_limit_refused_before_enumerating(self, monkeypatch):
        def fail(n):
            raise AssertionError(f"enumerated order {n}")

        monkeypatch.setattr(enumeration, "enumerate_connected", fail)
        with pytest.raises(ValueError, match="ENUMERATION_MAX_N = 8"):
            connected_with_edges(9)

    def test_connected_nontrivial_excludes_p2(self):
        graphs = connected_nontrivial(4)
        assert all(g.m >= 2 for g in graphs)
        assert len(graphs) == 2 + 6
