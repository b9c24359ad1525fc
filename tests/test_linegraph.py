"""Line graph construction and its structural identities."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaindex.graphs import (
    canonical_form,
    complete_graph,
    cycle_graph,
    from_edge_list,
    is_isomorphic,
    is_nontrivial,
    path_graph,
    paw_graph,
    star_graph,
)
from graph_helpers import disjoint_union, strip_isolated
from gaindex.checks import (
    check_line_regular_iff,
    check_line_tree_iff,
    check_line_zagreb_identity,
)
from gaindex.indices import m1
from gaindex.linegraph import (
    GraphFacts,
    line_graph,
    verify_degree_identity,
)
from gaindex.radicals import RadicalNumber

try:
    import networkx as nx
except ImportError:  # pragma: no cover
    nx = None


def random_nontrivial_connected(rng: random.Random, n: int):
    while True:
        pairs = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        ]
        g = from_edge_list(n, pairs)
        if g.is_connected and g.m >= 2:
            return g


class TestConstruction:
    def test_path4_gives_path3(self):
        assert is_isomorphic(line_graph(path_graph(4)), path_graph(3))

    def test_star4_gives_triangle(self):
        assert is_isomorphic(line_graph(star_graph(4)), cycle_graph(3))

    def test_star5_gives_k4(self):
        assert is_isomorphic(line_graph(star_graph(5)), complete_graph(4))

    def test_cycles_are_fixed_points(self):
        for n in range(3, 9):
            assert is_isomorphic(line_graph(cycle_graph(n)), cycle_graph(n))

    def test_paths_shrink(self):
        for n in range(3, 10):
            assert is_isomorphic(line_graph(path_graph(n)), path_graph(n - 1))

    def test_stars_complete(self):
        for n in range(4, 9):
            assert is_isomorphic(
                line_graph(star_graph(n)), complete_graph(n - 1)
            )

    def test_triangle_star_collision(self):
        first = canonical_form(line_graph(cycle_graph(3)))
        second = canonical_form(line_graph(star_graph(4)))
        assert first == second

    def test_trivial_input_rejected(self):
        with pytest.raises(ValueError, match="at least two edges"):
            line_graph(path_graph(2))
        with pytest.raises(ValueError, match="at least two edges"):
            line_graph(disjoint_union(cycle_graph(3), path_graph(2)))

    def test_vertex_correspondence_degrees(self):
        g = paw_graph()
        lg = line_graph(g)
        for idx, (u, v) in enumerate(g.edges):
            assert lg.deg[idx] == g.deg[u] + g.deg[v] - 2

    def test_stats_tuple(self):
        lg = line_graph(cycle_graph(4))
        assert (lg.max_degree, lg.min_degree, lg.n, lg.m) == (2, 2, 4, 4)


class TestIdentities:
    def test_degree_identity_examples(self):
        assert verify_degree_identity(GraphFacts(cycle_graph(4)))
        assert verify_degree_identity(GraphFacts(paw_graph()))

    def test_degree_identity_random(self):
        rng = random.Random(71)
        for _ in range(50):
            g = random_nontrivial_connected(rng, rng.randint(3, 10))
            assert verify_degree_identity(GraphFacts(g))

    def test_size_identities_random(self):
        rng = random.Random(72)
        for _ in range(50):
            g = random_nontrivial_connected(rng, rng.randint(3, 12))
            lg = line_graph(g)
            assert lg.n == g.m
            m1g = m1(g).exact
            assert m1g is not None and m1g.is_rational
            assert 2 * lg.m == int(m1g.rational_part) - 2 * g.m

    @pytest.mark.parametrize(
        "builder,expected_m1_line",
        [
            (cycle_graph(4), 16),
            (star_graph(4), 12),
            (path_graph(3), 2),
        ],
    )
    def test_zagreb_identity_values(self, builder, expected_m1_line):
        (report,) = check_line_zagreb_identity(GraphFacts(builder))
        assert report.holds and report.equality
        assert report.lhs.exact == RadicalNumber(expected_m1_line)

    def test_zagreb_identity_random(self):
        rng = random.Random(73)
        for _ in range(50):
            g = random_nontrivial_connected(rng, rng.randint(3, 10))
            assert check_line_zagreb_identity(GraphFacts(g))[0].holds


class TestRegularityCharacterization:
    def test_two_triangles(self):
        g = disjoint_union(cycle_graph(3), cycle_graph(3))
        (report,) = check_line_regular_iff(GraphFacts(g))
        assert report.holds and GraphFacts(g).regular_line_condition

    def test_star_is_covered(self):
        (report,) = check_line_regular_iff(GraphFacts(star_graph(4)))
        assert report.holds and GraphFacts(star_graph(4)).regular_line_condition

    def test_mixed_cycle_union(self):
        # Components with equal degree sums: the line graph stays regular.
        g = disjoint_union(cycle_graph(3), cycle_graph(4))
        (report,) = check_line_regular_iff(GraphFacts(g))
        assert report.holds
        lg = line_graph(g)
        assert lg.max_degree == lg.min_degree

    def test_cycle_plus_star_same_sum(self):
        # (2,2) and (3,1): both sums are 4, so the line graph is regular.
        g = disjoint_union(cycle_graph(3), star_graph(4))
        assert GraphFacts(g).regular_line_condition
        lg = line_graph(g)
        assert lg.max_degree == lg.min_degree
        assert check_line_regular_iff(GraphFacts(g))[0].holds

    def test_mismatched_sums(self):
        # (2,2) and (4,1): sums 4 vs 5, so the line graph cannot be regular.
        g = disjoint_union(cycle_graph(4), star_graph(5))
        assert not GraphFacts(g).regular_line_condition
        lg = line_graph(g)
        assert lg.max_degree != lg.min_degree
        assert check_line_regular_iff(GraphFacts(g))[0].holds

    def test_both_directions_random(self):
        rng = random.Random(74)
        for _ in range(50):
            g = random_nontrivial_connected(rng, rng.randint(3, 9))
            assert check_line_regular_iff(GraphFacts(g))[0].holds


class TestTreeCharacterization:
    def test_path5(self):
        reports = check_line_tree_iff(GraphFacts(path_graph(5)))
        assert all(r.holds for r in reports)
        lg = line_graph(path_graph(5))
        assert lg.is_connected and lg.m == lg.n - 1

    def test_cycle5(self):
        reports = check_line_tree_iff(GraphFacts(cycle_graph(5)))
        assert all(r.holds for r in reports)
        by_id = {r.check_id: r for r in reports}
        assert by_id["line_size_monotone"].equality  # m == m(L) for cycles

    def test_star4(self):
        reports = check_line_tree_iff(GraphFacts(star_graph(4)))
        by_id = {r.check_id: r for r in reports}
        assert by_id["line_tree_iff"].holds
        assert by_id["line_size_monotone"].holds

    def test_disconnected_rejected(self):
        (report,) = check_line_tree_iff(
            GraphFacts(disjoint_union(cycle_graph(3), cycle_graph(3)))
        )
        assert report.mode == "skipped" and not report.preconditions_met
        assert report.notes == "requires a connected graph"

    def test_iff_random(self):
        rng = random.Random(75)
        for _ in range(50):
            g = random_nontrivial_connected(rng, rng.randint(3, 9))
            assert all(r.holds for r in check_line_tree_iff(GraphFacts(g)))


@st.composite
def nontrivial_graphs(draw):
    """Graphs on at most 8 vertices whose every component has two edges."""
    n = draw(st.integers(min_value=3, max_value=8))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = strip_isolated(from_edge_list(n, [p for p, k in zip(pairs, keep) if k]))
    assume(g.m > 0 and is_nontrivial(g))
    return g


def assert_line_facts_match_built_line_graph(g):
    line, built = GraphFacts(g).line, GraphFacts(line_graph(g))
    # Float mode sums the degree pairs in this order, so it is compared too.
    assert list(line.degree_pairs.items()) == list(built.degree_pairs.items())
    assert line.ga1 == built.ga1
    assert (line.m1, line.regular) == (built.m1, built.regular)
    assert (line.n, line.m) == (built.graph.n, built.graph.m)


class TestLineFacts:
    def test_match_the_built_line_graph_up_to_seven_vertices(self):
        from gaindex.enumeration import connected_nontrivial

        graphs = list(connected_nontrivial(7))
        for g in graphs:
            assert_line_facts_match_built_line_graph(g)
        assert len(graphs) == 994

    @settings(max_examples=200, deadline=None)
    @given(nontrivial_graphs())
    def test_match_the_built_line_graph(self, g):
        assert_line_facts_match_built_line_graph(g)


@pytest.mark.skipif(nx is None, reason="networkx unavailable")
class TestNetworkxOracle:
    def to_nx(self, g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        return h

    @settings(max_examples=200, deadline=None)
    @given(nontrivial_graphs())
    def test_line_graph_matches_networkx(self, g):
        expected = nx.line_graph(self.to_nx(g))
        assert nx.is_isomorphic(self.to_nx(line_graph(g)), expected)

    @settings(max_examples=200, deadline=None)
    @given(nontrivial_graphs())
    def test_facts_degree_sums_match_networkx(self, g):
        h = self.to_nx(g)
        deg = dict(h.degree())
        line_deg = dict(nx.line_graph(h).degree())
        facts = GraphFacts(g)
        assert facts.m1 == sum(d * d for d in deg.values())
        assert facts.m2 == sum(deg[u] * deg[v] for u, v in h.edges())
        assert facts.forgotten == sum(d**3 for d in deg.values())
        assert facts.line.m1 == sum(d * d for d in line_deg.values())
