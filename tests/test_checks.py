"""Per-inequality checkers: worked examples, equality flags, precondition logic."""

from __future__ import annotations

import hashlib
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaindex.checks import (
    CHECK_IDS,
    DEFAULT_ALPHAS,
    check_edge_deletion_drop,
    check_complete_bipartite_integer,
    check_double_star_rational,
    check_extreme_degree_bounds,
    check_line_ga_bounds,
    check_line_ga_ratio_bound,
    check_line_order_bound,
    check_line_sqrt_bound,
    check_line_three_half_zagreb_bound,
    check_line_variable_zagreb_bound,
    check_line_vs_graph_regular,
    check_line_zagreb_lower,
    check_no_universal_vertex_bound,
    check_nordhaus_gaddum,
    check_order_size_bounds,
    check_rationality,
    check_sqrt_shift_superadditivity,
    check_star_lower_bound,
    check_term_shift_inequality,
    check_three_half_zagreb_bound,
    check_variable_zagreb_bound,
    run_checks,
)
from gaindex.enumeration import enumerate_connected
from gaindex.formats import to_graph6
from gaindex.graphs import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    canonical_form,
    double_star_graph,
    from_edge_list,
    path_graph,
    paw_graph,
    star_graph,
)
from gaindex.indices import _power_term
from gaindex.linegraph import GraphFacts
from gaindex.sweeps import SweepResult
from graph_helpers import (
    all_graphs,
    disjoint_union,
    ga_edge_term,
    ga_ratio_curve,
    labeling_free_verdicts,
    relabel,
    strip_isolated,
)
from gaindex.radicals import RadicalNumber, compare

positive_rationals = st.fractions(
    min_value=Fraction(1, 8), max_value=Fraction(8), max_denominator=8
)


def by_id(reports, check_id):
    matches = [r for r in reports if r.check_id == check_id]
    assert matches, f"no report with id {check_id}"
    return matches[0]


class TestHelperFunctions:
    def test_curve_peak(self):
        assert ga_ratio_curve(1) == 1

    @given(positive_rationals)
    def test_curve_inversion_symmetry(self, t):
        assert ga_ratio_curve(t) == ga_ratio_curve(1 / t)

    @given(positive_rationals, positive_rationals)
    def test_curve_monotone_below_one(self, a, b):
        lo, hi = sorted((min(a, 1), min(b, 1)))
        if lo < hi:
            assert ga_ratio_curve(lo) < ga_ratio_curve(hi)

    @given(positive_rationals, positive_rationals)
    def test_term_symmetric(self, x, y):
        assert ga_edge_term(x, y) == ga_edge_term(y, x)

    @given(positive_rationals, positive_rationals)
    def test_term_at_most_one_iff_equal(self, x, y):
        value = ga_edge_term(x, y)
        assert value <= 1
        assert (value == RadicalNumber(1)) == (x == y)

    @given(
        positive_rationals, positive_rationals, positive_rationals, positive_rationals
    )
    def test_term_lower_bound_over_box(self, p, q, r, s):
        # Over a box [a,b]^2 the term is minimized exactly at the corners
        # {a,b}; tested with two interior points drawn from four samples.
        values = sorted([p, q, r, s])
        a, b = values[0], values[3]
        x, y = values[1], values[2]
        bound = ga_edge_term(a, b)
        term = ga_edge_term(x, y)
        assert compare(bound, term) <= 0
        assert (compare(bound, term) == 0) == (x == a and y == b)

    @given(
        positive_rationals, positive_rationals, positive_rationals, positive_rationals
    )
    def test_term_equality_iff_ratio_matches(self, x, y, xx, yy):
        same = ga_edge_term(x, y) == ga_edge_term(xx, yy)
        ratios = (x / y) in (xx / yy, yy / xx)
        assert same == ratios


class TestExtremeDegreeBounds:
    def test_complete_bipartite_lower_tight(self):
        g = complete_bipartite_graph(5, 20)
        reports = check_extreme_degree_bounds(GraphFacts(g))
        lower = by_id(reports, "extreme_degree_bounds.lower")
        assert lower.holds and lower.equality and lower.predicted_equality
        assert lower.characterization_consistent
        assert lower.lhs.exact == RadicalNumber(80)

    def test_cycle_upper_tight(self):
        reports = check_extreme_degree_bounds(GraphFacts(cycle_graph(4)))
        upper = by_id(reports, "extreme_degree_bounds.upper")
        assert upper.holds and upper.equality and upper.predicted_equality

    def test_paw_strict_both(self):
        reports = check_extreme_degree_bounds(GraphFacts(paw_graph()))
        assert all(r.holds and not r.equality for r in reports)
        assert all(r.characterization_consistent for r in reports)

    def test_upper_tight_when_every_component_is_regular(self):
        # K3 + K2 is not regular, but every edge term is 1, so GA1 = m.
        f = GraphFacts(disjoint_union(complete_graph(3), path_graph(2)))
        upper = by_id(check_extreme_degree_bounds(f), "extreme_degree_bounds.upper")
        assert upper.equality and upper.predicted_equality and not f.regular


class TestOrderSizeBounds:
    def test_star5_order_tight(self):
        reports = check_order_size_bounds(GraphFacts(star_graph(5)))
        order = by_id(reports, "order_size_bounds.order")
        assert order.holds and order.equality
        assert order.rhs.exact == RadicalNumber(Fraction(16, 5))

    def test_cycle4(self):
        reports = check_order_size_bounds(GraphFacts(cycle_graph(4)))
        assert all(r.holds and not r.equality for r in reports)

    def test_single_edge_size_tight(self):
        reports = check_order_size_bounds(GraphFacts(path_graph(2)))
        size = by_id(reports, "order_size_bounds.size")
        assert size.holds and size.equality

    def test_disconnected_skipped(self):
        reports = check_order_size_bounds(
            GraphFacts(disjoint_union(cycle_graph(3), cycle_graph(3)))
        )
        assert all(not r.preconditions_met for r in reports)


class TestStarLowerBound:
    def test_star5_equality_predicted(self):
        report = check_star_lower_bound(GraphFacts(star_graph(5)))[0]
        assert report.holds and report.equality and report.predicted_equality
        assert report.characterization_consistent

    def test_cycle4_strict(self):
        report = check_star_lower_bound(GraphFacts(cycle_graph(4)))[0]
        assert report.holds and not report.equality
        assert report.characterization_consistent

    def test_p3_is_a_star(self):
        report = check_star_lower_bound(GraphFacts(path_graph(3)))[0]
        assert report.equality and report.predicted_equality


class TestNoUniversalVertexBound:
    def test_path4(self):
        reports = check_no_universal_vertex_bound(GraphFacts(path_graph(4)))
        strict = by_id(reports, "no_universal_vertex_bound.strict")
        assert strict.holds and strict.preconditions_met
        tail = by_id(reports, "no_universal_vertex_bound.tail")
        assert tail.holds and tail.equality  # m = n-1 makes the tail tight

    def test_star_skipped(self):
        reports = check_no_universal_vertex_bound(GraphFacts(star_graph(4)))
        assert all(not r.preconditions_met for r in reports)

    def test_cycle6(self):
        reports = check_no_universal_vertex_bound(GraphFacts(cycle_graph(6)))
        strict = by_id(reports, "no_universal_vertex_bound.strict")
        assert strict.holds
        assert strict.rhs.approx == pytest.approx(4.8, rel=1e-12)


class TestEdgeDeletion:
    def test_cycle4(self):
        reports = check_edge_deletion_drop(GraphFacts(cycle_graph(4)))
        evaluated = [r for r in reports if r.preconditions_met]
        assert len(evaluated) == 4
        for r in evaluated:
            assert r.holds
            assert r.rhs.approx == pytest.approx(3.0, abs=1e-12)

    def test_triangle(self):
        reports = check_edge_deletion_drop(GraphFacts(cycle_graph(3)))
        for r in reports:
            assert r.holds
            assert r.rhs.approx == pytest.approx(2.0, abs=1e-12)

    def test_path4_only_pendant_edges_minimal(self):
        reports = check_edge_deletion_drop(GraphFacts(path_graph(4)))
        evaluated = [r for r in reports if r.preconditions_met]
        assert len(evaluated) == 2  # the middle edge is not minimal
        assert all(r.holds for r in evaluated)

    def test_single_edge_component_excluded(self):
        reports = check_edge_deletion_drop(GraphFacts(path_graph(2)))
        assert len(reports) == 1
        assert not reports[0].preconditions_met
        assert "single-edge component" in reports[0].notes

    def test_pairs_after_deletion_match_rebuilt_graph(self):
        from gaindex.checks import _deletion_loss
        from gaindex.graphs import delete_edge

        rng = random.Random(21)
        for _ in range(200):
            n = rng.randint(2, 10)
            p = rng.uniform(0.2, 0.8)
            pairs = [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
            ]
            f = GraphFacts(from_edge_list(n, pairs))
            deg = f.graph.deg
            for u, v in f.graph.edges:
                term = ga_edge_term(deg[u], deg[v])
                expected = GraphFacts(delete_edge(f.graph, (u, v))).ga1
                assert f.ga1 - term - _deletion_loss(f, u, v) == expected

    @staticmethod
    def deletion_graphs():
        """Every connected graph with 2 <= n <= 7, then 200 seeded random
        graphs with at least one edge and no isolated vertex."""
        for n in range(2, 8):
            yield from enumerate_connected(n)
        rng = random.Random(19)
        made = 0
        while made < 200:
            n = rng.randint(2, 12)
            p = rng.uniform(0.15, 0.85)
            pairs = [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
            ]
            if pairs:
                made += 1
                yield strip_isolated(from_edge_list(n, pairs))

    def test_minimal_edges_and_lhs_match_rebuilt_graph(self):
        from gaindex.graphs import delete_edge, is_minimal_edge, minimal_edges
        from gaindex.indices import ga1

        deleted = 0
        for g in self.deletion_graphs():
            edges = minimal_edges(g)
            assert edges == [e for e in g.edges if is_minimal_edge(g, e)]
            reports = check_edge_deletion_drop(GraphFacts(g))
            if not edges:
                assert [r.notes for r in reports] == ["no minimal edge"]
                continue
            assert len(reports) == len(edges)
            for (u, v), report in zip(edges, reports):
                if not report.preconditions_met:
                    assert g.deg[u] == g.deg[v] == 1
                    continue
                assert report.notes == f"deleted minimal edge ({u},{v})"
                rebuilt = strip_isolated(delete_edge(g, (u, v)))
                assert report.lhs.exact == ga1(rebuilt).exact, (g.edges, (u, v))
                deleted += 1
        assert deleted == 2575  # exact reports checked against a rebuilt graph


class TestRationality:
    def test_double_star_rational(self):
        report = check_rationality(GraphFacts(double_star_graph(3, 8)))[0]
        assert report.holds and report.equality and report.predicted_equality
        value = report.lhs.exact
        assert value is not None and value.is_rational
        assert value.rational_part == Fraction(528, 65)

    def test_cycle5_rational(self):
        report = check_rationality(GraphFacts(cycle_graph(5)))[0]
        assert report.holds and report.equality
        assert report.lhs.exact == RadicalNumber(5)

    def test_path3_irrational(self):
        report = check_rationality(GraphFacts(path_graph(3)))[0]
        assert report.holds and not report.equality and not report.predicted_equality


class TestLineGaBounds:
    def test_cycle4_double_equality(self):
        reports = check_line_ga_bounds(GraphFacts(cycle_graph(4)))
        assert all(r.holds and r.equality for r in reports)
        upper = by_id(reports, "line_ga_bounds.upper")
        assert upper.rhs.exact == RadicalNumber(4)

    def test_star4(self):
        reports = check_line_ga_bounds(GraphFacts(star_graph(4)))
        lower = by_id(reports, "line_ga_bounds.lower")
        assert lower.holds and "vacuous" in lower.notes
        upper = by_id(reports, "line_ga_bounds.upper")
        assert upper.holds and upper.equality and upper.predicted_equality
        assert upper.rhs.exact == RadicalNumber(3)

    def test_paw_strict_lower(self):
        reports = check_line_ga_bounds(GraphFacts(paw_graph()))
        lower = by_id(reports, "line_ga_bounds.lower")
        assert lower.holds and not lower.equality

    def test_upper_tight_when_every_component_is_regular_or_biregular(self):
        # L(P3 + K3) = K2 + K3 is regular in each component, not as a whole.
        f = GraphFacts(disjoint_union(path_graph(3), cycle_graph(3)))
        upper = by_id(check_line_ga_bounds(f), "line_ga_bounds.upper")
        assert upper.equality and upper.predicted_equality
        assert not f.regular_line_condition


class TestNordhausGaddum:
    def test_cycle4_double_equality(self):
        reports = check_nordhaus_gaddum(GraphFacts(cycle_graph(4)))
        for r in reports:
            assert r.holds and r.equality and r.predicted_equality
        upper = by_id(reports, "nordhaus_gaddum.upper")
        assert upper.rhs.exact == RadicalNumber(8)

    def test_star5_strict(self):
        reports = check_nordhaus_gaddum(GraphFacts(star_graph(5)))
        upper = by_id(reports, "nordhaus_gaddum.upper")
        assert upper.holds and not upper.equality
        assert upper.rhs.exact == RadicalNumber(10)
        assert upper.lhs.approx == pytest.approx(16 / 5 + 6, rel=1e-12)

    def test_path4_strict_both(self):
        reports = check_nordhaus_gaddum(GraphFacts(path_graph(4)))
        assert all(r.holds and not r.equality for r in reports)
        assert all(r.characterization_consistent for r in reports)

    def test_upper_tight_when_every_component_is_regular(self):
        f = GraphFacts(disjoint_union(complete_graph(4), complete_graph(3)))
        upper = by_id(check_nordhaus_gaddum(f), "nordhaus_gaddum.upper")
        assert upper.equality and upper.predicted_equality and not f.regular


class TestTermShift:
    def test_delta1(self):
        report = check_term_shift_inequality(1, 2)
        assert report.holds
        assert report.lhs.exact == RadicalNumber(0)
        assert report.rhs.exact == RadicalNumber({3: 1}) / 4

    def test_equality_at_t_zero(self):
        report = check_term_shift_inequality(2, 0)
        assert report.holds and report.equality
        assert report.lhs.exact == RadicalNumber(Fraction(1, 2))

    def test_numeric_case(self):
        report = check_term_shift_inequality(3, 5)
        assert report.holds and not report.equality

    def test_domain_guard(self):
        assert not check_term_shift_inequality(1, 0).preconditions_met

    @given(
        st.integers(min_value=1, max_value=9),
        st.fractions(min_value=0, max_value=9, max_denominator=6),
    )
    @settings(max_examples=150)
    def test_holds_on_rational_grid(self, delta, t):
        report = check_term_shift_inequality(delta, t)
        if report.preconditions_met:
            assert report.holds


class TestLineRatioBound:
    def test_p3_equality(self):
        report = check_line_ga_ratio_bound(GraphFacts(path_graph(3)))[0]
        assert report.holds and report.equality

    def test_cycle4_strict(self):
        # The minimum picks the path constant 3/(4*sqrt(2)), so C4 is strict.
        report = check_line_ga_ratio_bound(GraphFacts(cycle_graph(4)))[0]
        assert report.holds and not report.equality
        assert report.rhs.approx == pytest.approx(3 / (4 * 2**0.5) * 4, rel=1e-12)

    def test_star4(self):
        report = check_line_ga_ratio_bound(GraphFacts(star_graph(4)))[0]
        assert report.holds


class TestLineVsGraphRegular:
    def test_cycle_union_equality(self):
        g = disjoint_union(cycle_graph(5), cycle_graph(3))
        report = check_line_vs_graph_regular(GraphFacts(g))[0]
        assert report.holds and report.equality

    def test_star5(self):
        report = check_line_vs_graph_regular(GraphFacts(star_graph(5)))[0]
        assert report.holds and not report.equality
        assert report.lhs.exact == RadicalNumber(6)

    def test_path4_skipped(self):
        report = check_line_vs_graph_regular(GraphFacts(path_graph(4)))[0]
        assert not report.preconditions_met

    def test_p3_component_skipped(self):
        g = disjoint_union(path_graph(3), cycle_graph(3))
        report = check_line_vs_graph_regular(GraphFacts(g))[0]
        assert not report.preconditions_met


class TestLineOrderAndSqrtBounds:
    def test_p3_tight(self):
        report = check_line_order_bound(GraphFacts(path_graph(3)))[0]
        assert report.holds and report.equality

    def test_triangle(self):
        report = check_line_order_bound(GraphFacts(cycle_graph(3)))[0]
        assert report.holds
        assert report.rhs.approx == pytest.approx(2 * 2**1.5 / 3, rel=1e-12)

    def test_cycle6(self):
        report = check_line_order_bound(GraphFacts(cycle_graph(6)))[0]
        assert report.holds
        assert report.rhs.approx == pytest.approx(2 * 5**1.5 / 6, rel=1e-12)

    def test_order_bound_skipped_on_a_disconnected_graph(self):
        # On 2P3, GA1(L(G)) = 2 < 3*sqrt(3)/2: the order bound of L(G) needs
        # L(G), and so G, to be connected.
        g = disjoint_union(path_graph(3), path_graph(3))
        report = check_line_order_bound(GraphFacts(g))[0]
        assert not report.preconditions_met
        assert report.notes == "requires a connected graph"

    def test_sqrt_bound_triangle(self):
        report = check_line_sqrt_bound(GraphFacts(cycle_graph(3)))[0]
        assert report.holds
        assert report.rhs.exact == 2 * RadicalNumber({2: 1})

    def test_sqrt_bound_p7_exact(self):
        report = check_line_sqrt_bound(GraphFacts(path_graph(7)))[0]
        assert report.holds and report.preconditions_met
        expected = RadicalNumber({1: 3, 2: Fraction(4, 3)})
        assert report.lhs.exact == expected

    def test_sqrt_bound_p5_skipped(self):
        report = check_line_sqrt_bound(GraphFacts(path_graph(5)))[0]
        assert not report.preconditions_met


class TestSqrtShift:
    def test_pair_of_twos(self):
        report = check_sqrt_shift_superadditivity([2, 2])
        assert report.holds and not report.equality

    def test_singleton_tight(self):
        report = check_sqrt_shift_superadditivity([2])
        assert report.holds and report.equality

    def test_mixed(self):
        report = check_sqrt_shift_superadditivity([3, 5, 2])
        assert report.holds
        assert report.lhs.approx == pytest.approx(2**0.5 + 2 + 1, rel=1e-12)

    def test_domain_guard(self):
        assert not check_sqrt_shift_superadditivity([1, 2]).preconditions_met
        assert not check_sqrt_shift_superadditivity([]).preconditions_met


class TestLineZagrebLower:
    def test_cycle4_tight(self):
        report = check_line_zagreb_lower(GraphFacts(cycle_graph(4)))[0]
        assert report.holds and report.equality
        assert report.lhs.exact == RadicalNumber(16)

    def test_star4(self):
        report = check_line_zagreb_lower(GraphFacts(star_graph(4)))[0]
        assert report.holds
        assert report.rhs.exact == RadicalNumber(-6)

    def test_paw(self):
        report = check_line_zagreb_lower(GraphFacts(paw_graph()))[0]
        assert report.holds and report.mode == "exact"


plain_triples = st.tuples(
    st.integers(-30, 30), st.integers(0, 60), st.integers(1, 30)
)
# (p/r)**(-num/den) as _power_factor splits it: a triple with p and r swapped.
negative_power_triples = st.builds(
    lambda p, r, num, den: _power_term(p, r, -num, den),
    st.integers(1, 12),
    st.integers(1, 12),
    st.integers(1, 5),
    st.sampled_from([1, 2]),
)


class TestExactProduct:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(plain_triples | negative_power_triples | st.integers(-9, 9), max_size=5),
        st.none() | st.lists(plain_triples, min_size=1, max_size=4),
    )
    def test_one_term_equals_product_of_values(self, factors, value_terms):
        from gaindex.checks import _exact_product
        from gaindex.radicals import radical_sum

        expected = RadicalNumber(1)
        for x in factors:
            expected = expected * (x if isinstance(x, int) else radical_sum([x]))
        if value_terms is not None:
            value = radical_sum(value_terms)
            factors = factors + [value]
            expected = expected * value
        assert _exact_product(factors) == expected
        assert str(_exact_product(factors)) == str(expected)

    def test_fixed_cases(self):
        from gaindex.checks import _exact_product
        from gaindex.radicals import radical_sum

        assert _exact_product([]) == RadicalNumber(1)
        assert _exact_product([(0, 5, 3), (2, 7, 1)]) == RadicalNumber(0)
        assert _exact_product([(4, 0, 1), 3]) == RadicalNumber(0)
        assert _exact_product([(-1, 2, 3), (1, 8, 1)]) == RadicalNumber(Fraction(-4, 3))
        value = radical_sum([(1, 2, 1), (1, 1, 1)])
        assert _exact_product([value]) is value
        assert _exact_product([(1, 3, 2), value, 2]) == radical_sum([(1, 6, 1), (1, 3, 1)])


class TestVariableZagrebBound:
    def test_cycle4_alpha_one_equality(self):
        report = check_variable_zagreb_bound(GraphFacts(cycle_graph(4)), 1)[0]
        assert report.holds and report.equality and report.predicted_equality
        assert report.mode == "exact"
        assert report.rhs.approx == pytest.approx(4.0, rel=1e-9)

    def test_star4_alpha_one_strict(self):
        report = check_variable_zagreb_bound(GraphFacts(star_graph(4)), 1)[0]
        assert report.holds and not report.equality
        assert report.characterization_consistent

    def test_cycle4_all_sampled_alphas_tight(self):
        for alpha in (Fraction(1, 2), 1, 2):
            report = check_variable_zagreb_bound(GraphFacts(cycle_graph(4)), alpha)[0]
            assert report.holds and report.equality

    def test_alpha_two_is_float_mode(self):
        report = check_variable_zagreb_bound(GraphFacts(cycle_graph(4)), 2)[0]
        assert report.mode == "float"

    def test_nonpositive_alpha_skipped(self):
        report = check_variable_zagreb_bound(GraphFacts(cycle_graph(4)), 0)[0]
        assert not report.preconditions_met

    @pytest.mark.parametrize(
        "checker", [check_variable_zagreb_bound, check_line_variable_zagreb_bound]
    )
    def test_exact_power_errors_do_not_fall_back_to_float(self, checker, monkeypatch):
        import gaindex.checks

        def broken(base, alpha):
            raise ValueError("broken power")

        monkeypatch.setattr(gaindex.checks, "_power_factor", broken)
        with pytest.raises(ValueError, match="broken power"):
            checker(GraphFacts(complete_graph(4)), 1)


class TestLineVariableZagrebBound:
    def test_cycle4_alpha_one_tight(self):
        report = check_line_variable_zagreb_bound(GraphFacts(cycle_graph(4)), 1)[0]
        assert report.holds and report.equality and report.mode == "exact"
        assert report.rhs.approx == pytest.approx(4.0, rel=1e-9)

    def test_cycle4_alpha_half_tight(self):
        f = GraphFacts(cycle_graph(4))
        report = check_line_variable_zagreb_bound(f, Fraction(1, 2))[0]
        assert report.holds and report.equality

    def test_cycle4_alpha_two_float_tight(self):
        report = check_line_variable_zagreb_bound(GraphFacts(cycle_graph(4)), 2)[0]
        assert report.holds and report.mode == "float" and report.equality

    def test_k4_alpha_two_tight(self):
        report = check_line_variable_zagreb_bound(GraphFacts(complete_graph(4)), 2)[0]
        assert report.holds and report.equality

    def test_star4_vacuous(self):
        f = GraphFacts(star_graph(4))
        report = check_line_variable_zagreb_bound(f, Fraction(1, 2))[0]
        assert report.holds and "vacuous" in report.notes


class TestThreeHalfZagrebBounds:
    def test_cycle4_tight(self):
        report = check_three_half_zagreb_bound(GraphFacts(cycle_graph(4)))[0]
        assert report.holds and report.equality and report.predicted_equality
        assert report.rhs.approx == pytest.approx(4.0, rel=1e-9)

    def test_star4_strict(self):
        report = check_three_half_zagreb_bound(GraphFacts(star_graph(4)))[0]
        assert report.holds and not report.equality
        assert report.characterization_consistent
        assert report.rhs.approx == pytest.approx(18 / (3**1.5 + 3), rel=1e-9)

    def test_k4_equality(self):
        report = check_three_half_zagreb_bound(GraphFacts(complete_graph(4)))[0]
        assert report.equality and report.predicted_equality

    def test_line_version_cycle4_tight(self):
        report = check_line_three_half_zagreb_bound(GraphFacts(cycle_graph(4)))[0]
        assert report.holds and report.equality

    def test_line_version_star_vacuous(self):
        report = check_line_three_half_zagreb_bound(GraphFacts(star_graph(4)))[0]
        assert report.holds and "vacuous" in report.notes

    def test_line_version_k4(self):
        report = check_line_three_half_zagreb_bound(GraphFacts(complete_graph(4)))[0]
        assert report.holds

    def test_line_version_one_power_per_degree_sum(self, monkeypatch):
        import gaindex.checks
        from gaindex.formats import parse_graph6
        from gaindex.indices import _power_sum

        bases = []

        def counting(terms, alpha):
            terms = list(terms)
            bases.extend(base for base, _ in terms)
            return _power_sum(terms, alpha)

        # Degree pairs (2,3), (2,4), (3,3) and (3,4): (2,4) and (3,3) share u+v = 6.
        g = parse_graph6("DL{")
        expected = check_line_three_half_zagreb_bound(GraphFacts(g))[0].to_dict()
        monkeypatch.setattr(gaindex.checks, "_power_sum", counting)
        reports = check_line_three_half_zagreb_bound(GraphFacts(g))
        assert reports[0].to_dict() == expected
        assert sorted(bases) == [5, 6, 7]


class TestRefinementAndRegistry:
    def test_star_bound_refines_order_size_bounds(self):
        # The star bound should dominate both weaker lower bounds.
        rng = random.Random(81)
        for _ in range(60):
            n = rng.randint(2, 8)
            pairs = [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
            ]
            g = from_edge_list(n, pairs)
            if not g.is_connected or g.m == 0:
                continue
            star = check_star_lower_bound(GraphFacts(g))[0].rhs.exact
            order = by_id(
                check_order_size_bounds(GraphFacts(g)), "order_size_bounds.order"
            ).rhs.exact
            size = by_id(
                check_order_size_bounds(GraphFacts(g)), "order_size_bounds.size"
            ).rhs.exact
            assert star is not None and order is not None and size is not None
            assert compare(star, order) >= 0
            assert compare(star, size) >= 0

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError, match="unknown check id"):
            run_checks(cycle_graph(4), ids=["nope"])

    def test_unknown_id_rejected_before_any_checker_runs(self, monkeypatch):
        import gaindex.checks

        def fail(f):
            raise AssertionError("a checker ran before the ids were validated")

        monkeypatch.setitem(gaindex.checks._PLAIN_CHECKS, "edge_deletion_drop", fail)
        with pytest.raises(KeyError, match="unknown check id 'bogus'"):
            run_checks(complete_graph(60), ids=["edge_deletion_drop", "bogus"])

    def test_run_all_on_k1_all_skipped(self):
        g = from_edge_list(1, [])
        reports = run_checks(g)
        assert reports and all(not r.preconditions_met for r in reports)

    def test_report_serialization_schema(self):
        report = check_star_lower_bound(GraphFacts(star_graph(5)))[0]
        payload = report.to_dict()
        assert payload["check_id"] == "star_lower_bound"
        assert payload["lhs"]["exact"] == "16/5"
        assert set(payload) == {
            "check_id",
            "relation",
            "lhs",
            "rhs",
            "holds",
            "equality",
            "predicted_equality",
            "characterization_consistent",
            "slack",
            "preconditions_met",
            "mode",
            "notes",
        }

    def test_all_ids_runnable(self):
        reports = run_checks(cycle_graph(5))
        seen = {r.check_id.split(".")[0] for r in reports}
        assert set(CHECK_IDS) <= seen


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edge_list(10, outer + spokes + inner)


class TestDisplayFloatsOnRead:
    def test_verdict_path_computes_no_display_float(self, monkeypatch):
        calls = []
        original = RadicalNumber.float_with_error

        def counting(self, bits=53):
            calls.append(bits)
            return original(self, bits)

        monkeypatch.setattr(RadicalNumber, "float_with_error", counting)
        result = SweepResult()
        reports = []
        for g in (petersen_graph(), complete_graph(4)):
            graph_reports = run_checks(g)
            result.absorb("g", graph_reports)
            reports.extend(graph_reports)
        assert calls == []
        assert sum(r.mode == "exact" for r in reports) > 20
        for report in reports:
            payload = report.to_dict()
            for key in ("lhs", "rhs"):
                side = getattr(report, key)
                if side.exact is not None:
                    approx, error = side.exact.float_with_error()
                    assert payload[key]["approx"] == approx
                    assert payload[key]["error"] == error
        assert calls


class TestEnclosureOncePerValue:
    def test_run_checks_bounds_each_value_once(self, monkeypatch):
        from gaindex import radicals

        bounded = []
        original = RadicalNumber._interval

        def counting(self, bits):
            if bits == radicals._START_BITS:
                bounded.append(self)  # kept alive, so no id is reused
            return original(self, bits)

        monkeypatch.setattr(RadicalNumber, "_interval", counting)
        run_checks(petersen_graph())
        assert bounded
        assert len({id(v) for v in bounded}) == len(bounded)


class TestConnectivityOncePerGraph:
    @pytest.mark.parametrize(
        "g",
        [
            from_edge_list(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]),
            path_graph(5),
        ],
        ids=["bowtie", "P5"],
    )
    def test_one_search_of_the_graph_and_none_of_its_line_graph(self, g, monkeypatch):
        import gaindex.linegraph as linegraph
        from gaindex.graphs import Graph

        calls = []
        search = Graph.is_connected.fget
        split = linegraph.components

        def counting_search(self):
            calls.append(self.n)
            return search(self)

        def counting_split(h):
            calls.append(h.n)
            return split(h)

        monkeypatch.setattr(Graph, "is_connected", property(counting_search))
        monkeypatch.setattr(linegraph, "components", counting_split)
        ids = {r.check_id for r in run_checks(g)}
        assert {"order_size_bounds.order", "line_tree_iff", "star_lower_bound"} <= ids
        assert calls == [5]  # the components of G; L(G) has g.m vertices


class TestOutOfRangeAlpha:
    @pytest.mark.parametrize("alpha", [1e300, float("inf"), float("nan")])
    @pytest.mark.parametrize(
        "checker", [check_variable_zagreb_bound, check_line_variable_zagreb_bound]
    )
    def test_skipped_with_alpha_named(self, checker, alpha):
        for g in (cycle_graph(4), complete_graph(4), petersen_graph()):
            (report,) = checker(GraphFacts(g), alpha)
            assert report.mode == "skipped" and not report.preconditions_met
            assert not report.violated
            assert "alpha=" in report.notes

    @pytest.mark.parametrize(
        "checker", [check_variable_zagreb_bound, check_line_variable_zagreb_bound]
    )
    def test_alpha_whose_double_is_infinite(self, checker):
        # 2 * 1.7e308 overflows to inf, so the alpha cannot snap exactly.
        (report,) = checker(GraphFacts(cycle_graph(4)), 1.7e308)
        assert report.mode == "skipped" and not report.preconditions_met
        assert "alpha=" in report.notes

    @pytest.mark.parametrize(
        "checker", [check_variable_zagreb_bound, check_line_variable_zagreb_bound]
    )
    @pytest.mark.parametrize("exponent", [300, 400])
    def test_positive_alpha_below_the_float_range(self, checker, exponent):
        # float(1/10**400) is 0.0, but the sign of alpha is read exactly, so
        # float mode takes both alphas and skips them as out of range.
        alpha = Fraction(1, 10**exponent)
        (report,) = checker(GraphFacts(cycle_graph(4)), alpha)
        assert report.mode == "skipped" and not report.violated
        assert report.notes.startswith(f"alpha={alpha} is out of range: ")

    @pytest.mark.parametrize(
        "checker", [check_variable_zagreb_bound, check_line_variable_zagreb_bound]
    )
    def test_unusable_alpha_reported_before_the_graph_reason(self, checker):
        (report,) = checker(GraphFacts(from_edge_list(1, [])), alpha=0)
        assert report.notes == "needs alpha > 0, got 0"

    def test_fraction_too_large_for_a_float(self):
        f = GraphFacts(cycle_graph(4))
        (report,) = check_variable_zagreb_bound(f, Fraction(10**400))
        assert report.mode == "skipped" and "alpha=" in report.notes

    def test_run_checks_keeps_in_range_alphas(self):
        reports = run_checks(
            cycle_graph(4), ids=["variable_zagreb_bound"], alphas=(1, 1e300)
        )
        assert [r.mode for r in reports] == ["exact", "skipped"]
        assert reports[0].holds and reports[0].equality


class TestSharedFacts:
    def test_one_line_graph_and_one_component_list_per_run(self, monkeypatch):
        import gaindex.checks
        import gaindex.graphs
        import gaindex.linegraph

        calls = {"components": 0, "line_graph": 0}
        for name in calls:

            def counting(g, _name=name, _original=getattr(gaindex.linegraph, name)):
                calls[_name] += 1
                return _original(g)

            for module in (gaindex.graphs, gaindex.linegraph, gaindex.checks):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting)
        reports = run_checks(petersen_graph())
        assert calls == {"components": 1, "line_graph": 0}
        assert len(reports) > 20 and not any(r.violated for r in reports)

    def test_no_line_graph_is_built(self, monkeypatch):
        import gaindex.linegraph
        from gaindex.enumeration import random_connected

        graphs = [petersen_graph()]
        rng = random.Random(17)
        while len(graphs) < 2:
            g = random_connected(rng, 12)
            if g.n == 12 and g.min_degree > 1:
                graphs.append(g)

        def refuse(*args):
            raise AssertionError("run_checks built a line graph")

        for name in ("line_graph", "from_edge_list"):
            monkeypatch.setattr(gaindex.linegraph, name, refuse)
        for g in graphs:
            reports = run_checks(g)
            ran = {r.check_id for r in reports if r.preconditions_met}
            assert {"line_ga_bounds.upper", "line_tree_iff", "line_zagreb_lower"} <= ran
            assert not any(r.violated for r in reports)


class TestFloatPathAgreesWithExact:
    def test_alpha_half_and_one_on_connected_graphs_up_to_six(self, monkeypatch):
        # Covers every connected graph with n <= 7.  Float mode is forced by
        # making every alpha fail to snap to a half-integer.
        import gaindex.checks
        from gaindex.enumeration import connected_with_edges

        cases = []
        for g in connected_with_edges(7):
            facts = GraphFacts(g)
            checkers = [check_variable_zagreb_bound]
            # Min degree 1 takes the vacuous exact branch in both modes.
            if facts.nontrivial_reason is None and g.min_degree > 1:
                checkers.append(check_line_variable_zagreb_bound)
            for alpha in (Fraction(1, 2), Fraction(1)):
                for checker in checkers:
                    (exact,) = checker(facts, alpha)
                    cases.append((g, checker, alpha, facts, exact))
        monkeypatch.setattr(gaindex.checks, "_snap_exponent", lambda alpha: None)
        for g, checker, alpha, facts, exact in cases:
            (approx,) = checker(facts, alpha)
            assert (exact.mode, approx.mode) == ("exact", "float")
            assert (approx.holds, approx.equality) == (
                exact.holds,
                exact.equality,
            ), (g, checker.__name__, alpha)
        assert len(cases) > 500


class TestRelabeling:
    def test_relabeled_graphs_keep_every_verdict(self):
        # Three seeded relabelings of every connected graph with 2 <= n <= 6.
        # An n = 8 and a random n <= 12 version run in CI, outside tier-1.
        rng = random.Random(13)
        relabeled = 0
        for n in range(2, 7):
            for g in enumerate_connected(n):
                expected = labeling_free_verdicts(run_checks(g))
                for _ in range(3):
                    h = relabel(g, rng.sample(range(n), n))
                    got = labeling_free_verdicts(run_checks(h))
                    assert got == expected, (to_graph6(g), to_graph6(h))
                    relabeled += 1
        assert relabeled == 3 * 142


class TestRandomSweepSources:
    def test_failure_names_the_graph_by_graph6(self, monkeypatch):
        from dataclasses import replace

        import gaindex.sweeps
        from gaindex.formats import parse_graph6
        from gaindex.report import skipped_report

        drawn = []

        def violating(g, alphas=None):
            drawn.append(g)
            forced = skipped_report("fake", ">=", "forced")
            return [replace(forced, preconditions_met=True, holds=False)]

        monkeypatch.setattr(gaindex.sweeps, "run_checks", violating)
        result = gaindex.sweeps.random_sweep(3, seed=5)
        assert len(result.failures) == len(drawn) == 3
        for (source, _), g in zip(result.failures, drawn):
            assert source.startswith("random:")
            assert parse_graph6(source[len("random:"):]) == g


class TestSweepResult:
    def test_violated_and_mismatched_report_is_one_failure(self):
        from gaindex.report import exact_report

        report = exact_report(
            "x", ">=", RadicalNumber(1), RadicalNumber(2), predicted_equality=True
        )
        assert report.violated and report.characterization_consistent is False
        result = SweepResult()
        result.absorb("src", [report])
        assert result.failures == [("src", report)]
        agg = result.aggregates["x"]
        assert (agg.tested, agg.violations, agg.mismatches) == (1, 1, 1)


class TestExhaustiveSweepSources:
    def test_failure_names_the_graph_by_graph6(self, monkeypatch):
        from dataclasses import replace

        import gaindex.sweeps
        from gaindex.formats import parse_graph6
        from gaindex.report import skipped_report

        swept = []

        def violating(facts, alphas=None):
            swept.append(facts.graph)
            forced = skipped_report("fake", ">=", "forced")
            return [replace(forced, preconditions_met=True, holds=False)]

        monkeypatch.setattr(gaindex.sweeps, "run_checks", violating)
        result = gaindex.sweeps.exhaustive_sweep(3)
        assert len(result.failures) == len(swept) == 3  # P2, P3 and K3
        for (source, _), g in zip(result.failures, swept):
            assert source.startswith("exhaustive:")
            assert parse_graph6(source[len("exhaustive:"):]) == g

    def test_bucket_mismatch_is_one_failing_exact_record(self, monkeypatch):
        import gaindex.sweeps

        monkeypatch.setattr(
            gaindex.sweeps, "expected_small_value_families", lambda: {}
        )
        result = gaindex.sweeps.exhaustive_sweep(6)
        ((source, report),) = result.failures
        assert source == "buckets" and report.check_id == "small_value_buckets"
        assert report.mode == "exact" and report.preconditions_met
        assert report.violated and report.notes == "bucket membership mismatch"


class TestRecordInvariant:
    def test_skipped_exactly_when_preconditions_fail(self):
        # Every connected graph with n <= 6, K1, 2K2 and P3 + C3, and both
        # worked families, including the degenerate double star.
        graphs = [g for n in range(1, 7) for g in enumerate_connected(n)]
        graphs += [
            disjoint_union(path_graph(2), path_graph(2)),
            disjoint_union(path_graph(3), cycle_graph(3)),
        ]
        reports = [r for g in graphs for r in run_checks(g)]
        reports += [
            check_double_star_rational(1, 2),
            check_double_star_rational(2, 3),
            check_complete_bipartite_integer(1),
        ]
        for r in reports:
            assert (r.mode == "skipped") == (not r.preconditions_met), r


# Every reason a graph checker gives for a skipped report, as a full match:
# those of GraphFacts, the checkers' own, and those of an unusable alpha.
SKIP_REASONS = (
    r"graph has no edges",
    r"every component must contain an edge \(isolated vertices present\)",
    r"every component must have at least two edges",
    r"requires a connected graph",
    r"needs max degree <= n-2 \(have \d+ on n=\d+\)",
    r"tail comparison needs m >= n-1 \(true for connected graphs\)",
    r"edge \(\d+,\d+\) is a single-edge component; deletion leaves exact "
    r"equality, the strict drop needs an adjacent edge",
    r"no minimal edge",
    r"a component is the 3-vertex path",
    r"every component must be regular or biregular",
    r"a component is a path on at most 6 vertices",
    r"needs alpha > 0, got 0",
    r"alpha=10{300} is out of range: .+",
    r"alpha=10{400} is too large for a float",
    r"alpha=inf is not finite",
)


@pytest.fixture(scope="module")
def every_graph_up_to_seven():
    """Every graph with n <= 7, connected or not, by order, and its reports
    at the default alphas and at one alpha per alpha reason."""
    by_order = all_graphs(7)
    alphas = (*DEFAULT_ALPHAS, 0, 10**300, 10**400, math.inf)
    checked = [(g, run_checks(g, alphas=alphas)) for order in by_order for g in order]
    return by_order, checked


class TestEveryGraphUpToSeven:
    """The sweeps walk connected graphs only; these walk all 1,253 graphs
    with n <= 7, so that every hypothesis meets the graphs it rules out."""

    def test_one_class_per_graph(self, every_graph_up_to_seven):
        by_order, _ = every_graph_up_to_seven
        # OEIS A000088, n = 0..7.
        assert [len(order) for order in by_order] == [1, 1, 2, 4, 11, 34, 156, 1044]
        for order in by_order:
            assert len({canonical_form(g) for g in order}) == len(order)

    def test_no_failures(self, every_graph_up_to_seven):
        _, checked = every_graph_up_to_seven
        result = SweepResult()
        for g, reports in checked:
            result.absorb(to_graph6(g), reports)
        assert [(source, r.check_id) for source, r in result.failures] == []

    def test_one_relation_per_check_id(self, every_graph_up_to_seven):
        _, checked = every_graph_up_to_seven
        relations: dict[str, set[str]] = {}
        modes = set()
        for _, reports in checked:
            for r in reports:
                relations.setdefault(r.check_id, set()).add(r.relation)
                modes.add(r.mode)
        assert modes == {"exact", "float", "skipped"}
        assert {k: v for k, v in relations.items() if len(v) > 1} == {}

    def test_skipped_rows_pinned(self, every_graph_up_to_seven):
        _, checked = every_graph_up_to_seven
        lines = sorted(
            f"{r.check_id}|{r.relation}|{r.notes}\n"
            for _, reports in checked
            for r in reports
            if r.mode == "skipped"
        )
        assert len(lines) == 17507
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        expected = "d04a101a4d995f6276ced0ba60e3d63d48413ff7d001f820b4ce6b47c1602b6e"
        assert digest == expected

    def test_every_skip_reason_given(self, every_graph_up_to_seven):
        _, checked = every_graph_up_to_seven
        notes = {r.notes for _, rows in checked for r in rows if r.mode == "skipped"}
        matched = {p: {n for n in notes if re.fullmatch(p, n)} for p in SKIP_REASONS}
        assert [p for p, hits in matched.items() if not hits] == []
        assert notes == set().union(*matched.values())
