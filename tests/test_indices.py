"""Index computations: exact values, wrappers, additivity, float agreement."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from gaindex.graphs import (
    complete_bipartite_graph,
    cycle_graph,
    from_edge_list,
    path_graph,
    paw_graph,
    star_graph,
)
from graph_helpers import disjoint_union, exact_pow, parse_radical
from gaindex.indices import (
    MAX_EXACT_EXPONENT,
    IndexValue,
    NotRadicalError,
    _power_sum,
    chi_alpha,
    forgotten,
    ga1,
    harmonic,
    inverse_degree,
    m1,
    m1_alpha,
    m2,
    m2_alpha,
    randic,
    sum_connectivity,
)
from gaindex.radicals import RadicalNumber


def random_graph(rng, n, p=0.5):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edge_list(n, pairs)


def ga1_float_oracle(g) -> float:
    return sum(
        2 * math.sqrt(g.deg[u] * g.deg[v]) / (g.deg[u] + g.deg[v]) for u, v in g.edges
    )


class TestIndexValue:
    def test_exact_estimate_is_the_kept_display_pair(self):
        v = parse_radical("1/3 + 2*sqrt(6)")
        estimate = IndexValue.of_exact(v).estimate()
        assert estimate is v.float_with_error()
        assert estimate == v._float_with_error(53)

    def test_compares_by_value(self):
        v = RadicalNumber(2)
        assert IndexValue.of_exact(v) == IndexValue.of_exact(v)
        assert IndexValue.of_exact(v) == (v, v.float_with_error)


class TestGA1Exact:
    def test_single_edge(self):
        assert ga1(path_graph(2)).exact == RadicalNumber(1)

    def test_star5(self):
        assert ga1(star_graph(5)).exact == RadicalNumber(Fraction(16, 5))

    def test_paw(self):
        expected = parse_radical("1 + 1/2*sqrt(3) + 4/5*sqrt(6)")
        assert ga1(paw_graph()).exact == expected

    def test_matches_float_oracle(self):
        rng = random.Random(21)
        for _ in range(100):
            g = random_graph(rng, rng.randint(2, 9))
            if g.isolated_vertices or g.m == 0:
                continue
            assert ga1(g).approx == pytest.approx(ga1_float_oracle(g), rel=1e-12)

    def test_rejects_isolated_vertices(self):
        with pytest.raises(ValueError, match="isolated"):
            ga1(from_edge_list(3, [(0, 1)]))

    def test_rejects_edgeless(self):
        with pytest.raises(ValueError):
            ga1(from_edge_list(1, []))


class TestVariableIndices:
    def test_m1_alpha_square(self):
        assert m1_alpha(cycle_graph(4), 2).exact == RadicalNumber(16)

    def test_m1_alpha_cube_is_forgotten(self):
        g = cycle_graph(4)
        assert m1_alpha(g, 3).exact == RadicalNumber(32)
        assert forgotten(g).exact == m1_alpha(g, 3).exact

    def test_chi_three_halves(self):
        assert chi_alpha(cycle_graph(4), Fraction(3, 2)).exact == RadicalNumber(32)

    def test_half_integer_string_input_snaps(self):
        g = cycle_graph(4)
        assert chi_alpha(g, 1.5).exact == RadicalNumber(32)

    def test_negative_half_exact(self):
        # Randic of C4: 4 edges * (2*2)^(-1/2) = 2.
        assert m2_alpha(cycle_graph(4), Fraction(-1, 2)).exact == RadicalNumber(2)

    def test_irrational_exponent_float_path(self):
        g = cycle_graph(4)
        value = chi_alpha(g, 0.37)
        assert value.exact is None
        assert value.approx == pytest.approx(4 * 4**0.37, rel=1e-12)

    def test_irrational_radical_exponent(self):
        g = star_graph(4)  # degrees 3,1,1,1
        value = m1_alpha(g, Fraction(1, 2))
        assert value.exact == RadicalNumber({3: 1, 1: 3})

    def test_float_path_sums_left_to_right(self):
        # Python 3.12's sum() compensates float rounding and gives
        # 5.978005393200231 and 8.180569478715332 here, so output would
        # depend on the interpreter.
        g = from_edge_list(5, [(0, 4), (1, 4), (2, 3), (2, 4), (3, 4)])
        assert m1_alpha(g, 0.3).approx == 5.97800539320023
        assert chi_alpha(g, 0.3).approx == 8.180569478715334

    @pytest.mark.parametrize(
        "alpha", [10**300, 1e300, -(10**300), MAX_EXACT_EXPONENT + 1]
    )
    def test_exact_exponent_limit(self, alpha):
        with pytest.raises(ValueError, match="MAX_EXACT_EXPONENT"):
            m1_alpha(star_graph(5), alpha)

    def test_exponent_at_the_limit_is_exact(self):
        value = m1_alpha(star_graph(5), MAX_EXACT_EXPONENT)
        assert value.exact == RadicalNumber(4**MAX_EXACT_EXPONENT + 4)


class TestExactPow:
    @given(
        st.fractions(min_value=0, max_value=50, max_denominator=20),
        st.integers(min_value=-12, max_value=12),
    )
    def test_matches_float_power_on_rational_bases(self, base, doubled):
        alpha = Fraction(doubled, 2)
        assume(base or alpha >= 0)
        value = exact_pow(base, alpha)
        assert value.to_float() == pytest.approx(float(base) ** float(alpha), rel=1e-12)

    @given(
        st.fractions(min_value=0, max_value=50, max_denominator=20),
        st.integers(min_value=-12, max_value=12),
    )
    def test_square_is_the_rational_power(self, base, doubled):
        assume(base or doubled >= 0)
        value = exact_pow(base, Fraction(doubled, 2))
        assert value * value == RadicalNumber(base**doubled)

    @pytest.mark.parametrize("alpha", [-1, Fraction(-1, 2), Fraction(-7, 2)])
    def test_zero_to_a_negative_power_raises(self, alpha):
        with pytest.raises(ZeroDivisionError):
            exact_pow(0, alpha)

    @pytest.mark.parametrize("alpha", [Fraction(1, 3), Fraction(1, 4), 0.25])
    def test_exponent_outside_half_integers_raises(self, alpha):
        with pytest.raises(NotRadicalError):
            exact_pow(2, alpha)

    def test_irrational_radical_to_a_half_raises(self):
        with pytest.raises(NotRadicalError):
            exact_pow(RadicalNumber({2: 1, 1: 1}), Fraction(1, 2))

    def test_radical_bases(self):
        irrational = RadicalNumber({2: 3})
        assert exact_pow(irrational, 1) == irrational
        assert exact_pow(RadicalNumber(Fraction(9, 4)), 0.5) == RadicalNumber(
            Fraction(3, 2)
        )

    @given(
        st.fractions(min_value=0, max_value=50, max_denominator=20),
        st.integers(min_value=-12, max_value=12),
        st.integers(min_value=1, max_value=6),
    )
    def test_half_integer_pairs_match_fractions(self, base, doubled, scale):
        # (doubled * scale, 2 * scale) is doubled/2 in any terms, reduced or not.
        assume(base or doubled >= 0)
        pair = (doubled * scale, 2 * scale)
        assert exact_pow(base, pair) == exact_pow(base, Fraction(doubled, 2))
        assert exact_pow(RadicalNumber(base), pair) == exact_pow(base, pair)

    @pytest.mark.parametrize("pair", [(1, 3), (2, 6), (-1, 4), (5, 4), (3, 10)])
    def test_other_pairs_raise(self, pair):
        with pytest.raises(NotRadicalError):
            exact_pow(2, pair)

    def test_pairs_obey_the_exponent_limit(self):
        limit = MAX_EXACT_EXPONENT
        assert exact_pow(2, (2 * limit, 2)) == RadicalNumber(2**limit)
        assert exact_pow(2, (-3 * limit, 3)) == RadicalNumber(Fraction(1, 2**limit))
        for pair in [(2 * limit + 1, 2), (-(limit + 1), 1), (4 * limit + 4, 4)]:
            with pytest.raises(ValueError, match="MAX_EXACT_EXPONENT"):
                exact_pow(2, pair)


class TestPowerSum:
    @given(
        st.dictionaries(st.integers(min_value=1, max_value=40), st.integers(1, 9)),
        st.integers(min_value=-9, max_value=9),
    )
    def test_matches_the_sum_of_powers(self, counts, doubled):
        expected = RadicalNumber(0)
        for base, count in counts.items():
            expected = expected + count * exact_pow(base, Fraction(doubled, 2))
        assert _power_sum(counts.items(), (doubled, 2)) == expected
        # Repeated bases are separate terms.
        twice = list(counts.items()) * 2
        assert _power_sum(twice, Fraction(doubled, 2)) == expected * 2

    def test_every_exponent_matches_the_powers_term_by_term(self):
        # Bases sharing a squarefree part (2, 8, 18, ...) add into one radical.
        rng = random.Random(23)
        for _ in range(20):
            terms = [(rng.randint(1, 60), rng.randint(1, 30)) for _ in range(12)]
            terms += [(2 * k * k, rng.randint(1, 5)) for k in range(1, 5)]
            for doubled in range(-6, 7):
                alpha = Fraction(doubled, 2)
                expected = sum(
                    (count * exact_pow(base, alpha) for base, count in terms),
                    RadicalNumber(0),
                )
                assert _power_sum(terms, alpha) == expected, (terms, alpha)

    @pytest.mark.parametrize("base", [-2, Fraction(1, 2), 2.0, RadicalNumber(2)])
    def test_integer_bases_only(self, base):
        for alpha in (2, Fraction(1, 2)):
            with pytest.raises(ValueError, match="integer bases"):
                _power_sum([(base, 1)], alpha)

    def test_integer_exponents_give_rationals(self):
        degrees = {3: 2, 2: 5}  # two vertices of degree 3, five of degree 2
        assert _power_sum(degrees.items(), 0) == RadicalNumber(7)
        assert _power_sum(degrees.items(), (0, 4)) == RadicalNumber(7)
        assert _power_sum(degrees.items(), 2) == RadicalNumber(38)
        assert _power_sum(degrees.items(), -1) == RadicalNumber(Fraction(19, 6))

    def test_zero_base(self):
        assert _power_sum([(0, 3), (4, 1)], (1, 2)) == RadicalNumber(2)
        assert _power_sum([(0, 3)], 0) == RadicalNumber(3)
        for alpha in [-1, Fraction(-1, 2)]:
            with pytest.raises(ZeroDivisionError):
                _power_sum([(0, 1), (2, 1)], alpha)

    def test_half_integers_only(self):
        with pytest.raises(NotRadicalError):
            _power_sum([(2, 1)], (1, 3))
        with pytest.raises(ValueError, match="MAX_EXACT_EXPONENT"):
            _power_sum([(2, 1)], MAX_EXACT_EXPONENT + 1)


class TestNamedWrappers:
    def test_harmonic_c4(self):
        assert harmonic(cycle_graph(4)).exact == RadicalNumber(2)

    def test_randic_c4(self):
        assert randic(cycle_graph(4)).exact == RadicalNumber(2)

    def test_m2_star4(self):
        assert m2(star_graph(4)).exact == RadicalNumber(9)

    def test_inverse_degree(self):
        assert inverse_degree(star_graph(4)).exact == RadicalNumber(
            Fraction(1, 3) + 3
        )

    def test_identity_chain(self):
        rng = random.Random(31)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 8))
            if g.isolated_vertices or g.m == 0:
                continue
            assert m1_alpha(g, 2).exact == m1(g).exact
            assert m2_alpha(g, Fraction(-1, 2)).exact == randic(g).exact
            assert 2 * chi_alpha(g, -1).exact == harmonic(g).exact
            assert chi_alpha(g, Fraction(-1, 2)).exact == sum_connectivity(g).exact


class TestStructuralIdentities:
    def test_additivity_over_components(self):
        rng = random.Random(41)
        for _ in range(30):
            a = random_graph(rng, rng.randint(2, 6))
            b = random_graph(rng, rng.randint(2, 6))
            if a.isolated_vertices or b.isolated_vertices or not a.m or not b.m:
                continue
            both = disjoint_union(a, b)
            assert ga1(both).exact == ga1(a).exact + ga1(b).exact
            assert m1(both).exact == m1(a).exact + m1(b).exact
            assert randic(both).exact == randic(a).exact + randic(b).exact

    def test_regular_values(self):
        for n in (3, 4, 5, 6, 7):
            g = cycle_graph(n)
            assert ga1(g).exact == RadicalNumber(n)  # GA1 = m for regular
            assert m1(g).exact == RadicalNumber(4 * n)  # n * r^2
            assert chi_alpha(g, 2).exact == RadicalNumber(16 * n)  # m * (2r)^alpha

    def test_ga1_at_most_edge_count(self):
        rng = random.Random(51)
        for _ in range(50):
            g = random_graph(rng, rng.randint(2, 8))
            if g.isolated_vertices or g.m == 0:
                continue
            value = ga1(g).exact
            assert value <= g.m
            all_equal_endpoints = all(g.deg[u] == g.deg[v] for u, v in g.edges)
            assert (value == g.m) == all_equal_endpoints

    def test_exact_and_float_paths_agree(self):
        rng = random.Random(61)
        exponents = [-2, -1, Fraction(-1, 2), 1, Fraction(3, 2), 2, 3]
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 8))
            if g.isolated_vertices or g.m == 0:
                continue
            for alpha in exponents:
                for fn, count_base in (
                    (m1_alpha, [g.deg[v] for v in range(g.n)]),
                    (m2_alpha, [g.deg[u] * g.deg[v] for u, v in g.edges]),
                    (chi_alpha, [g.deg[u] + g.deg[v] for u, v in g.edges]),
                ):
                    value = fn(g, alpha)
                    oracle = sum(b ** float(alpha) for b in count_base)
                    assert value.approx == pytest.approx(oracle, rel=1e-12)

    def test_complete_bipartite_value(self):
        value = ga1(complete_bipartite_graph(5, 20)).exact
        assert value == RadicalNumber(80)
        assert value.is_integer
