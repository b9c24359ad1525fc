"""Acceptance gate: one test per criterion, exact tolerances, stated runtimes.

Each test prints a PASS line with its measured runtime (visible with -s or -v).
Everything exact is compared with zero tolerance in the radical span; float
checkers use relative tolerance 1e-9 with a 256-bit re-check on violations.
"""

from __future__ import annotations

import time

from gaindex.checks import (
    check_complete_bipartite_integer,
    check_double_star_rational,
    check_edge_deletion_drop,
    check_line_zagreb_identity,
    check_rationality,
    run_checks,
)
from gaindex.enumeration import (
    connected_nontrivial,
    connected_with_edges,
    expected_line_small_value_families,
    expected_small_value_families,
    line_graph_preimages,
    random_connected,
    verify_no_preimage,
)
from gaindex.graphs import (
    canonical_form,
    cycle_graph,
    double_star_graph,
    graph_name,
    is_minimal_edge,
    path_graph,
    paw_graph,
    star_graph,
)
from gaindex.indices import ga1, m1
from gaindex.linegraph import GraphFacts, line_graph, verify_degree_identity
from gaindex.radicals import radical_sqrt
from gaindex.sweeps import exhaustive_sweep
from graph_helpers import parse_radical
import random


def _finish(number: int, description: str, started: float, bound: float | None):
    elapsed = time.monotonic() - started
    print(f"PASS criterion {number} ({elapsed:.2f}s): {description}")
    if bound is not None:
        assert elapsed < bound, f"criterion {number} exceeded {bound}s ({elapsed:.2f}s)"


EXACT_TABLE = [
    (path_graph(2), "1"),
    (path_graph(3), "4/3*sqrt(2)"),
    (cycle_graph(3), "3"),
    (path_graph(4), "1 + 4/3*sqrt(2)"),
    (star_graph(4), "3/2*sqrt(3)"),
    (star_graph(6), "5/3*sqrt(5)"),
    (star_graph(5), "16/5"),
    (path_graph(5), "2 + 4/3*sqrt(2)"),
    (double_star_graph(1, 2), "2/3*sqrt(2) + sqrt(3) + 2/5*sqrt(6)"),
    (cycle_graph(4), "4"),
    (paw_graph(), "1 + 1/2*sqrt(3) + 4/5*sqrt(6)"),
]


def test_criterion_1_exact_value_table():
    started = time.monotonic()
    for g, expected_text in EXACT_TABLE:
        value = ga1(g).exact
        assert value is not None
        assert value == parse_radical(expected_text), (
            f"GA1 mismatch for {g}: got {value}, want {expected_text}"
        )
    _finish(1, "exact GA1 value table, zero tolerance", started, bound=1.0)


LINE_VALUE_TABLE = {
    "P3": "1",
    "P4": "4/3*sqrt(2)",
    "C3": "3",
    "S4": "3",
    "P5": "1 + 4/3*sqrt(2)",
    "P6": "2 + 4/3*sqrt(2)",
    "C4": "4",
    "DS1,2": "1 + 1/2*sqrt(3) + 4/5*sqrt(6)",
}


def test_criterion_2_bucket_reproduction():
    started = time.monotonic()
    notes = exhaustive_sweep(7).notes
    assert "small-value buckets reproduced exactly" in notes
    assert "line-graph small-value buckets reproduced exactly" in notes
    # Each list's members are the expected graphs, up to isomorphism, so
    # their values are those of the expected graphs.
    values = {
        graph_name(g): GraphFacts(g).ga1
        for graphs in expected_small_value_families().values()
        for g in graphs
    }
    assert values == {graph_name(g): parse_radical(text) for g, text in EXACT_TABLE}
    line_values = {
        graph_name(g): GraphFacts(g).line.ga1
        for graphs in expected_line_small_value_families().values()
        for g in graphs
    }
    assert line_values == {name: parse_radical(text) for name, text in LINE_VALUE_TABLE.items()}
    _finish(2, "both small-value classifications reproduced exactly", started, 120.0)


def test_criterion_3_identity_suite():
    started = time.monotonic()
    count = 0
    for g in connected_nontrivial(7):
        lg = line_graph(g)
        assert lg.n == g.m
        m1g = m1(g).exact
        assert m1g is not None and m1g.is_rational
        assert 2 * lg.m == int(m1g.rational_part) - 2 * g.m
        assert verify_degree_identity(GraphFacts(g))
        (report,) = check_line_zagreb_identity(GraphFacts(g))
        assert report.holds and report.mode == "exact"
        count += 1
    assert count == 994  # connected non-trivial classes with n <= 7
    _finish(3, f"line-graph identity suite on {count} graphs, exact", started, 300.0)


def test_criterion_4_inequality_soundness():
    started = time.monotonic()
    violations = []
    tested = 0
    for g in connected_nontrivial(7):
        for report in run_checks(g):
            if report.violated:
                violations.append((canonical_form(g), report))
            tested += 1
    rng = random.Random(42)
    for i in range(10_000):
        g = random_connected(rng, n_high=12)
        for report in run_checks(g):
            if report.violated:
                violations.append((f"random[{i}]", report))
            tested += 1
    assert not violations, violations[:5]
    _finish(
        4,
        f"{tested} checker verdicts (exhaustive n<=7 + 10000 random n<=12), "
        "zero violations",
        started,
        900.0,
    )


CHARACTERIZED = (
    "extreme_degree_bounds.lower",
    "extreme_degree_bounds.upper",
    "star_lower_bound",
    "line_ga_bounds.lower",
    "line_ga_bounds.upper",
    "nordhaus_gaddum.lower",
    "nordhaus_gaddum.upper",
    "three_half_zagreb_bound",
)


def test_criterion_5_equality_characterizations():
    started = time.monotonic()
    mismatches = []
    ids = [
        "extreme_degree_bounds",
        "star_lower_bound",
        "line_ga_bounds",
        "nordhaus_gaddum",
        "three_half_zagreb_bound",
    ]
    for g in connected_with_edges(7):
        for report in run_checks(g, ids=ids):
            if not report.preconditions_met:
                continue
            assert report.check_id in CHARACTERIZED
            assert report.mode == "exact"
            if report.characterization_consistent is not True:
                mismatches.append((canonical_form(g), report.check_id))
    assert not mismatches, mismatches[:5]
    _finish(5, "equality <=> structural characterization, exact, n<=7", started, None)


def test_criterion_6_rationality_law_and_families():
    started = time.monotonic()
    for g in connected_with_edges(7):
        report = check_rationality(GraphFacts(g))[0]
        assert report.holds
        value = ga1(g).exact
        assert value is not None
        squares = all(radical_sqrt(g.deg[u] * g.deg[v])[1] == 1 for u, v in g.edges)
        assert value.is_rational == squares
    for n1 in (2, 3, 4):
        for n2 in (2, 3, 4):
            if n1 == n2:
                continue
            report = check_double_star_rational(n1, n2)
            assert report.holds and report.preconditions_met and report.equality
    expected_values = {1: 80, 2: 320, 3: 720, 4: 1280, 5: 2000}
    for k, expected in expected_values.items():
        report = check_complete_bipartite_integer(k)
        assert report.holds
        assert report.lhs.exact is not None and report.lhs.exact.is_rational
        assert report.lhs.exact.rational_part == expected
    _finish(6, "rationality law (n<=7) plus both worked families, exact", started, None)


def test_criterion_7_no_preimage_facts():
    started = time.monotonic()
    assert verify_no_preimage(double_star_graph(1, 2))
    for n in (4, 5, 6):
        assert verify_no_preimage(star_graph(n))
    preimages = line_graph_preimages(cycle_graph(3))
    forms = sorted(canonical_form(g) for g in preimages)
    expected = sorted(
        canonical_form(g) for g in (cycle_graph(3), star_graph(4))
    )
    assert forms == expected
    _finish(7, "line-graph preimage facts verified exhaustively", started, None)


def test_criterion_8_edge_deletion_monotonicity():
    started = time.monotonic()
    evaluated = 0
    minimal_edges = 0
    for g in connected_with_edges(6):
        minimal_edges += sum(1 for e in g.edges if is_minimal_edge(g, e))
        for report in check_edge_deletion_drop(GraphFacts(g)):
            if not report.preconditions_met:
                # Valid skips: no minimal edge at all, or the deleted edge is
                # its own component (only P2 here), where the drop is exact.
                assert (
                    "single-edge component" in report.notes
                    or "no minimal edge" in report.notes
                )
                continue
            assert report.holds and report.mode == "exact"
            evaluated += 1
    assert evaluated == minimal_edges - 1  # all but the lone edge of P2
    assert evaluated > 300
    _finish(
        8,
        f"strict drop for all {evaluated} minimal-edge deletions (n<=6), exact",
        started,
        None,
    )
