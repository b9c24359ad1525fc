"""Verification campaigns: exhaustive small-order sweeps plus seeded random ones."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .checks import (
    DEFAULT_ALPHAS,
    check_sqrt_shift_superadditivity,
    check_term_shift_inequality,
    run_checks,
)
from .enumeration import (
    buckets_match_families,
    classify_line_small_values,
    classify_small_values,
    connected_with_edges,
    expected_line_small_value_families,
    expected_small_value_families,
    random_connected,
)
from .formats import to_graph6
from .radicals import RadicalNumber
from .report import CheckReport, exact_report

__all__ = ["CheckAggregate", "SweepResult", "exhaustive_sweep", "random_sweep"]


@dataclass
class CheckAggregate:
    check_id: str
    tested: int = 0
    skipped: int = 0
    violations: int = 0
    equalities: int = 0
    mismatches: int = 0


@dataclass
class SweepResult:
    aggregates: dict[str, CheckAggregate] = field(default_factory=dict)
    failures: list[tuple[str, CheckReport]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.failures

    def absorb(self, source: str, reports: list[CheckReport]) -> None:
        for report in reports:
            agg = self.aggregates.setdefault(
                report.check_id, CheckAggregate(report.check_id)
            )
            if not report.preconditions_met:
                agg.skipped += 1
                continue
            agg.tested += 1
            if report.equality:
                agg.equalities += 1
            if not report.holds:
                agg.violations += 1
                self.failures.append((source, report))
            if report.characterization_consistent is False:
                agg.mismatches += 1
                self.failures.append((source, report))

    def merge(self, other: "SweepResult") -> None:
        """Add another sweep's counts, failures and notes to this one."""
        for check_id, theirs in other.aggregates.items():
            mine = self.aggregates.setdefault(check_id, CheckAggregate(check_id))
            for name in ("tested", "skipped", "violations", "equalities", "mismatches"):
                setattr(mine, name, getattr(mine, name) + getattr(theirs, name))
        self.failures.extend(other.failures)
        self.notes.extend(other.notes)


def exhaustive_sweep(
    n_max: int = 7, alphas: tuple[Fraction, ...] = DEFAULT_ALPHAS
) -> SweepResult:
    """Every checker on every connected graph with an edge, up to order n_max.

    Also reproduces the small-value bucket lists and spot-checks the two
    graph-free inequalities on a rational grid.  A graph's failure source is
    ``exhaustive:<graph6>``, which reproduces the graph.  An n_max above
    ``ENUMERATION_MAX_N`` raises ``ValueError`` before any graph is checked.
    """
    result = SweepResult()
    for g in connected_with_edges(n_max):
        result.absorb(f"exhaustive:{to_graph6(g)}", run_checks(g, alphas=alphas))

    for order, which, label, bucketize, families in (
        (6, "small_value_buckets", "small-value buckets",
         classify_small_values, expected_small_value_families),
        (7, "line_small_value_buckets", "line-graph small-value buckets",
         classify_line_small_values, expected_line_small_value_families),
    ):
        if n_max < order:
            continue
        if buckets_match_families(bucketize(order), families()):
            result.notes.append(f"{label} reproduced exactly")
        else:
            result.notes.append(f"{label} MISMATCH")
            # Not reproduced (0) against 1, truth values as the iff checks write them.
            mismatch = exact_report(
                which,
                "==",
                RadicalNumber(0),
                RadicalNumber(1),
                notes="bucket membership mismatch",
            )
            result.failures.append(("buckets", mismatch))

    for delta in (1, 2, 3, 5):
        for t in (0, Fraction(1, 2), 1, Fraction(7, 3), 5):
            if 2 * delta + t <= 2:
                continue
            result.absorb(
                "scalar-grid", [check_term_shift_inequality(delta, t)]
            )
    for xs in ([2], [2, 2], [3, 5, 2], [Fraction(5, 2), 2, 7, 2]):
        result.absorb("scalar-grid", [check_sqrt_shift_superadditivity(xs)])
    return result


def random_sweep(
    trials: int,
    seed: int,
    n_high: int = 12,
    alphas: tuple[Fraction, ...] = DEFAULT_ALPHAS,
) -> SweepResult:
    """Every checker on seeded random connected graphs (reproducible).

    A failure's source is ``random:<graph6>``, which reproduces the graph.
    """
    rng = random.Random(seed)
    result = SweepResult()
    for _ in range(trials):
        g = random_connected(rng, n_high=n_high)
        result.absorb(f"random:{to_graph6(g)}", run_checks(g, alphas=alphas))
    return result
