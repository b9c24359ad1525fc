"""One checker per inequality/identity, each returning verdict reports.

Checkers validate their own hypotheses (reported as ``preconditions_met``
rather than raised) and decide exactly whenever both sides live in the
radical span.  Each reads its graph through a :class:`GraphFacts`; a plain
``Graph`` is accepted too, and ``run_checks`` builds one ``GraphFacts`` per
graph so that every checker shares its components, indices and line graph.
Quotient bounds are decided exactly by cross-multiplication, so equality
characterizations never depend on floating point.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Callable, Iterable, Sequence

from .graphs import (
    Graph,
    is_biregular,
    is_minimal_edge,
    is_path,
    is_regular,
    is_star,
)
from .indices import NotRadicalError, _exact_pow, _ga1_exact, _snap_exponent
from .linegraph import (
    GraphFacts,
    line_regularity_characterization,
    line_tree_characterization,
    line_zagreb_identity,
    regular_line_condition,
)
from .radicals import RadicalNumber, compare, radical_sqrt
from .report import CheckReport, exact_report, float_report, skipped_report

__all__ = [
    "ga_edge_term",
    "ga_ratio_curve",
    "check_extreme_degree_bounds",
    "check_order_size_bounds",
    "check_star_lower_bound",
    "check_no_universal_vertex_bound",
    "check_edge_deletion_drop",
    "check_rationality",
    "check_line_ga_bounds",
    "check_nordhaus_gaddum",
    "check_line_ga_ratio_bound",
    "check_line_vs_graph_regular",
    "check_line_order_bound",
    "check_line_sqrt_bound",
    "check_line_zagreb_lower",
    "check_variable_zagreb_bound",
    "check_line_variable_zagreb_bound",
    "check_three_half_zagreb_bound",
    "check_line_three_half_zagreb_bound",
    "check_term_shift_inequality",
    "check_sqrt_shift_superadditivity",
    "CHECK_IDS",
    "DEFAULT_ALPHAS",
    "run_checks",
]

DEFAULT_ALPHAS: tuple[Fraction, ...] = (Fraction(1, 2), Fraction(1), Fraction(2))

Rational = int | Fraction


# -- helper functions behind most of the bounds ----------------------------


def ga_ratio_curve(t: Rational) -> Fraction:
    """2t/(1+t^2): increases on [0,1], decreases on [1,inf), peaks at t=1."""
    frac = Fraction(t)
    if frac < 0:
        raise ValueError("defined for t >= 0")
    return 2 * frac / (1 + frac * frac)


def ga_edge_term(x: Rational, y: Rational) -> RadicalNumber:
    """2*sqrt(xy)/(x+y), the per-edge term of the geometric-arithmetic index."""
    fx, fy = Fraction(x), Fraction(y)
    if fx <= 0 or fy <= 0:
        raise ValueError("defined for positive arguments")
    return RadicalNumber.sqrt_fraction(fx * fy) * Fraction(2, 1) / (fx + fy)


def _sqrt_scaled(radicand: int, coeff: Fraction) -> RadicalNumber:
    """coeff * sqrt(radicand), tolerating radicand == 0."""
    if radicand == 0 or coeff == 0:
        return RadicalNumber(0)
    return RadicalNumber.sqrt_int(radicand) * coeff


# -- checkers over the base graph ------------------------------------------


def check_extreme_degree_bounds(g: Graph | GraphFacts) -> list[CheckReport]:
    """2m*sqrt(Dd)/(D+d) <= GA1 <= m; lower tight iff regular or biregular,
    upper tight iff regular."""
    f = GraphFacts.of(g)
    if f.edge_reason:
        return [
            skipped_report("extreme_degree_bounds.lower", "<=", f.edge_reason),
            skipped_report("extreme_degree_bounds.upper", "<=", f.edge_reason),
        ]
    g = f.graph
    big, small = g.max_degree, g.min_degree
    lower = _sqrt_scaled(big * small, Fraction(2 * g.m, big + small))
    return [
        exact_report(
            "extreme_degree_bounds.lower",
            "<=",
            lower,
            f.ga1,
            predicted_equality=f.regular or f.biregular,
        ),
        exact_report(
            "extreme_degree_bounds.upper",
            "<=",
            f.ga1,
            RadicalNumber(g.m),
            predicted_equality=f.regular,
        ),
    ]


def check_order_size_bounds(g: Graph | GraphFacts) -> list[CheckReport]:
    """GA1 >= 2(n-1)^(3/2)/n and GA1 >= 2m/n, for connected graphs."""
    f = GraphFacts.of(g)
    g = f.graph
    reason = f.edge_reason
    if reason is None and not g.is_connected:
        reason = "requires a connected graph"
    if reason:
        return [
            skipped_report("order_size_bounds.order", ">=", reason),
            skipped_report("order_size_bounds.size", ">=", reason),
        ]
    n = g.n
    return [
        exact_report(
            "order_size_bounds.order",
            ">=",
            f.ga1,
            _sqrt_scaled(n - 1, Fraction(2 * (n - 1), n)),
        ),
        exact_report(
            "order_size_bounds.size",
            ">=",
            f.ga1,
            RadicalNumber(Fraction(2 * g.m, n)),
        ),
    ]


def check_star_lower_bound(g: Graph | GraphFacts) -> list[CheckReport]:
    """GA1 >= 2m*sqrt(n-1)/n, tight exactly for stars."""
    f = GraphFacts.of(g)
    if f.edge_reason:
        return [skipped_report("star_lower_bound", ">=", f.edge_reason)]
    g = f.graph
    bound = _sqrt_scaled(g.n - 1, Fraction(2 * g.m, g.n))
    return [
        exact_report(
            "star_lower_bound", ">=", f.ga1, bound, predicted_equality=is_star(g)
        )
    ]


def check_no_universal_vertex_bound(g: Graph | GraphFacts) -> list[CheckReport]:
    """With max degree <= n-2: GA1 > 2m*sqrt(n-2)/(n-1), and that bound is
    itself >= 2*sqrt(n-2) once m >= n-1."""
    f = GraphFacts.of(g)
    g = f.graph
    reason = f.edge_reason
    if reason is None and g.max_degree > g.n - 2:
        reason = f"needs max degree <= n-2 (have {g.max_degree} on n={g.n})"
    if reason:
        return [
            skipped_report("no_universal_vertex_bound.strict", ">", reason),
            skipped_report("no_universal_vertex_bound.tail", ">=", reason),
        ]
    bound = _sqrt_scaled(g.n - 2, Fraction(2 * g.m, g.n - 1))
    out = [exact_report("no_universal_vertex_bound.strict", ">", f.ga1, bound)]
    if g.m >= g.n - 1:
        out.append(
            exact_report(
                "no_universal_vertex_bound.tail",
                ">=",
                bound,
                _sqrt_scaled(g.n - 2, Fraction(2)),
            )
        )
    else:
        out.append(
            skipped_report(
                "no_universal_vertex_bound.tail",
                ">=",
                "tail comparison needs m >= n-1 (true for connected graphs)",
            )
        )
    return out


def _pairs_without_edge(f: GraphFacts, u: int, v: int) -> Counter[tuple[int, int]]:
    """Degree-pair counts of G - uv; only the edges at u and v change."""
    deg = f.graph.deg
    pairs = f.degree_pairs.copy()
    pairs[tuple(sorted((deg[u], deg[v])))] -= 1
    for a, b in ((u, v), (v, u)):
        for w in f.graph.adj[a]:
            if w != b:
                pairs[tuple(sorted((deg[a], deg[w])))] -= 1
                pairs[tuple(sorted((deg[a] - 1, deg[w])))] += 1
    return +pairs


def check_edge_deletion_drop(g: Graph | GraphFacts) -> list[CheckReport]:
    """Deleting a minimal edge drops GA1 by strictly more than the edge's term.

    A minimal edge that is its own component is excluded: deletion then
    removes exactly its term and the strict drop fails, so the statement
    implicitly needs a surviving edge next to the deleted one.
    """
    f = GraphFacts.of(g)
    if f.edge_reason:
        return [skipped_report("edge_deletion_drop", "<", f.edge_reason)]
    g = f.graph
    out: list[CheckReport] = []
    for e in g.edges:
        if not is_minimal_edge(g, e):
            continue
        u, v = e
        if g.deg[u] == g.deg[v] == 1:
            out.append(
                skipped_report(
                    "edge_deletion_drop",
                    "<",
                    f"edge ({u},{v}) is a single-edge component; deletion leaves "
                    "exact equality, the strict drop needs an adjacent edge",
                )
            )
            continue
        term = _sqrt_scaled(g.deg[u] * g.deg[v], Fraction(2, g.deg[u] + g.deg[v]))
        out.append(
            exact_report(
                "edge_deletion_drop",
                "<",
                _ga1_exact(_pairs_without_edge(f, u, v)),
                f.ga1 - term,
                notes=f"deleted minimal edge ({u},{v})",
            )
        )
    if not out:
        out.append(skipped_report("edge_deletion_drop", "<", "no minimal edge"))
    return out


def check_rationality(g: Graph | GraphFacts) -> list[CheckReport]:
    """GA1 is rational exactly when every edge's degree product is a square."""
    f = GraphFacts.of(g)
    if f.edge_reason:
        return [skipped_report("rationality", "==", f.edge_reason)]
    ga = f.ga1
    value_rational = ga.is_rational
    all_square = all(radical_sqrt(a * b)[1] == 1 for a, b in f.degree_pairs)
    report = exact_report(
        "rationality",
        "==",
        ga,
        RadicalNumber(ga.rational_part),
        predicted_equality=all_square,
        notes=f"value rational: {value_rational}; "
        f"every degree product a perfect square: {all_square}",
    )
    # The statement under test is the equivalence itself.
    return [replace(report, holds=report.characterization_consistent is True)]


# -- checkers involving the line graph --------------------------------------


def check_line_ga_bounds(g: Graph | GraphFacts) -> list[CheckReport]:
    """(M1-2m)*sqrt((D-1)(d-1))/(D+d-2) <= GA1(L(G)) <= M1/2 - m."""
    f = GraphFacts.of(g)
    if f.nontrivial_reason:
        return [
            skipped_report("line_ga_bounds.lower", "<=", f.nontrivial_reason),
            skipped_report("line_ga_bounds.upper", "<=", f.nontrivial_reason),
        ]
    g = f.graph
    big, small = g.max_degree, g.min_degree
    radicand = (big - 1) * (small - 1)
    lower = _sqrt_scaled(radicand, Fraction(f.m1 - 2 * g.m, big + small - 2))
    notes_lower = "vacuous: bound is zero (min degree 1)" if radicand == 0 else ""
    return [
        exact_report(
            "line_ga_bounds.lower",
            "<=",
            lower,
            f.line.ga1,
            predicted_equality=f.regular,
            notes=notes_lower,
        ),
        exact_report(
            "line_ga_bounds.upper",
            "<=",
            f.line.ga1,
            RadicalNumber(Fraction(f.m1, 2) - g.m),
            predicted_equality=regular_line_condition(f),
            notes="upper bound tight exactly when the line graph is regular",
        ),
    ]


def check_nordhaus_gaddum(g: Graph | GraphFacts) -> list[CheckReport]:
    """M1*sqrt((D-1)(d-1))/(D+d-2) <= GA1(G)+GA1(L(G)) <= M1/2; tight iff regular."""
    f = GraphFacts.of(g)
    if f.nontrivial_reason:
        return [
            skipped_report("nordhaus_gaddum.lower", "<=", f.nontrivial_reason),
            skipped_report("nordhaus_gaddum.upper", "<=", f.nontrivial_reason),
        ]
    total = f.ga1 + f.line.ga1
    big, small = f.graph.max_degree, f.graph.min_degree
    lower = _sqrt_scaled((big - 1) * (small - 1), Fraction(f.m1, big + small - 2))
    return [
        exact_report(
            "nordhaus_gaddum.lower", "<=", lower, total, predicted_equality=f.regular
        ),
        exact_report(
            "nordhaus_gaddum.upper",
            "<=",
            total,
            RadicalNumber(Fraction(f.m1, 2)),
            predicted_equality=f.regular,
        ),
    ]


def check_line_ga_ratio_bound(g: Graph | GraphFacts) -> list[CheckReport]:
    """GA1(L(G)) >= min(3/(4*sqrt(2)), term(2D-2, max(2d-2,1))) * GA1(G)."""
    f = GraphFacts.of(g)
    if f.nontrivial_reason:
        return [skipped_report("line_ga_ratio_bound", ">=", f.nontrivial_reason)]
    g = f.graph
    hi = 2 * g.max_degree - 2
    lo = max(2 * g.min_degree - 2, 1)
    candidate = _sqrt_scaled(hi * lo, Fraction(2, hi + lo))
    path_factor = RadicalNumber({2: Fraction(3, 8)})  # 3/(4*sqrt(2))
    factor = path_factor if compare(path_factor, candidate) <= 0 else candidate
    rhs = factor * f.ga1
    return [
        exact_report(
            "line_ga_ratio_bound",
            ">=",
            f.line.ga1,
            rhs,
            notes="tight for the 3-vertex path",
        )
    ]


def check_line_vs_graph_regular(g: Graph | GraphFacts) -> list[CheckReport]:
    """GA1(L(G)) >= GA1(G) when every component is regular or biregular and
    none is the 3-vertex path."""
    f = GraphFacts.of(g)
    reason = f.nontrivial_reason
    if reason is None:
        if any(c.n == 3 and is_path(c) for c in f.components):
            reason = "a component is the 3-vertex path"
        elif not all(is_regular(c) or is_biregular(c) for c in f.components):
            reason = "every component must be regular or biregular"
    if reason:
        return [skipped_report("line_vs_graph_regular", ">=", reason)]
    return [
        exact_report(
            "line_vs_graph_regular",
            ">=",
            f.line.ga1,
            f.ga1,
            notes="tight for disjoint unions of cycles",
        )
    ]


def check_line_order_bound(g: Graph | GraphFacts) -> list[CheckReport]:
    """GA1(L(G)) >= 2(m-1)^(3/2)/m."""
    f = GraphFacts.of(g)
    if f.nontrivial_reason:
        return [skipped_report("line_order_bound", ">=", f.nontrivial_reason)]
    m = f.graph.m
    bound = _sqrt_scaled(m - 1, Fraction(2 * (m - 1), m))
    return [exact_report("line_order_bound", ">=", f.line.ga1, bound)]


def check_line_sqrt_bound(g: Graph | GraphFacts) -> list[CheckReport]:
    """GA1(L(G)) >= 2*sqrt(m-1) when no component is a path on <= 6 vertices."""
    f = GraphFacts.of(g)
    reason = f.nontrivial_reason
    if reason is None and any(is_path(c) and c.n <= 6 for c in f.components):
        reason = "a component is a path on at most 6 vertices"
    if reason:
        return [skipped_report("line_sqrt_bound", ">=", reason)]
    bound = _sqrt_scaled(f.graph.m - 1, Fraction(2))
    return [exact_report("line_sqrt_bound", ">=", f.line.ga1, bound)]


def check_line_zagreb_lower(g: Graph | GraphFacts) -> list[CheckReport]:
    """M1(L(G)) >= 4m + (d-4)*M1(G) + 2*M2(G), in exact integers."""
    f = GraphFacts.of(g)
    if f.nontrivial_reason:
        return [skipped_report("line_zagreb_lower", ">=", f.nontrivial_reason)]
    g = f.graph
    rhs = 4 * g.m + (g.min_degree - 4) * f.m1 + 2 * f.m2
    return [
        exact_report(
            "line_zagreb_lower", ">=", RadicalNumber(f.line.m1), RadicalNumber(rhs)
        )
    ]


# -- alpha-parameterized bounds ---------------------------------------------


def _alpha_reason(alpha: float | Rational) -> str | None:
    """Why ``alpha`` cannot be used as an exponent, or None if it can."""
    try:
        af = float(alpha)
    except OverflowError:
        return f"alpha={alpha} is too large for a float"
    if not math.isfinite(af):
        return f"alpha={alpha} is not finite"
    if af <= 0:
        return f"needs alpha > 0, got {alpha}"
    return None


def _power_bound(
    check_id: str,
    facts: GraphFacts,
    rhs: Callable[..., tuple],
    alpha: float | Rational,
    float_notes: str,
    predicted_equality: bool | None = None,
) -> CheckReport:
    """Decide ``GA1 >= num / den`` for the graph of ``facts``, at exponent alpha.

    ``rhs(a, power)`` evaluates the bound at exponent ``a`` with
    ``power(x, y) = x**y`` and returns ``(num, den)``, den > 0.  Where alpha
    snaps to a nonzero half-integer and every power the bound takes is a
    radical, it is decided exactly by cross-multiplying with ``den``;
    otherwise in float mode, skipped where a side leaves the float range.
    ``rhs`` takes its root factor first, so that an exponent without exact
    powers fails before any large power such as d^(1-a) is computed.  The
    exact report alone carries ``predicted_equality``.
    """
    snapped = _snap_exponent(alpha)
    if snapped:
        try:
            num, den = rhs(snapped, _exact_pow)
        except NotRadicalError:
            pass
        else:
            return exact_report(
                check_id,
                ">=",
                facts.ga1,
                num,
                predicted_equality=predicted_equality,
                rhs_den=den,
                notes=f"alpha={alpha}; decided exactly by cross-multiplication",
            )

    def evaluate(power):
        lhs = 0
        for (u, v), cnt in facts.degree_pairs.items():
            lhs += cnt * 2 * power(u * v, 0.5) / (u + v)
        num, den = rhs(float(alpha), power)
        return lhs, num / den

    try:
        return float_report(check_id, ">=", evaluate, notes=float_notes)
    except ArithmeticError as exc:
        return skipped_report(
            check_id, ">=", f"alpha={alpha} is out of range: {exc}"
        )


def check_variable_zagreb_bound(
    g: Graph | GraphFacts, alpha: float | Rational = 1
) -> list[CheckReport]:
    """GA1 >= 2^(1/(2a)) * d^(1/2) * m^((2a+1)/(2a)) / (D * (sum du^(1-a))^(1/(2a))),
    for a > 0; tight exactly for regular graphs."""
    check_id = "variable_zagreb_bound"
    f = GraphFacts.of(g)
    reason = _alpha_reason(alpha) or f.edge_reason
    if reason:
        return [skipped_report(check_id, ">=", reason)]
    g = f.graph
    big, small, m = g.max_degree, g.min_degree, g.m
    degs = Counter(g.deg)

    def rhs(a, power):
        num = (
            power(2, 1 / (2 * a))
            * power(small, 0.5)
            * power(m, (2 * a + 1) / (2 * a))
        )
        # Left to right on every Python: 3.12's sum() compensates float rounding.
        var_zagreb = reduce(add, (cnt * power(d, 1 - a) for d, cnt in degs.items()), 0)
        return num, big * power(var_zagreb, 1 / (2 * a))

    return [
        _power_bound(
            check_id,
            f,
            rhs,
            alpha,
            f"alpha={alpha}; float mode, tight exactly for regular graphs at "
            "every alpha",
            predicted_equality=f.regular,
        )
    ]


def check_line_variable_zagreb_bound(
    g: Graph | GraphFacts, alpha: float | Rational = 1
) -> list[CheckReport]:
    """Line-graph lower bound with exponent a > 0, two branches (a <= 1, a > 1).

    The a > 1 branch uses the exponents (d-1)^((2a-1)/(2a)) * d^((1-a)/(2a)):
    bounding sum((du+dv-2)^(1-a)) from above for negative 1-a takes the factor
    ((d-1)/d)^(1-a), and the bound is then tight for regular graphs at every a.
    """
    check_id = "line_variable_zagreb_bound"
    f = GraphFacts.of(g)
    reason = _alpha_reason(alpha) or f.nontrivial_reason
    if reason:
        return [skipped_report(check_id, ">=", reason)]
    g = f.graph
    big, small = g.max_degree, g.min_degree
    growth = f.m1 - 2 * g.m  # = 2 * edge count of the line graph
    if small == 1:
        return [
            exact_report(
                check_id,
                ">=",
                f.line.ga1,
                RadicalNumber(0),
                notes=f"alpha={alpha}; vacuous: bound is zero (min degree 1)",
            )
        ]

    def rhs(a, power):
        if a <= 1:
            num = (
                power(2 * small - 2, 0.5)
                * power(big, (1 - a) / (2 * a))
                * power(growth, (2 * a + 1) / (2 * a))
            )
            den = 4 * power(big - 1, (1 + a) / (2 * a))
        else:
            num = (
                power(2, 0.5)
                * power(small - 1, (2 * a - 1) / (2 * a))
                * power(small, (1 - a) / (2 * a))
                * power(growth, (2 * a + 1) / (2 * a))
            )
            den = 4 * (big - 1)
        terms = (cnt * power(u + v, 1 - a) for (u, v), cnt in f.degree_pairs.items())
        chi = reduce(add, terms, 0)  # left to right, as for var_zagreb above
        return num, den * power(chi, 1 / (2 * a))

    return [_power_bound(check_id, f.line, rhs, alpha, f"alpha={alpha}; float mode")]


def check_three_half_zagreb_bound(g: Graph | GraphFacts) -> list[CheckReport]:
    """GA1 >= 2*sqrt(d)*m^2 / sum(du^(3/2)); tight exactly for regular graphs."""
    check_id = "three_half_zagreb_bound"
    f = GraphFacts.of(g)
    if f.edge_reason:
        return [skipped_report(check_id, ">=", f.edge_reason)]
    g = f.graph
    var = sum(cnt * _exact_pow(d, Fraction(3, 2)) for d, cnt in Counter(g.deg).items())
    rhs_cmp = RadicalNumber.sqrt_int(g.min_degree) * (2 * g.m * g.m)
    return [
        exact_report(
            check_id,
            ">=",
            f.ga1,
            rhs_cmp,
            predicted_equality=f.regular,
            rhs_den=var,
            notes="decided exactly by cross-multiplication",
        )
    ]


def check_line_three_half_zagreb_bound(g: Graph | GraphFacts) -> list[CheckReport]:
    """GA1(L(G)) >= (2d-2)^(1/2)*D^(3/2)*(M1-2m)^2 / (2*(D-1)^(3/2)*chi_(3/2))."""
    check_id = "line_three_half_zagreb_bound"
    f = GraphFacts.of(g)
    if f.nontrivial_reason:
        return [skipped_report(check_id, ">=", f.nontrivial_reason)]
    g = f.graph
    big, small = g.max_degree, g.min_degree
    if small == 1:
        return [
            exact_report(
                check_id,
                ">=",
                f.line.ga1,
                RadicalNumber(0),
                notes="vacuous: bound is zero (min degree 1)",
            )
        ]
    growth = f.m1 - 2 * g.m
    sums: Counter[int] = Counter()
    for (u, v), cnt in f.degree_pairs.items():
        sums[u + v] += cnt
    chi = sum(cnt * _exact_pow(s, Fraction(3, 2)) for s, cnt in sums.items())
    multiplier = 2 * (big - 1) * RadicalNumber.sqrt_int(big - 1) * chi
    rhs_cmp = (
        RadicalNumber.sqrt_int(2 * small - 2)
        * big
        * RadicalNumber.sqrt_int(big)
        * (growth * growth)
    )
    return [
        exact_report(
            check_id,
            ">=",
            f.line.ga1,
            rhs_cmp,
            rhs_den=multiplier,
            notes="decided exactly by cross-multiplication",
        )
    ]


# -- graph-free technical inequalities --------------------------------------


def check_term_shift_inequality(
    delta: Rational, t: Rational | float
) -> CheckReport:
    """sqrt((d+t-1)(d-1))/(2d+t-2) <= sqrt((d+t)d)/(2d+t) for d>=1, t>=0, 2d+t>2."""
    check_id = "term_shift_inequality"
    if isinstance(t, float) and not t.is_integer():
        t = Fraction(t).limit_denominator(10**9)
    d = Fraction(delta)
    tf = Fraction(t)
    if d < 1 or tf < 0 or 2 * d + tf <= 2:
        return skipped_report(
            check_id, "<=", f"needs d>=1, t>=0 and 2d+t>2 (d={d}, t={tf})"
        )
    lhs = RadicalNumber.sqrt_fraction((d + tf - 1) * (d - 1)) / (2 * d + tf - 2)
    rhs = RadicalNumber.sqrt_fraction((d + tf) * d) / (2 * d + tf)
    return exact_report(check_id, "<=", lhs, rhs)


def check_sqrt_shift_superadditivity(xs: Sequence[Rational]) -> CheckReport:
    """sum(sqrt(x_j - 1)) >= sqrt(sum(x_j) - 1) for x_j >= 2."""
    check_id = "sqrt_shift_superadditivity"
    vals = [Fraction(x) for x in xs]
    if not vals or any(x < 2 for x in vals):
        return skipped_report(check_id, ">=", "needs a nonempty list with all x >= 2")
    lhs = RadicalNumber(0)
    for x in vals:
        lhs = lhs + RadicalNumber.sqrt_fraction(x - 1)
    rhs = RadicalNumber.sqrt_fraction(sum(vals) - 1)
    return exact_report(check_id, ">=", lhs, rhs)


# -- registry ----------------------------------------------------------------


def _wrap_line_zagreb_identity(f: GraphFacts) -> list[CheckReport]:
    if f.nontrivial_reason:
        return [skipped_report("line_zagreb_identity", "==", f.nontrivial_reason)]
    return [line_zagreb_identity(f)]


def _wrap_line_regular_iff(f: GraphFacts) -> list[CheckReport]:
    if f.nontrivial_reason:
        return [skipped_report("line_regular_iff", "==", f.nontrivial_reason)]
    return [line_regularity_characterization(f)]


def _wrap_line_tree_iff(f: GraphFacts) -> list[CheckReport]:
    reason = f.nontrivial_reason
    if reason is None and not f.graph.is_connected:
        reason = "requires a connected graph"
    if reason:
        return [skipped_report("line_tree_iff", "==", reason)]
    return line_tree_characterization(f)


_PLAIN_CHECKS: dict[str, Callable[[GraphFacts], list[CheckReport]]] = {
    "extreme_degree_bounds": check_extreme_degree_bounds,
    "order_size_bounds": check_order_size_bounds,
    "star_lower_bound": check_star_lower_bound,
    "no_universal_vertex_bound": check_no_universal_vertex_bound,
    "edge_deletion_drop": check_edge_deletion_drop,
    "rationality": check_rationality,
    "line_ga_bounds": check_line_ga_bounds,
    "nordhaus_gaddum": check_nordhaus_gaddum,
    "line_ga_ratio_bound": check_line_ga_ratio_bound,
    "line_vs_graph_regular": check_line_vs_graph_regular,
    "line_order_bound": check_line_order_bound,
    "line_sqrt_bound": check_line_sqrt_bound,
    "line_zagreb_lower": check_line_zagreb_lower,
    "three_half_zagreb_bound": check_three_half_zagreb_bound,
    "line_three_half_zagreb_bound": check_line_three_half_zagreb_bound,
    "line_zagreb_identity": _wrap_line_zagreb_identity,
    "line_regular_iff": _wrap_line_regular_iff,
    "line_tree_iff": _wrap_line_tree_iff,
}

_ALPHA_CHECKS: dict[str, Callable[..., list[CheckReport]]] = {
    "variable_zagreb_bound": check_variable_zagreb_bound,
    "line_variable_zagreb_bound": check_line_variable_zagreb_bound,
}

CHECK_IDS: tuple[str, ...] = tuple(list(_PLAIN_CHECKS) + list(_ALPHA_CHECKS))

# Ids that read the line graph whenever its preconditions hold.  When one is
# selected, the line graph is built before any checker runs, so that one over
# MAX_EDGES fails at once instead of after the other checkers.
_LINE_CHECK_IDS = frozenset(
    {
        "line_ga_bounds",
        "nordhaus_gaddum",
        "line_ga_ratio_bound",
        "line_order_bound",
        "line_zagreb_lower",
        "line_three_half_zagreb_bound",
        "line_zagreb_identity",
        "line_regular_iff",
    }
)


def run_checks(
    g: Graph | GraphFacts,
    ids: Iterable[str] | None = None,
    alphas: Sequence[float | Rational] = DEFAULT_ALPHAS,
) -> list[CheckReport]:
    """Run the selected checkers (default: all) on one graph's shared facts."""
    selected = list(ids) if ids is not None else list(CHECK_IDS)
    for check_id in selected:
        if check_id not in CHECK_IDS:
            raise KeyError(
                f"unknown check id {check_id!r}; available: {', '.join(CHECK_IDS)}"
            )
    f = GraphFacts.of(g)
    if f.nontrivial_reason is None and not _LINE_CHECK_IDS.isdisjoint(selected):
        f.line
    out: list[CheckReport] = []
    for check_id in selected:
        if check_id in _PLAIN_CHECKS:
            out.extend(_PLAIN_CHECKS[check_id](f))
        else:
            for alpha in alphas:
                out.extend(_ALPHA_CHECKS[check_id](f, alpha))
    return out
