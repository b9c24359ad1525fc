"""One checker per statement of the paper, each returning verdict reports.

Every inequality, identity and worked family that gaindex checks is stated
here, and each verdict is built once by ``exact_report``, ``float_report`` or
``skipped_report``.  Each checker of a graph declares its reports and the
hypothesis that rules a graph out once, with ``_statement``, which builds
every skipped report (``preconditions_met`` false, rather than an error); a
further hypothesis of a checker's own is one returned reason string.
Checkers decide exactly whenever both sides live in the radical span.  Each
checker of a graph takes its :class:`GraphFacts`, which ``run_checks`` builds
once per graph, so that every checker shares its components, indices and
line-graph facts.  Quotient bounds are decided exactly by cross-multiplication,
so equality characterizations never depend on floating point.
"""

from __future__ import annotations

import inspect
import math
from collections import Counter
from fractions import Fraction
from functools import reduce, wraps
from operator import add, mul
from typing import Callable, Iterable, Sequence

from .graphs import (
    Graph,
    GraphKind,
    classify,
    complete_bipartite_graph,
    double_star_graph,
    is_path_component,
    is_star,
    minimal_edges,
)
from .indices import NotRadicalError, _power_factor, _power_sum, _snap_exponent
from .linegraph import GraphFacts, LineFacts
from .radicals import RadicalNumber, compare, radical_sqrt, radical_sum
from .report import CheckReport, exact_report, float_report, skipped_report

__all__ = [
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
    "check_line_zagreb_identity",
    "check_line_regular_iff",
    "check_line_tree_iff",
    "check_variable_zagreb_bound",
    "check_line_variable_zagreb_bound",
    "check_three_half_zagreb_bound",
    "check_line_three_half_zagreb_bound",
    "check_term_shift_inequality",
    "check_sqrt_shift_superadditivity",
    "check_double_star_rational",
    "check_complete_bipartite_integer",
    "CHECK_IDS",
    "DEFAULT_ALPHAS",
    "run_checks",
]

DEFAULT_ALPHAS: tuple[Fraction, ...] = (Fraction(1, 2), Fraction(1), Fraction(2))

Rational = int | Fraction

_THREE_HALVES = Fraction(3, 2)
_CROSS_MULTIPLIED = "decided exactly by cross-multiplication"


# -- declaring a statement ----------------------------------------------------

# Each graph checker by id, in the order declared, which is the order of
# CHECK_IDS and so of the output rows; the checkers taking alpha come last.
_PLAIN_CHECKS: dict[str, Callable[[GraphFacts], list[CheckReport]]] = {}
_ALPHA_CHECKS: dict[str, Callable[..., list[CheckReport]]] = {}


def _statement(needs: str, *parts: tuple[str, str]) -> Callable:
    """Declare a graph checker's ``(check_id, relation)`` parts and the
    reason of :class:`GraphFacts` that rules a graph out.

    An unusable alpha, else that reason, else the reason string the checker
    returns for a hypothesis of its own, becomes one skipped report per part.
    The checker is registered under its name less ``check_``, with the alpha
    checkers if it takes ``alpha``.
    """

    def declare(check: Callable[..., list[CheckReport] | str]) -> Callable:
        @wraps(check)
        def run(f: GraphFacts, *args, **kwargs) -> list[CheckReport]:
            reason = _alpha_reason(*args, **kwargs) if args or kwargs else None
            out = reason or getattr(f, needs) or check(f, *args, **kwargs)
            if isinstance(out, str):
                return [skipped_report(i, relation, out) for i, relation in parts]
            return out

        takes_alpha = "alpha" in inspect.signature(check).parameters
        registry = _ALPHA_CHECKS if takes_alpha else _PLAIN_CHECKS
        registry[check.__name__.removeprefix("check_")] = run
        return run

    return declare


def _alpha_reason(alpha: float | Rational) -> str | None:
    """Why ``alpha`` cannot be used as an exponent, or None if it can."""
    try:
        af = float(alpha)
    except OverflowError:
        return f"alpha={alpha} is too large for a float"
    if not math.isfinite(af):
        return f"alpha={alpha} is not finite"
    if alpha <= 0:  # exact: a tiny positive alpha has float 0.0
        return f"needs alpha > 0, got {alpha}"
    return None


# -- checkers over the base graph ------------------------------------------


@_statement(
    "edge_reason",
    ("extreme_degree_bounds.lower", "<="),
    ("extreme_degree_bounds.upper", "<="),
)
def check_extreme_degree_bounds(f: GraphFacts) -> list[CheckReport]:
    """2m*sqrt(Dd)/(D+d) <= GA1 <= m; lower tight iff regular or biregular,
    upper tight iff every component is regular: each edge term is at most 1,
    with equality iff both ends have one degree."""
    g = f.graph
    big, small = g.max_degree, g.min_degree
    lower = radical_sum([(2 * g.m, big * small, big + small)])
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
            predicted_equality=f.regular_components,
        ),
    ]


@_statement(
    "edge_reason", ("order_size_bounds.order", ">="), ("order_size_bounds.size", ">=")
)
def check_order_size_bounds(f: GraphFacts) -> list[CheckReport] | str:
    """GA1 >= 2(n-1)^(3/2)/n and GA1 >= 2m/n, for connected graphs."""
    if not f.connected:
        return "requires a connected graph"
    g = f.graph
    n = g.n
    return [
        exact_report(
            "order_size_bounds.order",
            ">=",
            f.ga1,
            radical_sum([(2 * (n - 1), n - 1, n)]),
        ),
        exact_report(
            "order_size_bounds.size",
            ">=",
            f.ga1,
            radical_sum([(2 * g.m, 1, n)]),
        ),
    ]


@_statement("edge_reason", ("star_lower_bound", ">="))
def check_star_lower_bound(f: GraphFacts) -> list[CheckReport]:
    """GA1 >= 2m*sqrt(n-1)/n, tight exactly for stars."""
    g = f.graph
    bound = radical_sum([(2 * g.m, g.n - 1, g.n)])
    return [
        exact_report(
            "star_lower_bound", ">=", f.ga1, bound, predicted_equality=is_star(g)
        )
    ]


@_statement(
    "edge_reason",
    ("no_universal_vertex_bound.strict", ">"),
    ("no_universal_vertex_bound.tail", ">="),
)
def check_no_universal_vertex_bound(f: GraphFacts) -> list[CheckReport] | str:
    """With max degree <= n-2: GA1 > 2m*sqrt(n-2)/(n-1), and that bound is
    itself >= 2*sqrt(n-2) once m >= n-1."""
    g = f.graph
    if g.max_degree > g.n - 2:
        return f"needs max degree <= n-2 (have {g.max_degree} on n={g.n})"
    bound = radical_sum([(2 * g.m, g.n - 2, g.n - 1)])
    strict = exact_report("no_universal_vertex_bound.strict", ">", f.ga1, bound)
    if g.m < g.n - 1:
        reason = "tail comparison needs m >= n-1 (true for connected graphs)"
        return [strict, skipped_report("no_universal_vertex_bound.tail", ">=", reason)]
    tail = radical_sum([(2, g.n - 2, 1)])
    return [strict, exact_report("no_universal_vertex_bound.tail", ">=", bound, tail)]


def _deletion_loss(f: GraphFacts, u: int, v: int) -> RadicalNumber:
    """What the other edges at u and v lose from GA1 when uv is deleted:
    each keeps its far endpoint's degree and loses one at u or v."""
    deg, adj = f.graph.deg, f.graph.adj
    terms = []
    for a, b in ((u, v), (v, u)):
        da = deg[a]
        for dw, cnt in Counter(deg[w] for w in adj[a] if w != b).items():
            terms.append((2 * cnt, da * dw, da + dw))
            terms.append((-2 * cnt, (da - 1) * dw, da - 1 + dw))
    return radical_sum(terms)


@_statement("edge_reason", ("edge_deletion_drop", "<"))
def check_edge_deletion_drop(f: GraphFacts) -> list[CheckReport] | str:
    """Deleting a minimal edge drops GA1 by strictly more than the edge's term.

    A minimal edge that is its own component is excluded: deletion then
    removes exactly its term and the strict drop fails, so the statement
    implicitly needs a surviving edge next to the deleted one.  GA1(G - uv)
    is GA1 less the term of uv and less :func:`_deletion_loss`.
    """
    deg = f.graph.deg
    out: list[CheckReport] = []
    for u, v in minimal_edges(f.graph):
        if deg[u] == deg[v] == 1:
            out.append(
                skipped_report(
                    "edge_deletion_drop",
                    "<",
                    f"edge ({u},{v}) is a single-edge component; deletion leaves "
                    "exact equality, the strict drop needs an adjacent edge",
                )
            )
            continue
        rest = f.ga1 - radical_sum([(2, deg[u] * deg[v], deg[u] + deg[v])])
        out.append(
            exact_report(
                "edge_deletion_drop",
                "<",
                rest - _deletion_loss(f, u, v),
                rest,
                notes=f"deleted minimal edge ({u},{v})",
            )
        )
    return out or "no minimal edge"


@_statement("edge_reason", ("rationality", "=="))
def check_rationality(f: GraphFacts) -> list[CheckReport]:
    """GA1 is rational exactly when every edge's degree product is a square."""
    ga = f.ga1
    value_rational = ga.is_rational
    all_square = all(radical_sqrt(a * b)[1] == 1 for a, b in f.degree_pairs)
    return [
        exact_report(
            "rationality",
            "==",
            ga,
            RadicalNumber(ga.rational_part),
            predicted_equality=all_square,
            notes=f"value rational: {value_rational}; "
            f"every degree product a perfect square: {all_square}",
            # The statement under test is the equivalence itself.
            holds=value_rational == all_square,
        )
    ]


# -- checkers involving the line graph --------------------------------------


@_statement(
    "nontrivial_reason",
    ("line_ga_bounds.lower", "<="),
    ("line_ga_bounds.upper", "<="),
)
def check_line_ga_bounds(f: GraphFacts) -> list[CheckReport]:
    """(M1-2m)*sqrt((D-1)(d-1))/(D+d-2) <= GA1(L(G)) <= M1/2 - m.

    The upper bound is m(L(G)), tight iff every component of L(G) is regular,
    that is, iff du+dv is constant over each component of G: iff every
    component of G is regular or biregular.
    """
    g = f.graph
    big, small = g.max_degree, g.min_degree
    radicand = (big - 1) * (small - 1)
    lower = radical_sum([(f.m1 - 2 * g.m, radicand, big + small - 2)])
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
            radical_sum([(f.m1 - 2 * g.m, 1, 2)]),
            predicted_equality=f.regular_or_biregular_components,
            notes="upper bound tight exactly when the line graph is regular",
        ),
    ]


@_statement(
    "nontrivial_reason",
    ("nordhaus_gaddum.lower", "<="),
    ("nordhaus_gaddum.upper", "<="),
)
def check_nordhaus_gaddum(f: GraphFacts) -> list[CheckReport]:
    """M1*sqrt((D-1)(d-1))/(D+d-2) <= GA1(G)+GA1(L(G)) <= M1/2; lower tight
    iff regular.  The upper bound is m + m(L(G)), tight iff every component
    of G and of L(G) is regular, that is, iff every component of G is."""
    total = f.ga1 + f.line.ga1
    big, small = f.graph.max_degree, f.graph.min_degree
    lower = radical_sum([(f.m1, (big - 1) * (small - 1), big + small - 2)])
    return [
        exact_report(
            "nordhaus_gaddum.lower", "<=", lower, total, predicted_equality=f.regular
        ),
        exact_report(
            "nordhaus_gaddum.upper",
            "<=",
            total,
            radical_sum([(f.m1, 1, 2)]),
            predicted_equality=f.regular_components,
        ),
    ]


@_statement("nontrivial_reason", ("line_ga_ratio_bound", ">="))
def check_line_ga_ratio_bound(f: GraphFacts) -> list[CheckReport]:
    """GA1(L(G)) >= min(3/(4*sqrt(2)), term(2D-2, max(2d-2,1))) * GA1(G)."""
    g = f.graph
    hi = 2 * g.max_degree - 2
    lo = max(2 * g.min_degree - 2, 1)
    candidate = radical_sum([(2, hi * lo, hi + lo)])
    path_factor = radical_sum([(3, 2, 8)])  # 3/(4*sqrt(2))
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


@_statement("nontrivial_reason", ("line_vs_graph_regular", ">="))
def check_line_vs_graph_regular(f: GraphFacts) -> list[CheckReport] | str:
    """GA1(L(G)) >= GA1(G) when every component is regular or biregular and
    none is the 3-vertex path."""
    if any(c.n == 3 and is_path_component(c) for c in f.components):
        return "a component is the 3-vertex path"
    if not f.regular_or_biregular_components:
        return "every component must be regular or biregular"
    return [
        exact_report(
            "line_vs_graph_regular",
            ">=",
            f.line.ga1,
            f.ga1,
            notes="tight for disjoint unions of cycles",
        )
    ]


@_statement("nontrivial_reason", ("line_order_bound", ">="))
def check_line_order_bound(f: GraphFacts) -> list[CheckReport] | str:
    """GA1(L(G)) >= 2(m-1)^(3/2)/m for connected G: the order bound of
    :func:`check_order_size_bounds` for L(G), which is connected iff G is
    here; on two disjoint 3-vertex paths GA1(L(G)) = 2 < 3*sqrt(3)/2."""
    if not f.connected:
        return "requires a connected graph"
    m = f.graph.m
    bound = radical_sum([(2 * (m - 1), m - 1, m)])
    return [exact_report("line_order_bound", ">=", f.line.ga1, bound)]


@_statement("nontrivial_reason", ("line_sqrt_bound", ">="))
def check_line_sqrt_bound(f: GraphFacts) -> list[CheckReport] | str:
    """GA1(L(G)) >= 2*sqrt(m-1) when no component is a path on <= 6 vertices."""
    if any(c.n <= 6 and is_path_component(c) for c in f.components):
        return "a component is a path on at most 6 vertices"
    bound = radical_sum([(2, f.graph.m - 1, 1)])
    return [exact_report("line_sqrt_bound", ">=", f.line.ga1, bound)]


@_statement("nontrivial_reason", ("line_zagreb_lower", ">="))
def check_line_zagreb_lower(f: GraphFacts) -> list[CheckReport]:
    """M1(L(G)) >= 4m + (d-4)*M1(G) + 2*M2(G), in exact integers."""
    g = f.graph
    rhs = 4 * g.m + (g.min_degree - 4) * f.m1 + 2 * f.m2
    return [
        exact_report(
            "line_zagreb_lower", ">=", RadicalNumber(f.line.m1), RadicalNumber(rhs)
        )
    ]


# The two three-half bounds are declared here for their place in CHECK_IDS.
@_statement("edge_reason", ("three_half_zagreb_bound", ">="))
def check_three_half_zagreb_bound(f: GraphFacts) -> list[CheckReport]:
    """GA1 >= 2*sqrt(d)*m^2 / sum(du^(3/2)); tight exactly for regular graphs."""
    check_id = "three_half_zagreb_bound"
    g = f.graph

    def rhs(p, q, power, power_sum):  # a = p/q = 3/2
        num = [power(g.min_degree, (1, 2)), 2 * g.m * g.m]
        return num, [power_sum(f.degree_counts.items(), (p, q))]

    bound = _power_bound(
        check_id, f, rhs, _THREE_HALVES, _CROSS_MULTIPLIED, predicted_equality=f.regular
    )
    return [bound]


@_statement("nontrivial_reason", ("line_three_half_zagreb_bound", ">="))
def check_line_three_half_zagreb_bound(f: GraphFacts) -> list[CheckReport]:
    """GA1(L(G)) >= (2d-2)^(1/2)*D^(3/2)*(M1-2m)^2 / (2*(D-1)^(3/2)*chi_(3/2))."""
    check_id = "line_three_half_zagreb_bound"
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

    def rhs(p, q, power, power_sum):  # a = p/q = 3/2
        num = [power(2 * small - 2, (1, 2)), power(big, (p, q)), growth * growth]
        return num, [2, power(big - 1, (p, q)), power_sum(sums.items(), (p, q))]

    return [_power_bound(check_id, f.line, rhs, _THREE_HALVES, _CROSS_MULTIPLIED)]


@_statement("nontrivial_reason", ("line_zagreb_identity", "=="))
def check_line_zagreb_identity(f: GraphFacts) -> list[CheckReport]:
    """M1(L(G)) = 4m - 4*M1(G) + 2*M2(G) + F(G), exactly, in integers."""
    rhs = 4 * f.graph.m - 4 * f.m1 + 2 * f.m2 + f.forgotten
    return [
        exact_report(
            "line_zagreb_identity",
            "==",
            RadicalNumber(f.line.m1),
            RadicalNumber(rhs),
            notes="M1 of the line graph vs 4m - 4*M1 + 2*M2 + F",
        )
    ]


@_statement("nontrivial_reason", ("line_regular_iff", "=="))
def check_line_regular_iff(f: GraphFacts) -> list[CheckReport]:
    """Line graph regular iff every component is regular-or-biregular with
    constant degree sum; both directions checked by construction."""
    actual = f.line.regular
    predicted = f.regular_line_condition
    per_comp = ", ".join(
        f"({c.max_degree},{c.min_degree})" for c in f.components
    )
    return [
        exact_report(
            "line_regular_iff",
            "==",
            RadicalNumber(1 if actual else 0),
            RadicalNumber(1 if predicted else 0),
            notes=f"line graph regular: {actual}; "
            f"component degree extremes: {per_comp}",
        )
    ]


@_statement("nontrivial_reason", ("line_tree_iff", "=="))
def check_line_tree_iff(f: GraphFacts) -> list[CheckReport] | str:
    """For connected non-trivial g: line graph is a tree iff g is a path.

    Also reports the size monotonicity m <= m(L(G)) for non-paths.
    """
    if not f.connected:
        return "requires a connected graph"
    g, line = f.graph, f.line
    # G is connected here, and so is its line graph.
    lg_is_tree = line.m == line.n - 1
    g_is_path = is_path_component(g)
    reports = [
        exact_report(
            "line_tree_iff",
            "==",
            RadicalNumber(1 if lg_is_tree else 0),
            RadicalNumber(1 if g_is_path else 0),
            notes=f"line graph tree: {lg_is_tree}; input is a path: {g_is_path}",
        )
    ]
    if not g_is_path:
        reports.append(
            exact_report(
                "line_size_monotone",
                "<=",
                RadicalNumber(g.m),
                RadicalNumber(line.m),
                notes="edge count does not drop when passing to the line graph "
                "of a connected non-path",
            )
        )
    return reports


# -- alpha-parameterized bounds ---------------------------------------------


def _exact_product(
    factors: Iterable[int | tuple[int, int, int] | RadicalNumber],
) -> RadicalNumber:
    """The product of integers, triples ``(c, k, r)`` of :func:`radical_sum`
    and values.

    The integers and triples multiply in integers into one triple, ``(c1*c2,
    k1*k2, r1*r2)``, built as one value; only a value among the factors, a
    power sum, costs a product of values.
    """
    c = k = r = 1
    value = None
    for x in factors:
        if isinstance(x, int):
            c *= x
        elif isinstance(x, tuple):
            c, k, r = c * x[0], k * x[1], r * x[2]
        else:
            value = x if value is None else value * x
    if value is None:
        return radical_sum([(c, k, r)])
    return value if c == k == r == 1 else value * radical_sum([(c, k, r)])


def _power_bound(
    check_id: str,
    facts: GraphFacts | LineFacts,
    rhs: Callable[..., tuple[list, list]],
    alpha: float | Rational,
    exact_notes: str,
    float_notes: str = "",
    predicted_equality: bool | None = None,
) -> CheckReport:
    """Decide ``GA1 >= num / den`` for the graph of ``facts``, at exponent alpha.

    ``rhs(p, q, power, power_sum)`` evaluates the bound at exponent a = p/q
    and returns ``(num, den)`` as two lists of factors, den > 0.  Each
    exponent i/j is passed as the pair ``(i, j)`` of expressions in p and q,
    to ``power(x, (i, j))`` and to ``power_sum(terms, (i, j))``, the sum of
    ``count * base**(i/j)`` over pairs ``(base, count)``.  Where alpha snaps
    to a nonzero half-integer p/q and every power is a radical, the bound is
    decided exactly by cross-multiplying with ``den``.  There ``power`` is
    :func:`_power_factor`: a triple of :func:`radical_sum` for a rational
    base, and a power sum itself at exponent 1.  ``power_sum`` is
    :func:`_power_sum`, a value, and each side is one :func:`_exact_product`.
    Otherwise the bound is decided in float mode, with ``p = float(alpha)``,
    ``q = 1``, the float ``i / j`` as exponent and each side's factors
    multiplied left to right, skipped where a side leaves the float range.
    ``rhs`` takes its root factor first, so that an exponent without exact
    powers fails before any large power such as d^(1-a) is computed.  The
    exact report alone carries ``predicted_equality``; each mode has its own
    notes.
    """
    snapped = _snap_exponent(alpha)
    if snapped:
        try:
            num, den = rhs(
                snapped.numerator, snapped.denominator, _power_factor, _power_sum
            )
        except NotRadicalError:
            pass
        else:
            return exact_report(
                check_id,
                ">=",
                facts.ga1,
                _exact_product(num),
                predicted_equality=predicted_equality,
                rhs_den=_exact_product(den),
                notes=exact_notes,
            )

    def evaluate(power):
        lhs = 0
        for (u, v), cnt in facts.degree_pairs.items():
            lhs += cnt * 2 * power(u * v, 0.5) / (u + v)

        def pair_power(x, e):
            return power(x, e[0] / e[1])

        def power_sum(terms, e):
            # Left to right on every Python: 3.12's sum() compensates float rounding.
            return reduce(add, (cnt * pair_power(b, e) for b, cnt in terms), 0)

        num, den = rhs(float(alpha), 1, pair_power, power_sum)
        return lhs, reduce(mul, num) / reduce(mul, den)

    try:
        return float_report(check_id, ">=", evaluate, notes=float_notes)
    except ArithmeticError as exc:
        return skipped_report(
            check_id, ">=", f"alpha={alpha} is out of range: {exc}"
        )


@_statement("edge_reason", ("variable_zagreb_bound", ">="))
def check_variable_zagreb_bound(
    f: GraphFacts, alpha: float | Rational = 1
) -> list[CheckReport]:
    """GA1 >= 2^(1/(2a)) * d^(1/2) * m^((2a+1)/(2a)) / (D * (sum du^(1-a))^(1/(2a))),
    for a > 0; tight exactly for regular graphs."""
    check_id = "variable_zagreb_bound"
    g = f.graph
    big, small, m = g.max_degree, g.min_degree, g.m

    def rhs(p, q, power, power_sum):  # a = p/q
        num = [
            power(2, (q, 2 * p)),
            power(small, (1, 2)),
            power(m, (2 * p + q, 2 * p)),
        ]
        var_zagreb = power_sum(f.degree_counts.items(), (q - p, q))
        return num, [big, power(var_zagreb, (q, 2 * p))]

    return [
        _power_bound(
            check_id,
            f,
            rhs,
            alpha,
            f"alpha={alpha}; {_CROSS_MULTIPLIED}",
            f"alpha={alpha}; float mode, tight exactly for regular graphs at "
            "every alpha",
            predicted_equality=f.regular,
        )
    ]


@_statement("nontrivial_reason", ("line_variable_zagreb_bound", ">="))
def check_line_variable_zagreb_bound(
    f: GraphFacts, alpha: float | Rational = 1
) -> list[CheckReport]:
    """Line-graph lower bound with exponent a > 0, two branches (a <= 1, a > 1).

    The a > 1 branch uses the exponents (d-1)^((2a-1)/(2a)) * d^((1-a)/(2a)):
    bounding sum((du+dv-2)^(1-a)) from above for negative 1-a takes the factor
    ((d-1)/d)^(1-a), and the bound is then tight for regular graphs at every a.
    """
    check_id = "line_variable_zagreb_bound"
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

    # One term per degree pair, in its order: float mode adds them left to right.
    chi_terms = [(u + v, cnt) for (u, v), cnt in f.degree_pairs.items()]

    def rhs(p, q, power, power_sum):  # a = p/q
        if p <= q:
            num = [
                power(2 * small - 2, (1, 2)),
                power(big, (q - p, 2 * p)),
                power(growth, (2 * p + q, 2 * p)),
            ]
            den = [4, power(big - 1, (q + p, 2 * p))]
        else:
            num = [
                power(2, (1, 2)),
                power(small - 1, (2 * p - q, 2 * p)),
                power(small, (q - p, 2 * p)),
                power(growth, (2 * p + q, 2 * p)),
            ]
            den = [4 * (big - 1)]
        chi = power_sum(chi_terms, (q - p, q))
        return num, den + [power(chi, (q, 2 * p))]

    return [
        _power_bound(
            check_id,
            f.line,
            rhs,
            alpha,
            f"alpha={alpha}; {_CROSS_MULTIPLIED}",
            f"alpha={alpha}; float mode",
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


# -- worked families ----------------------------------------------------------

_BIPARTITE_K_MAX = 40  # K(200, 800) has 160,000 edges


def check_double_star_rational(n1: int, n2: int) -> CheckReport:
    """Double star on leaf counts n1^2-1 and n2^2-1: rational GA1, not biregular.

    Verifies the closed form
    2(n1^2-1)n1/(n1^2+1) + 2(n2^2-1)n2/(n2^2+1) + 2*n1*n2/(n1^2+n2^2) exactly.
    With n1 or n2 equal to 1 a center has no leaves and the graph is a star,
    which the statement does not cover.
    """
    check_id = "double_star_rational"
    if n1 < 1 or n2 < 1:
        raise ValueError("both parameters must be positive integers")
    if n1 == n2:
        raise ValueError("parameters must be different")
    if min(n1, n2) == 1:
        return skipped_report(
            check_id, "==", "degenerate: a center has no leaves (graph is a star)"
        )
    f = GraphFacts(double_star_graph(n1 * n1 - 1, n2 * n2 - 1))
    closed = RadicalNumber(
        Fraction(2 * (n1 * n1 - 1) * n1, n1 * n1 + 1)
        + Fraction(2 * (n2 * n2 - 1) * n2, n2 * n2 + 1)
        + Fraction(2 * n1 * n2, n1 * n1 + n2 * n2)
    )
    return exact_report(
        check_id,
        "==",
        f.ga1,
        closed,
        notes=f"rational: {f.ga1.is_rational}; biregular: {f.biregular}",
        # Equal to the rational closed form, hence rational.
        holds=f.ga1 == closed and not f.biregular,
    )


def check_complete_bipartite_integer(k: int) -> CheckReport:
    """K(5k,20k): GA1 is exactly the integer 80*k^2 although the graph is
    not regular."""
    check_id = "complete_bipartite_integer"
    if k < 1:
        raise ValueError("k must be a positive integer")
    if k > _BIPARTITE_K_MAX:
        raise ValueError(f"k={k} exceeds the size guard {_BIPARTITE_K_MAX}")
    f = GraphFacts(complete_bipartite_graph(5 * k, 20 * k))
    expected = RadicalNumber(80 * k * k)
    kind = classify(f.graph).kind
    return exact_report(
        check_id,
        "==",
        f.ga1,
        expected,
        notes=f"integer: {f.ga1.is_integer}; classified: {kind.value}; "
        f"regular: {f.regular}",
        holds=f.ga1 == expected
        and kind is GraphKind.COMPLETE_BIPARTITE
        and not f.regular,
    )


# -- registry ----------------------------------------------------------------


CHECK_IDS: tuple[str, ...] = (*_PLAIN_CHECKS, *_ALPHA_CHECKS)

# Ids that read the line graph whenever its preconditions hold.  When one is
# selected, its facts are made before any checker runs, so that a line graph
# over MAX_EDGES fails at once instead of after the other checkers.
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
