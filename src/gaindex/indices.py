"""Vertex-degree-based topological indices, exact wherever possible.

The geometric-arithmetic index and every integer or half-integer exponent
variant live in the rational radical span, so those paths are exact; other
exponents fall back to floats.  A Python float exponent is snapped to the
nearest integer or half-integer when within 1e-12, so ``0.5`` hits the exact
path; an ``int`` or ``Fraction`` is taken as it is, so CLI ``--alpha``, parsed
as an exact rational, never snaps (``--alpha 0.5000000000001`` runs in float
mode).  Every index takes a ``Graph`` or a ``GraphFacts`` and reads the
degree pairs, degree counts and GA1 from that one ``GraphFacts``, the only
code that derives them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Callable, Iterable

from .graphs import Graph
from .linegraph import GraphFacts
from .radicals import RadicalNumber, radical_sum

__all__ = [
    "IndexValue",
    "ga1",
    "m1_alpha",
    "m2_alpha",
    "chi_alpha",
    "m1",
    "m2",
    "forgotten",
    "harmonic",
    "inverse_degree",
    "randic",
    "sum_connectivity",
    "all_indices",
]

_SNAP = 1e-12
_FLOAT_REL_ERROR = 1e-12
# An exact power base**alpha has about |alpha|*log2(base) bits, so a huge
# exponent would never finish; larger exponents are rejected up front.
MAX_EXACT_EXPONENT = 1000


@dataclass(frozen=True, eq=False)
class IndexValue:
    """An index value: exact radical form when available, float always.

    ``estimate`` gives ``approx`` and its absolute error, which only serve
    display, since verdicts are decided on ``exact``.  For an exact
    value that is its ``float_with_error``, which the value computes once
    and keeps, so deciding a verdict computes no float.
    """

    exact: RadicalNumber | None
    estimate: Callable[[], tuple[float, float]] = field(repr=False)

    @classmethod
    def of_exact(cls, value: RadicalNumber) -> "IndexValue":
        return cls(value, value.float_with_error)

    @classmethod
    def of_float(cls, value: float) -> "IndexValue":
        return cls(None, lambda: (value, abs(value) * _FLOAT_REL_ERROR))

    @classmethod
    def of_quotient(cls, num: RadicalNumber, den: RadicalNumber) -> "IndexValue":
        """Float display of ``num / den``, for a bound decided exactly by
        cross-multiplying with ``den``."""

        def estimate() -> tuple[float, float]:
            value = num.to_float() / den.to_float()
            return value, abs(value) * _FLOAT_REL_ERROR

        return cls(None, estimate)

    @property
    def approx(self) -> float:
        return self.estimate()[0]

    def __str__(self) -> str:
        if self.exact is not None:
            return str(self.exact)
        return repr(self.approx)


def _edged_facts(g: Graph | GraphFacts) -> GraphFacts:
    """The facts of ``g``; raises unless every component contains an edge."""
    f = GraphFacts.of(g)
    if f.edge_reason:
        isolated = list(f.graph.isolated_vertices)
        raise ValueError(
            "index requires every component to contain an edge; "
            + (f"isolated vertices: {isolated}" if isolated else f.edge_reason)
        )
    return f


def ga1(g: Graph | GraphFacts) -> IndexValue:
    """Geometric-arithmetic index: sum over edges of 2*sqrt(du*dv)/(du+dv)."""
    return IndexValue.of_exact(_edged_facts(g).ga1)


def _snap_exponent(alpha: float | int | Fraction) -> Fraction | None:
    """Nearest integer or half-integer when within 1e-12, else None."""
    if isinstance(alpha, int):
        return Fraction(alpha)
    if isinstance(alpha, Fraction):
        return alpha if alpha.denominator in (1, 2) else None
    if not math.isfinite(2 * alpha):
        return None
    doubled = round(2 * alpha)
    if abs(2 * alpha - doubled) <= 2 * _SNAP:
        return Fraction(doubled, 2)
    return None


class NotRadicalError(ValueError):
    """An exact power whose value need not lie in the rational radical span."""


Exponent = int | Fraction | float | tuple[int, int]


def _half_integer(alpha: Exponent) -> tuple[int, int]:
    """``alpha`` as a pair ``(num, den)`` in lowest terms with ``den`` 1 or 2.

    ``alpha`` is a number, read exactly, or a pair ``(num, den)`` of
    integers with ``den > 0``.  Raises :class:`NotRadicalError` off the
    half-integers and ``ValueError`` above ``MAX_EXACT_EXPONENT``.
    """
    num, den = alpha if isinstance(alpha, tuple) else alpha.as_integer_ratio()
    g = math.gcd(num, den)
    num, den = num // g, den // g
    if den > 2:
        raise NotRadicalError(f"exponent {num}/{den} is not a multiple of 1/2")
    if abs(num) > den * MAX_EXACT_EXPONENT:
        raise ValueError(
            "exact powers need |alpha| <= MAX_EXACT_EXPONENT "
            f"({MAX_EXACT_EXPONENT})"
        )
    return num, den


def _power_term(p: int, r: int, num: int, den: int) -> tuple[int, int, int]:
    """``(p/r) ** (num/den)`` as one triple ``(c, k, r)`` of :func:`radical_sum`,
    for integers ``p >= 0`` and ``r > 0`` and ``den`` 1 or 2."""
    if num < 0:  # (p/r)**-x == (r/p)**x
        if not p:
            raise ZeroDivisionError(f"zero to the power {num}/{den}")
        p, r, num = r, p, -num
    k, half = divmod(num, den)
    # (p/r)**(k + half/2) == p**k * sqrt((p*r)**half) / r**(k + half)
    return p**k, (p * r) ** half, r ** (k + half)


def _power_factor(
    base: int | Fraction | RadicalNumber, alpha: Exponent
) -> tuple[int, int, int] | RadicalNumber:
    """Exact ``base ** alpha`` where it is known to be a radical: a
    ``RadicalNumber`` base itself at alpha == 1, else one triple of
    :func:`radical_sum`.

    That is a rational base >= 0 with alpha in Z or Z + 1/2, or a
    ``RadicalNumber`` base with alpha == 1 or a rational value.  ``alpha`` is
    read by :func:`_half_integer`; anything else raises
    :class:`NotRadicalError`.
    """
    num, den = _half_integer(alpha)
    if isinstance(base, RadicalNumber):
        if num == den:
            return base
        if not base.is_rational:
            raise NotRadicalError(f"irrational base to the power {num}/{den}")
        base = base.rational_part
    if base < 0:
        raise NotRadicalError(f"negative base {base}")
    return _power_term(base.numerator, base.denominator, num, den)


def _power_sum(terms: Iterable[tuple[int, int]], alpha: Exponent) -> RadicalNumber:
    """Exact sum of ``count * base**alpha`` over pairs ``(base, count)``.

    Every base is a nonnegative integer: the callers pass degrees, degree
    products and degree sums.  Each term is one triple of
    :func:`_power_term`, scaled by its count, and :func:`radical_sum` adds
    them all and normalizes once.  At alpha = 0 the sum is the total count.
    """
    num, den = _half_integer(alpha)
    scaled = []
    for base, count in terms:
        if not isinstance(base, int) or base < 0:
            raise ValueError(f"power sums take integer bases >= 0, got {base!r}")
        c, k, r = _power_term(base, 1, num, den)
        scaled.append((count * c, k, r))
    return radical_sum(scaled)


def _sum_powers(counts: Counter[int], alpha: float | Fraction) -> IndexValue:
    snapped = _snap_exponent(alpha)
    if snapped is not None:
        return IndexValue.of_exact(_power_sum(counts.items(), snapped))
    powers = (count * float(base) ** float(alpha) for base, count in counts.items())
    try:
        # Left to right on every Python: 3.12's sum() compensates float rounding.
        return IndexValue.of_float(reduce(add, powers, 0))
    except OverflowError as exc:
        raise ValueError(f"alpha={alpha} is out of range: {exc}") from None


def m1_alpha(g: Graph | GraphFacts, alpha: float | int | Fraction) -> IndexValue:
    """Variable first Zagreb index: sum of deg(u)**alpha over vertices."""
    return _sum_powers(_edged_facts(g).degree_counts, alpha)


def m2_alpha(g: Graph | GraphFacts, alpha: float | int | Fraction) -> IndexValue:
    """Variable second Zagreb index: sum of (du*dv)**alpha over edges."""
    counts: Counter[int] = Counter()
    for (a, b), count in _edged_facts(g).degree_pairs.items():
        counts[a * b] += count
    return _sum_powers(counts, alpha)


def chi_alpha(g: Graph | GraphFacts, alpha: float | int | Fraction) -> IndexValue:
    """General sum-connectivity index: sum of (du+dv)**alpha over edges."""
    counts: Counter[int] = Counter()
    for (a, b), count in _edged_facts(g).degree_pairs.items():
        counts[a + b] += count
    return _sum_powers(counts, alpha)


def m1(g: Graph | GraphFacts) -> IndexValue:
    return m1_alpha(g, 2)


def m2(g: Graph | GraphFacts) -> IndexValue:
    return m2_alpha(g, 1)


def forgotten(g: Graph | GraphFacts) -> IndexValue:
    return m1_alpha(g, 3)


def harmonic(g: Graph | GraphFacts) -> IndexValue:
    inner = chi_alpha(g, -1)
    assert inner.exact is not None
    return IndexValue.of_exact(2 * inner.exact)


def inverse_degree(g: Graph | GraphFacts) -> IndexValue:
    return m1_alpha(g, -1)


def randic(g: Graph | GraphFacts) -> IndexValue:
    return m2_alpha(g, Fraction(-1, 2))


def sum_connectivity(g: Graph | GraphFacts) -> IndexValue:
    return chi_alpha(g, Fraction(-1, 2))


def all_indices(g: Graph | GraphFacts) -> dict[str, IndexValue]:
    """The standard battery, keyed by conventional short names, read from
    one ``GraphFacts``."""
    f = GraphFacts.of(g)
    return {
        "GA1": ga1(f),
        "M1": m1(f),
        "M2": m2(f),
        "F": forgotten(f),
        "H": harmonic(f),
        "ID": inverse_degree(f),
        "R": randic(f),
        "chi": sum_connectivity(f),
    }
