"""Vertex-degree-based topological indices, exact wherever possible.

The geometric-arithmetic index and every integer or half-integer exponent
variant live in the rational radical span, so those paths are exact; other
exponents fall back to floats.  Exponents arriving as decimal text are snapped
to the nearest integer or half-integer when within 1e-12, so ``0.5`` hits the
exact path.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from operator import add
from typing import Callable, Iterable

from .graphs import Graph
from .radicals import RadicalNumber, radical_sqrt

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

    ``approx`` and its absolute ``error`` only serve display, since verdicts
    are decided on ``exact``; ``estimate`` computes them on first read.
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

    @cached_property
    def _display(self) -> tuple[float, float]:
        return self.estimate()

    @property
    def approx(self) -> float:
        return self._display[0]

    @property
    def error(self) -> float:
        return self._display[1]

    def __str__(self) -> str:
        if self.exact is not None:
            return str(self.exact)
        return repr(self.approx)


def _require_no_edgeless_component(g: Graph) -> None:
    # A component without an edge is exactly an isolated vertex.
    isolated = g.isolated_vertices
    if g.n == 0 or isolated:
        raise ValueError(
            "index requires every component to contain an edge; "
            f"isolated vertices: {list(isolated)}"
        )


def _degree_pairs(g: Graph) -> Counter[tuple[int, int]]:
    pairs: Counter[tuple[int, int]] = Counter()
    for u, v in g.edges:
        a, b = g.deg[u], g.deg[v]
        pairs[(a, b) if a <= b else (b, a)] += 1
    return pairs


def _ga1_exact(pairs: Counter[tuple[int, int]]) -> RadicalNumber:
    """GA1 from the degree-pair counts of :func:`_degree_pairs`."""
    den = math.lcm(*(a + b for a, b in pairs))
    terms: dict[int, int] = {}
    for (a, b), count in pairs.items():
        s, q = radical_sqrt(a * b)
        terms[q] = terms.get(q, 0) + 2 * count * s * (den // (a + b))
    return RadicalNumber._raw(terms, den)


def ga1(g: Graph) -> IndexValue:
    """Geometric-arithmetic index: sum over edges of 2*sqrt(du*dv)/(du+dv)."""
    _require_no_edgeless_component(g)
    return IndexValue.of_exact(_ga1_exact(_degree_pairs(g)))


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


def _exact_pow(base: int | Fraction | RadicalNumber, alpha: Exponent) -> RadicalNumber:
    """Exact ``base ** alpha`` where it is known to be a radical.

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
    p, r = base.numerator, base.denominator
    if num < 0:  # base**-x == (1/base)**x
        if not p:
            raise ZeroDivisionError(f"zero to the power {num}/{den}")
        p, r, num = r, p, -num
    k = num // den
    if den == 1:
        return RadicalNumber._raw({1: p**k}, r**k)
    # (p/r)**(k + 1/2) == p**k * s*sqrt(q) / r**(k+1), where p*r == s*s*q
    s, q = radical_sqrt(p * r) if p else (0, 1)
    return RadicalNumber._raw({q: s * p**k}, r ** (k + 1))


def _power_sum(terms: Iterable[tuple[int, int]], alpha: Exponent) -> RadicalNumber:
    """Exact sum of ``count * base**alpha`` over pairs ``(base, count)``.

    A nonnegative integer exponent is summed in integers and converted once,
    so at alpha = 0 the sum is the total count.
    """
    num, den = _half_integer(alpha)
    if den == 1 and num >= 0:
        return RadicalNumber(sum(count * base**num for base, count in terms))
    powers = (count * _exact_pow(base, (num, den)) for base, count in terms)
    return sum(powers, RadicalNumber(0))


def _sum_powers(counts: Counter[int], alpha: float | Fraction) -> IndexValue:
    snapped = _snap_exponent(alpha)
    if snapped is not None:
        return IndexValue.of_exact(_power_sum(counts.items(), snapped))
    powers = (count * float(base) ** float(alpha) for base, count in counts.items())
    # Left to right on every Python: 3.12's sum() compensates float rounding.
    return IndexValue.of_float(reduce(add, powers, 0))


def m1_alpha(g: Graph, alpha: float | int | Fraction) -> IndexValue:
    """Variable first Zagreb index: sum of deg(u)**alpha over vertices."""
    _require_no_edgeless_component(g)
    return _sum_powers(Counter(g.deg), alpha)


def m2_alpha(g: Graph, alpha: float | int | Fraction) -> IndexValue:
    """Variable second Zagreb index: sum of (du*dv)**alpha over edges."""
    _require_no_edgeless_component(g)
    counts: Counter[int] = Counter()
    for (a, b), count in _degree_pairs(g).items():
        counts[a * b] += count
    return _sum_powers(counts, alpha)


def chi_alpha(g: Graph, alpha: float | int | Fraction) -> IndexValue:
    """General sum-connectivity index: sum of (du+dv)**alpha over edges."""
    _require_no_edgeless_component(g)
    counts: Counter[int] = Counter()
    for (a, b), count in _degree_pairs(g).items():
        counts[a + b] += count
    return _sum_powers(counts, alpha)


def m1(g: Graph) -> IndexValue:
    return m1_alpha(g, 2)


def m2(g: Graph) -> IndexValue:
    return m2_alpha(g, 1)


def forgotten(g: Graph) -> IndexValue:
    return m1_alpha(g, 3)


def harmonic(g: Graph) -> IndexValue:
    inner = chi_alpha(g, -1)
    assert inner.exact is not None
    return IndexValue.of_exact(2 * inner.exact)


def inverse_degree(g: Graph) -> IndexValue:
    return m1_alpha(g, -1)


def randic(g: Graph) -> IndexValue:
    return m2_alpha(g, Fraction(-1, 2))


def sum_connectivity(g: Graph) -> IndexValue:
    return chi_alpha(g, Fraction(-1, 2))


def all_indices(g: Graph) -> dict[str, IndexValue]:
    """The standard battery, keyed by conventional short names."""
    return {
        "GA1": ga1(g),
        "M1": m1(g),
        "M2": m2(g),
        "F": forgotten(g),
        "H": harmonic(g),
        "ID": inverse_degree(g),
        "R": randic(g),
        "chi": sum_connectivity(g),
    }
