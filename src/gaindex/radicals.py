"""Exact arithmetic in the rational span of square roots of squarefree integers.

A value ``sum n_q * sqrt(q) / den`` is stored as one positive integer
denominator ``den`` and a map ``q -> n_q`` of nonzero integer numerators, with
every key a squarefree positive integer and ``den`` coprime to the numerators
taken together.  Square roots of distinct squarefree integers are linearly
independent over the rationals, so this is a canonical form: two values are
equal exactly when their denominators and maps coincide.  :func:`radical_sum`
builds a value from integer terms ``c * sqrt(k) / r`` of any radicand, so no
other module needs to know this form.  Each operation works on integers and
divides out one gcd at the end.  A product of two radicands
splits without factoring: with ``g = gcd(q1, q2)``,
``sqrt(q1*q2) = g * sqrt((q1/g) * (q2/g))``, and that radicand is squarefree.
Order is decided in integers.  Every value keeps one integer enclosure at
``_START_BITS``, computed when first needed: :func:`compare` settles a
comparison when the enclosures of its sides are disjoint; only when they
overlap does it test equality and take the sign of the exact difference, by
interval refinement with escalating precision, which terminates because
distinct values are distinct real numbers.  The same enclosure is the first
round of the default 53-bit display float, and a value keeps that float and
its display string once computed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable

__all__ = [
    "RadicalNumber",
    "radical_sqrt",
    "radical_sum",
    "compare",
    "format_radical",
    "parse_radical",
]

# A display float of b bits is read from bounds of b + _GUARD_BITS bits.
# The enclosure each value keeps is the first round of the default 53-bit
# display, so compare's filter, sign's first round and display share it.
# Refinement doubles the width each round; a cap turns a (mathematically
# impossible) non-terminating comparison into a loud error.
_DISPLAY_BITS = 53
_GUARD_BITS = 16
_START_BITS = _DISPLAY_BITS + _GUARD_BITS
_MAX_BITS = 1 << 16

Rational = int | Fraction


def radical_sqrt(k: int) -> tuple[int, int]:
    """Split ``k >= 1`` as ``k = s*s*q`` with ``q`` squarefree.

    Then ``sqrt(k) = s*sqrt(q)``.  Trial division is plenty here: the inputs
    are products or sums of vertex degrees, so they stay tiny.
    """
    if k < 1:
        raise ValueError(f"expected a positive integer, got {k!r}")
    s = 1
    q = 1
    rem = k
    d = 2
    while d * d <= rem:
        if rem % d == 0:
            e = 0
            while rem % d == 0:
                rem //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                q *= d
        d += 1 if d == 2 else 2
    return s, q * rem


def _ratio(value: Rational) -> tuple[int, int]:
    """``(numerator, denominator)`` of an int or Fraction."""
    if isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


class RadicalNumber:
    """An exact element of the rational span of sqrt(q) for squarefree q.

    Values are immutable.  Each keeps, once computed, its enclosure at
    ``_START_BITS``, its 53-bit ``float_with_error`` and its display string.
    """

    __slots__ = ("_num", "_den", "_bounds", "_display", "_text")

    def __init__(self, value: Rational | dict[int, Rational] = 0):
        if not isinstance(value, dict):
            n, d = _ratio(value)
            self._set({1: n}, d)
            return
        terms = []
        for q, c in value.items():
            if not isinstance(q, int) or q < 1:
                raise ValueError(f"radicand must be a positive integer, got {q!r}")
            n, d = _ratio(c)
            terms.append((n, q, d))
        total = radical_sum(terms)
        self._set(total._num, total._den)

    def _set(self, num: dict[int, int], den: int) -> "RadicalNumber":
        """Store ``sum num[q] * sqrt(q) / den`` in lowest terms and return self;
        every key must be squarefree and ``den`` positive."""
        if 0 in num.values():
            num = {q: c for q, c in num.items() if c}
        g = gcd(den, *num.values())
        if g != 1:
            num = {q: c // g for q, c in num.items()}
            den //= g
        self._num = num
        self._den = den
        self._bounds = self._display = self._text = None
        return self

    @classmethod
    def _raw(cls, num: dict[int, int], den: int) -> "RadicalNumber":
        """Internal constructor: squarefree keys, ``den > 0``, any common factor."""
        return cls.__new__(cls)._set(num, den)

    @classmethod
    def sqrt_int(cls, k: int) -> "RadicalNumber":
        """Exact ``sqrt(k)`` for an integer ``k >= 0``."""
        return radical_sum([(1, k, 1)])

    @classmethod
    def sqrt_fraction(cls, r: Rational) -> "RadicalNumber":
        """Exact ``sqrt(r)`` for a nonnegative rational ``r``."""
        n, d = _ratio(r)
        if n < 0:
            raise ValueError(f"cannot take a real square root of {Fraction(n, d)}")
        return radical_sum([(1, n * d, d)])  # sqrt(n/d) = sqrt(n*d)/d

    @property
    def terms(self) -> dict[int, Fraction]:
        return {q: Fraction(c, self._den) for q, c in self._num.items()}

    @property
    def is_rational(self) -> bool:
        return all(q == 1 for q in self._num)

    @property
    def is_integer(self) -> bool:
        return self._den == 1 and self.is_rational

    @property
    def rational_part(self) -> Fraction:
        return Fraction(self._num.get(1, 0), self._den)

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.rational_part

    # -- ring operations -------------------------------------------------

    def _coerce(self, other: object) -> "RadicalNumber | None":
        if isinstance(other, RadicalNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return RadicalNumber._raw({1: other.numerator}, other.denominator)
        return None

    def _combine(self, other: object, sign: int) -> "RadicalNumber":
        """``self + sign * other``, over the lcm of the two denominators."""
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        g = gcd(self._den, rhs._den)
        scale, rscale = rhs._den // g, sign * (self._den // g)
        num = {q: c * scale for q, c in self._num.items()}
        for q, c in rhs._num.items():
            num[q] = num.get(q, 0) + c * rscale
        return RadicalNumber._raw(num, self._den * scale)

    def __add__(self, other: object) -> "RadicalNumber":
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "RadicalNumber":
        return RadicalNumber._raw({q: -c for q, c in self._num.items()}, self._den)

    def __sub__(self, other: object) -> "RadicalNumber":
        return self._combine(other, -1)

    def __rsub__(self, other: object) -> "RadicalNumber":
        return -(self - other)

    def __mul__(self, other: object) -> "RadicalNumber":
        if isinstance(other, (int, Fraction)):  # scales numerators and denominator
            num = {q: c * other.numerator for q, c in self._num.items()}
            return RadicalNumber._raw(num, self._den * other.denominator)
        if not isinstance(other, RadicalNumber):
            return NotImplemented
        num: dict[int, int] = {}
        for q1, c1 in self._num.items():
            for q2, c2 in other._num.items():
                g = gcd(q1, q2)
                q = (q1 // g) * (q2 // g)
                num[q] = num.get(q, 0) + c1 * c2 * g
        return RadicalNumber._raw(num, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "RadicalNumber":
        if isinstance(other, RadicalNumber):
            if not other.is_rational:
                raise ValueError("division is supported only by nonzero rationals")
            n, d = other._num.get(1, 0), other._den
        else:
            n, d = _ratio(other)
        if not n:
            raise ZeroDivisionError("division by zero")
        if n < 0:
            n, d = -n, -d
        num = {q: c * d for q, c in self._num.items()}
        return RadicalNumber._raw(num, self._den * n)

    def __bool__(self) -> bool:
        return bool(self._num)

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._den == rhs._den and self._num == rhs._num

    def __hash__(self) -> int:
        if self.is_rational:  # equal to its Fraction, so hashed like one
            return hash(self.rational_part)
        return hash(tuple(sorted(self.terms.items())))

    def _interval(self, bits: int) -> tuple[int, int, int]:
        """Integers ``(lo, hi, den)`` with ``lo/den <= value <= hi/den``.

        ``den`` is the stored denominator shifted left by ``bits``, so each
        term is its integer numerator times a fixed-point bound of its square
        root; no rational is normalized on the way.
        """
        lo = hi = 0
        for q, k in self._num.items():
            if q == 1:
                lo += k << bits
                hi += k << bits
                continue
            # q is squarefree and above 1, so sqrt(q) * 2^bits is irrational
            # and lies strictly between root and root + 1.
            root = isqrt(q << (2 * bits))
            if k > 0:
                lo += k * root
                hi += k * (root + 1)
            else:
                lo += k * (root + 1)
                hi += k * root
        return lo, hi, self._den << bits

    def _enclosure(self) -> tuple[int, int, int]:
        """``_interval(_START_BITS)``, computed on first use and kept."""
        if self._bounds is None:
            self._bounds = self._interval(_START_BITS)
        return self._bounds

    def sign(self) -> int:
        """-1, 0 or 1; exact."""
        if not self._num:
            return 0
        if len(self._num) == 1:
            return 1 if next(iter(self._num.values())) > 0 else -1
        lo, hi, _ = self._enclosure()
        bits = _START_BITS
        while lo <= 0 <= hi:
            bits *= 2
            if bits > _MAX_BITS:
                raise AssertionError(f"sign of nonzero value {self} did not resolve")
            lo, hi, _ = self._interval(bits)
        return 1 if lo > 0 else -1

    def __lt__(self, other: RadicalNumber | Rational) -> bool:
        return compare(self, other) < 0

    def __le__(self, other: RadicalNumber | Rational) -> bool:
        return compare(self, other) <= 0

    def __gt__(self, other: RadicalNumber | Rational) -> bool:
        return compare(self, other) > 0

    def __ge__(self, other: RadicalNumber | Rational) -> bool:
        return compare(self, other) >= 0

    # -- numeric conversion ----------------------------------------------

    def float_with_error(self, bits: int = _DISPLAY_BITS) -> tuple[float, float]:
        """Approximation and an absolute error bound.

        The relative error is at most ``2**(1 - bits)`` (down to float64
        resolution); internal precision escalates until cancellation between
        terms is resolved.  The 53-bit pair is computed once per value.
        """
        if bits != _DISPLAY_BITS:
            return self._float_with_error(bits)
        if self._display is None:
            self._display = self._float_with_error(bits)
        return self._display

    def _float_with_error(self, bits: int) -> tuple[float, float]:
        if bits < 32:
            raise ValueError(f"precision must be at least 32 bits, got {bits}")
        if not self._num:
            return 0.0, 0.0
        work = bits + _GUARD_BITS
        lo, hi, den = self._enclosure() if work == _START_BITS else self._interval(work)
        while True:
            total = lo + hi
            if total and (hi - lo) << bits <= abs(total):
                # int / int rounds correctly, as Fraction.__float__ does.
                mid = total / (2 * den)
                return mid, (hi - lo) / (2 * den) + abs(mid) * 2.0**-52
            if work > _MAX_BITS:
                raise AssertionError("precision escalation did not converge")
            work *= 2
            lo, hi, den = self._interval(work)

    def to_float(self, bits: int = _DISPLAY_BITS) -> float:
        return self.float_with_error(bits)[0]

    __float__ = to_float

    # -- display ----------------------------------------------------------

    def __str__(self) -> str:
        if self._text is None:
            self._text = format_radical(self)
        return self._text

    def __repr__(self) -> str:
        return f"RadicalNumber({format_radical(self)!r})"


def radical_sum(terms: Iterable[tuple[int, int, int]]) -> RadicalNumber:
    """Exact ``sum c * sqrt(k) / r`` over integer triples ``(c, k, r)`` with
    ``k >= 0`` and ``r > 0``.

    Each ``k`` is split by :func:`radical_sqrt`, every term is put over the
    lcm of the ``r`` and the sum is normalized once.  The keys of a value
    are squarefree by construction, so callers need not split them.
    """
    terms = list(terms)
    den = 1
    for _, _, r in terms:
        if den % r:
            den = lcm(den, r)
    num: dict[int, int] = {}
    for c, k, r in terms:
        if c and k:
            s, q = radical_sqrt(k) if k != 1 else (1, 1)
            num[q] = num.get(q, 0) + c * s * (den // r)
    return RadicalNumber.__new__(RadicalNumber)._set(num, den)


def compare(
    a: RadicalNumber,
    b: RadicalNumber | Rational,
    scale: RadicalNumber | Rational | None = None,
) -> int:
    """Exact three-way comparison of ``a * scale`` (default ``a``) with ``b``:
    -1 (less), 0 (equal) or 1 (greater).

    Each side is bounded by the enclosures its values keep, a product by
    those of its factors.  Disjoint integer bounds decide; only overlapping
    ones lead to building the exact product and difference.  A positive
    ``scale`` decides a quotient bound ``a >= b / scale`` by
    cross-multiplication.
    """
    if not isinstance(b, RadicalNumber):
        b = RadicalNumber(b)
    lo, hi, den = a._enclosure()
    if scale is not None:
        if not isinstance(scale, RadicalNumber):
            scale = RadicalNumber(scale)
        slo, shi, sden = scale._enclosure()
        corners = (lo * slo, lo * shi, hi * slo, hi * shi)
        lo, hi, den = min(corners), max(corners), den * sden
    blo, bhi, bden = b._enclosure()
    if hi * bden < blo * den:
        return -1
    if lo * bden > bhi * den:
        return 1
    if scale is not None:
        a = a * scale
    if a == b:
        return 0
    return (a - b).sign()


def format_radical(value: RadicalNumber) -> str:
    """Canonical display form, e.g. ``1 + 4/3*sqrt(2)``; terms sorted by q."""
    if not value._num:
        return "0"
    den = value._den
    parts: list[str] = []
    for q, c in sorted(value._num.items()):
        g = gcd(c, den)
        mag = str(abs(c) // g) if den == g else f"{abs(c) // g}/{den // g}"
        if q == 1:
            body = mag
        elif mag == "1":
            body = f"sqrt({q})"
        else:
            body = f"{mag}*sqrt({q})"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


_TERM_RE = re.compile(
    r"^(?P<coeff>\d+(?:/\d+)?)?(?P<star>\*)?(?:sqrt\((?P<q>\d+)\))?$"
)


def parse_radical(text: str) -> RadicalNumber:
    """Parse the display format produced by :func:`format_radical`."""
    compact = text.replace(" ", "")
    if not compact:
        raise ValueError("empty radical literal")
    if compact == "0":
        return RadicalNumber(0)
    tokens = re.findall(r"[+-]?[^+-]+", compact)
    if "".join(tokens) != compact:
        raise ValueError(f"malformed radical literal: {text!r}")
    terms: dict[int, Fraction] = {}
    for token in tokens:
        sign = 1
        body = token
        if body[0] in "+-":
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        m = _TERM_RE.match(body)
        if not m or (m.group("star") and not (m.group("coeff") and m.group("q"))) or (
            not m.group("coeff") and not m.group("q")
        ) or (m.group("coeff") and m.group("q") and not m.group("star")):
            raise ValueError(f"malformed radical term: {token!r}")
        coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
        q = int(m.group("q")) if m.group("q") else 1
        if q < 1:
            raise ValueError(f"malformed radical term: {token!r}")
        cur = terms.get(q, Fraction(0)) + sign * coeff
        if cur:
            terms[q] = cur
        else:
            terms.pop(q, None)
    return RadicalNumber(terms)
