"""Exact arithmetic in the rational span of square roots of squarefree integers.

A value is stored as a map ``q -> c_q`` meaning ``sum c_q * sqrt(q)``, with
every key a squarefree positive integer and every coefficient a nonzero
rational.  Square roots of distinct squarefree integers are linearly
independent over the rationals, so the map is a canonical form: two values are
equal exactly when their maps coincide.  Strict order is decided by interval
refinement with escalating precision, which terminates because distinct values
are distinct real numbers.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt, lcm

__all__ = [
    "RadicalNumber",
    "radical_sqrt",
    "compare",
    "format_radical",
    "parse_radical",
]

# Interval refinement starts here and doubles each round; a cap turns a
# (mathematically impossible) non-terminating comparison into a loud error.
_START_BITS = 64
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


def _as_fraction(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


class RadicalNumber:
    """An exact element of the rational span of sqrt(q) for squarefree q."""

    __slots__ = ("_terms",)

    def __init__(self, value: Rational | dict[int, Rational] = 0):
        terms: dict[int, Fraction] = {}
        if isinstance(value, dict):
            for q, c in value.items():
                if not isinstance(q, int) or q < 1:
                    raise ValueError(f"radicand must be a positive integer, got {q!r}")
                coeff = _as_fraction(c)
                if not coeff:
                    continue
                s, qf = radical_sqrt(q)
                cur = terms.get(qf)
                new = (cur if cur is not None else Fraction(0)) + coeff * s
                if new:
                    terms[qf] = new
                else:
                    terms.pop(qf, None)
        else:
            coeff = _as_fraction(value)
            if coeff:
                terms[1] = coeff
        self._terms = terms

    @classmethod
    def _raw(cls, terms: dict[int, Fraction]) -> "RadicalNumber":
        """Internal constructor: terms already normalized."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def sqrt_int(cls, k: int) -> "RadicalNumber":
        """Exact ``sqrt(k)`` for a positive integer ``k``."""
        s, q = radical_sqrt(k)
        return cls._raw({q: Fraction(s)})

    @classmethod
    def sqrt_fraction(cls, r: Rational) -> "RadicalNumber":
        """Exact ``sqrt(r)`` for a nonnegative rational ``r``."""
        frac = _as_fraction(r)
        if frac < 0:
            raise ValueError(f"cannot take a real square root of {frac}")
        if frac == 0:
            return cls._raw({})
        # sqrt(a/b) = sqrt(a*b)/b
        s, q = radical_sqrt(frac.numerator * frac.denominator)
        return cls._raw({q: Fraction(s, frac.denominator)})

    @property
    def terms(self) -> dict[int, Fraction]:
        return dict(self._terms)

    @property
    def is_rational(self) -> bool:
        return all(q == 1 for q in self._terms)

    @property
    def is_integer(self) -> bool:
        if not self._terms:
            return True
        return self.is_rational and self._terms[1].denominator == 1

    @property
    def rational_part(self) -> Fraction:
        return self._terms.get(1, Fraction(0))

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.rational_part

    # -- ring operations -------------------------------------------------

    def _coerce(self, other: object) -> "RadicalNumber | None":
        if isinstance(other, RadicalNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return RadicalNumber(other)
        return None

    def __add__(self, other: object) -> "RadicalNumber":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        terms = dict(self._terms)
        for q, c in rhs._terms.items():
            new = terms.get(q, Fraction(0)) + c
            if new:
                terms[q] = new
            else:
                terms.pop(q, None)
        return RadicalNumber._raw(terms)

    __radd__ = __add__

    def __neg__(self) -> "RadicalNumber":
        return RadicalNumber._raw({q: -c for q, c in self._terms.items()})

    def __sub__(self, other: object) -> "RadicalNumber":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> "RadicalNumber":
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs + (-self)

    def __mul__(self, other: object) -> "RadicalNumber":
        if isinstance(other, (int, Fraction)):
            # A rational factor only scales the coefficients.
            if not other:
                return RadicalNumber._raw({})
            return RadicalNumber._raw({q: c * other for q, c in self._terms.items()})
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        terms: dict[int, Fraction] = {}
        for q1, c1 in self._terms.items():
            for q2, c2 in rhs._terms.items():
                if q1 == q2:
                    q, coeff = 1, c1 * c2 * q1
                else:
                    s, q = radical_sqrt(q1 * q2)
                    coeff = c1 * c2 * s
                new = terms.get(q, Fraction(0)) + coeff
                if new:
                    terms[q] = new
                else:
                    terms.pop(q, None)
        return RadicalNumber._raw(terms)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "RadicalNumber":
        if isinstance(other, RadicalNumber):
            if not other.is_rational:
                raise ValueError("division is supported only by nonzero rationals")
            other = other.rational_part
        divisor = _as_fraction(other)
        if not divisor:
            raise ZeroDivisionError("division by zero")
        return RadicalNumber._raw({q: c / divisor for q, c in self._terms.items()})

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._terms == rhs._terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items())))

    def _interval(self, bits: int) -> tuple[int, int, int]:
        """Integers ``(lo, hi, den)`` with ``lo/den <= value <= hi/den``.

        ``den`` is the lcm of the coefficient denominators shifted left by
        ``bits``, so each term is an integer numerator times a fixed-point
        bound of its square root; no rational is normalized on the way.
        """
        terms = self._terms
        common = lcm(*(c.denominator for c in terms.values()))
        lo = hi = 0
        for q, c in terms.items():
            k = c.numerator * (common // c.denominator)
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
        return lo, hi, common << bits

    def sign(self) -> int:
        """-1, 0 or 1; exact."""
        if not self._terms:
            return 0
        if len(self._terms) == 1:
            c = next(iter(self._terms.values()))
            return 1 if c > 0 else -1
        bits = _START_BITS
        while bits <= _MAX_BITS:
            lo, hi, _ = self._interval(bits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits *= 2
        raise AssertionError(f"sign of nonzero value {self._terms!r} did not resolve")

    def __lt__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return (self - rhs).sign() < 0

    def __le__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return (self - rhs).sign() <= 0

    def __gt__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return (self - rhs).sign() > 0

    def __ge__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return (self - rhs).sign() >= 0

    # -- numeric conversion ----------------------------------------------

    def float_with_error(self, bits: int = 53) -> tuple[float, float]:
        """Approximation and an absolute error bound.

        The relative error is at most ``2**(1 - bits)`` (down to float64
        resolution); internal precision escalates until cancellation between
        terms is resolved.
        """
        if bits < 32:
            raise ValueError(f"precision must be at least 32 bits, got {bits}")
        if not self._terms:
            return 0.0, 0.0
        work = bits + 16
        while True:
            lo, hi, den = self._interval(work)
            total = lo + hi
            if total and (hi - lo) << bits <= abs(total):
                # int / int rounds correctly, as Fraction.__float__ does.
                mid = total / (2 * den)
                return mid, (hi - lo) / (2 * den) + abs(mid) * 2.0**-52
            if work > _MAX_BITS:
                raise AssertionError("precision escalation did not converge")
            work *= 2

    def to_float(self, bits: int = 53) -> float:
        return self.float_with_error(bits)[0]

    __float__ = to_float

    # -- display ----------------------------------------------------------

    def __str__(self) -> str:
        return format_radical(self)

    def __repr__(self) -> str:
        return f"RadicalNumber({format_radical(self)!r})"


def compare(a: RadicalNumber, b: RadicalNumber | Rational) -> int:
    """Exact three-way comparison: -1 (less), 0 (equal) or 1 (greater)."""
    if not isinstance(b, RadicalNumber):
        b = RadicalNumber(b)
    if a._terms == b._terms:
        return 0
    return (a - b).sign()


def _format_coeff(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def format_radical(value: RadicalNumber) -> str:
    """Canonical display form, e.g. ``1 + 4/3*sqrt(2)``; terms sorted by q."""
    if not value._terms:
        return "0"
    parts: list[str] = []
    for q, c in sorted(value._terms.items()):
        mag = abs(c)
        if q == 1:
            body = _format_coeff(mag)
        elif mag == 1:
            body = f"sqrt({q})"
        else:
            body = f"{_format_coeff(mag)}*sqrt({q})"
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
