"""Exact radical arithmetic: decomposition, ordering, display round-trips."""

from __future__ import annotations

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaindex import radicals
from gaindex.radicals import (
    RadicalNumber,
    compare,
    format_radical,
    parse_radical,
    radical_sqrt,
    radical_sum,
)


def is_squarefree(q: int) -> bool:
    d = 2
    while d * d <= q:
        if q % (d * d) == 0:
            return False
        d += 1
    return True


def decimal_value(x: RadicalNumber, digits: int = 60) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = digits
        total = Decimal(0)
        for q, c in x.terms.items():
            total += (
                Decimal(c.numerator) / Decimal(c.denominator) * Decimal(q).sqrt()
            )
        return total


class TestRadicalSqrt:
    def test_examples(self):
        assert radical_sqrt(8) == (2, 2)
        assert radical_sqrt(1) == (1, 1)
        assert radical_sqrt(12) == (2, 3)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            radical_sqrt(0)

    def test_random_reconstruction(self):
        rng = random.Random(20240817)
        for _ in range(2000):
            k = rng.randint(1, 10**6)
            s, q = radical_sqrt(k)
            assert s * s * q == k
            assert is_squarefree(q)


rationals = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6
)
radicands = st.sampled_from([1, 2, 3, 5, 6, 7, 10, 15, 30])


@st.composite
def radical_numbers(draw):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n_terms):
        terms[draw(radicands)] = draw(rationals)
    return RadicalNumber(terms)


class TestVectorSpaceLaws:
    @given(radical_numbers(), radical_numbers())
    def test_add_commutative(self, a, b):
        assert a + b == b + a

    @given(radical_numbers(), radical_numbers(), radical_numbers())
    def test_add_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(radical_numbers(), radical_numbers(), rationals)
    def test_scale_distributes(self, a, b, r):
        assert (a + b) * r == a * r + b * r

    @given(radical_numbers(), rationals)
    def test_rational_factor_matches_general_product(self, a, r):
        assert a * r == r * a == a * RadicalNumber(r)

    @given(radical_numbers())
    def test_additive_inverse(self, a):
        assert a + (-a) == RadicalNumber(0)

    @given(radical_numbers(), radical_numbers())
    def test_multiplication_matches_oracle(self, a, b):
        product = a * b
        with localcontext() as ctx:
            ctx.prec = 60
            expected = decimal_value(a) * decimal_value(b)
            assert abs(decimal_value(product) - expected) < Decimal("1e-40")


class TestCompare:
    def test_equal_sqrt2(self):
        assert compare(RadicalNumber.sqrt_int(2), RadicalNumber.sqrt_int(2)) == 0

    def test_p3_value_below_two(self):
        value = RadicalNumber({2: Fraction(4, 3)})
        assert compare(value, 2) < 0

    def test_three_halves_sqrt3_below_16_fifths(self):
        assert compare(RadicalNumber({3: Fraction(3, 2)}), Fraction(16, 5)) < 0

    def test_agrees_with_decimal_oracle(self):
        rng = random.Random(7)
        qs = [1, 2, 3, 5, 6, 7, 10, 15, 30]
        for _ in range(10_000):
            a = RadicalNumber(
                {rng.choice(qs): Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                 for _ in range(rng.randint(0, 3))}
            )
            b = RadicalNumber(
                {rng.choice(qs): Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                 for _ in range(rng.randint(0, 3))}
            )
            got = compare(a, b)
            diff = decimal_value(a) - decimal_value(b)
            if diff > Decimal("1e-40"):
                assert got == 1
            elif diff < Decimal("-1e-40"):
                assert got == -1
            else:
                assert got == 0

    def test_rich_comparisons(self):
        sqrt2 = RadicalNumber.sqrt_int(2)
        assert sqrt2 < 2
        assert sqrt2 > 1
        assert sqrt2 <= sqrt2
        assert RadicalNumber(3) >= 3


class TestRationalityFlags:
    def test_rational_and_integer(self):
        assert RadicalNumber(80).is_rational
        assert RadicalNumber(80).is_integer
        assert RadicalNumber(Fraction(16, 5)).is_rational
        assert not RadicalNumber(Fraction(16, 5)).is_integer
        assert not RadicalNumber({2: Fraction(4, 3)}).is_rational
        assert RadicalNumber(0).is_integer

    def test_normalization_collapses_square_keys(self):
        # sqrt(8) fed as a raw key must normalize to 2*sqrt(2).
        assert RadicalNumber({8: 1}) == RadicalNumber({2: 2})

    def test_as_fraction(self):
        assert RadicalNumber(Fraction(7, 3)).as_fraction() == Fraction(7, 3)
        with pytest.raises(ValueError):
            RadicalNumber.sqrt_int(2).as_fraction()


class TestFloatConversion:
    def test_sqrt2_at_53_bits(self):
        assert RadicalNumber.sqrt_int(2).to_float() == pytest.approx(
            math.sqrt(2), abs=1e-15
        )

    def test_zero_exact(self):
        assert RadicalNumber(0).to_float() == 0.0

    def test_value_within_bound(self):
        value = RadicalNumber({2: Fraction(4, 3)})
        approx, err = value.float_with_error()
        oracle = decimal_value(value)
        assert abs(Decimal(repr(approx)) - oracle) <= Decimal(repr(err))

    def test_cancellation_resolved(self):
        # 577/408 is a close rational approximation of sqrt(2).
        value = RadicalNumber.sqrt_int(2) - Fraction(577, 408)
        approx, err = value.float_with_error()
        assert approx == pytest.approx(float(Decimal(2).sqrt() - Decimal(577) / 408))
        assert err < abs(approx) * 1e-9

    def test_precision_floor(self):
        with pytest.raises(ValueError):
            RadicalNumber(1).float_with_error(bits=16)


# -- differential test of the fixed-point interval kernel ---------------------
#
# The reference below is the rational-arithmetic kernel that the integer one
# replaced: the same bounds, built as normalized Fractions term by term.  The
# integer kernel must give the same signs and bit-identical floats.


def reference_interval(x: RadicalNumber, bits: int) -> tuple[Fraction, Fraction]:
    scale = 1 << bits
    lo_acc = Fraction(0)
    hi_acc = Fraction(0)
    for q, c in x.terms.items():
        if q == 1:
            lo_acc += c
            hi_acc += c
            continue
        scaled = q << (2 * bits)
        lo_s = isqrt(scaled)
        hi_s = lo_s if lo_s * lo_s == scaled else lo_s + 1
        if c > 0:
            lo_acc += c * Fraction(lo_s, scale)
            hi_acc += c * Fraction(hi_s, scale)
        else:
            lo_acc += c * Fraction(hi_s, scale)
            hi_acc += c * Fraction(lo_s, scale)
    return lo_acc, hi_acc


def reference_sign(x: RadicalNumber) -> int:
    terms = x.terms
    if not terms:
        return 0
    if len(terms) == 1:
        return 1 if next(iter(terms.values())) > 0 else -1
    bits = 64
    while True:
        lo, hi = reference_interval(x, bits)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2


def reference_float_with_error(x: RadicalNumber, bits: int) -> tuple[float, float]:
    if not x.terms:
        return 0.0, 0.0
    work = bits + 16
    while True:
        lo, hi = reference_interval(x, bits=work)
        mid = (lo + hi) / 2
        width = hi - lo
        if mid and width * (1 << bits) <= 2 * abs(mid):
            return float(mid), float(width / 2) + abs(float(mid)) * 2.0**-52
        work *= 2


wide_rationals = st.fractions(
    min_value=Fraction(-(10**6)), max_value=Fraction(10**6), max_denominator=10**12
)
any_radicands = st.integers(min_value=1, max_value=10**4)
irrational_radicands = st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13, 15, 30, 105, 9982])


@st.composite
def near_cancelling(draw):
    """``c*sqrt(q) - p/r`` or ``(a + b*sqrt(q)) - (a' + b'*sqrt(q'))`` with the
    rational part a best approximation, so the value is tiny but nonzero."""
    q = draw(irrational_radicands)
    b = draw(wide_rationals.filter(bool))
    digits = draw(st.integers(min_value=1, max_value=12))
    if draw(st.booleans()):
        root = RadicalNumber({q: b})
        return root - Fraction(root.to_float()).limit_denominator(10**digits)
    q2 = draw(irrational_radicands)
    b2 = draw(wide_rationals)
    a = draw(wide_rationals)
    gap = RadicalNumber({q: b}) - RadicalNumber({q2: b2})
    a2 = a + Fraction(gap.to_float()).limit_denominator(10**digits)
    return (a + RadicalNumber({q: b})) - (a2 + RadicalNumber({q2: b2}))


@st.composite
def kernel_inputs(draw):
    """Radicals with 1 to 8 terms and large denominators, or sums of one or
    two near-cancelling values, which stay tiny but nonzero."""
    if draw(st.booleans()):
        n_terms = draw(st.integers(min_value=1, max_value=8))
        return RadicalNumber(
            {draw(any_radicands): draw(wide_rationals) for _ in range(n_terms)}
        )
    value = draw(near_cancelling())
    if draw(st.booleans()):
        value = value + draw(near_cancelling())
    return value


class TestIntervalKernel:
    def test_example_cancellation(self):
        value = Fraction(577, 408) - RadicalNumber.sqrt_int(2)
        assert value.sign() == reference_sign(value) == 1
        for bits in (32, 53):
            assert value.float_with_error(bits) == reference_float_with_error(
                value, bits
            )

    @given(kernel_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_rational_reference(self, value):
        assert value.sign() == reference_sign(value)
        for bits in (32, 53):
            assert value.float_with_error(bits) == reference_float_with_error(
                value, bits
            )

    @given(kernel_inputs())
    @settings(max_examples=200, deadline=None)
    def test_relative_error_bound(self, value):
        true = decimal_value(value, digits=200)
        for bits in (32, 53):
            approx, err = value.float_with_error(bits)
            miss = abs(Decimal(approx) - true)
            assert miss <= Decimal(err)
            # 2^(1-bits), plus float64's own rounding of that bound.
            assert miss <= abs(true) * Decimal(2.0 ** (1 - bits) * (1 + 2.0**-50))


# -- differential test of compare's enclosure filter ---------------------------
#
# compare decides from the enclosures of its sides when they are disjoint
# and builds the exact difference only when they overlap.  The reference is
# the sign of that difference, taken every time.


@st.composite
def comparison_triples(draw):
    """``(a, b, d)`` of both signs, with ``b`` random, equal to ``a`` or to
    ``a * d``, or one of those moved by a tiny nonzero value."""
    values = st.one_of(radical_numbers(), kernel_inputs())
    a, d = draw(values), draw(values)
    kind = draw(st.sampled_from(["random", "a", "a*d"]))
    b = draw(values) if kind == "random" else a + 0 if kind == "a" else a * d
    if draw(st.booleans()):
        b = b + draw(near_cancelling())
    return a, b, d


def sqrt2_floor(bits: int) -> Fraction:
    """``floor(sqrt(2) * 2^bits) / 2^bits``: the lower bound of sqrt(2) at
    ``bits``."""
    return Fraction(isqrt(2 << (2 * bits)), 1 << bits)


# The lower end of sqrt(2)'s enclosure, and the neighbours of sqrt(2) eight
# bits finer, which lie inside the enclosure on either side of sqrt(2).
ENCLOSURE_FLOOR = sqrt2_floor(radicals._START_BITS)
FINE_BITS = radicals._START_BITS + 8
FINE_BELOW = sqrt2_floor(FINE_BITS) - ENCLOSURE_FLOOR
FINE_ABOVE = FINE_BELOW + Fraction(1, 1 << FINE_BITS)


class TestCompareFilter:
    @given(comparison_triples())
    @settings(max_examples=400, deadline=None)
    def test_matches_sign_of_difference(self, triple):
        a, b, d = triple
        assert compare(a, b) == (a - b).sign()
        assert compare(a, b, d) == (a * d - b).sign()
        assert compare(a, a + 0) == compare(a, a * d, d) == 0

    # Each of these rationals lies in the enclosure of sqrt(2), on either
    # side of it.
    @pytest.mark.parametrize(
        "offset, expected",
        [(Fraction(0), 1), (FINE_BELOW, 1), (FINE_ABOVE, -1)],
    )
    def test_overlapping_enclosures_fall_back_to_the_exact_sign(
        self, offset, expected
    ):
        sqrt2 = RadicalNumber.sqrt_int(2)
        near = ENCLOSURE_FLOOR + offset
        lo, hi, den = sqrt2._interval(radicals._START_BITS)
        assert lo <= near * den <= hi  # the filter cannot decide
        assert compare(sqrt2, near) == expected
        assert compare(RadicalNumber(near), sqrt2) == -expected
        assert compare(sqrt2, 3 * near, 3) == expected
        assert compare(sqrt2, 3 * near, RadicalNumber(3)) == expected

    def test_disjoint_enclosures_form_no_difference_or_product(self, monkeypatch):
        counts = {"sub": 0, "mul": 0}
        sub, mul = RadicalNumber.__sub__, RadicalNumber.__mul__

        def counting_sub(self, other):
            counts["sub"] += 1
            return sub(self, other)

        def counting_mul(self, other):
            counts["mul"] += 1
            return mul(self, other)

        monkeypatch.setattr(RadicalNumber, "__sub__", counting_sub)
        monkeypatch.setattr(RadicalNumber, "__mul__", counting_mul)
        ga1_p4 = RadicalNumber({1: 1, 2: Fraction(4, 3)})  # GA1 of the 4-vertex path
        sqrt3 = RadicalNumber.sqrt_int(3)
        assert compare(ga1_p4, 3) < 0
        assert compare(ga1_p4, RadicalNumber(2)) > 0
        assert compare(ga1_p4, sqrt3 + 1, sqrt3) > 0
        assert compare(ga1_p4, 11, RadicalNumber({2: 1, 5: 1})) < 0
        assert RadicalNumber.sqrt_int(2) < sqrt3
        assert counts == {"sub": 0, "mul": 0}
        # A tie builds the product once and no difference; a near miss both.
        assert compare(sqrt3, RadicalNumber(6), RadicalNumber.sqrt_int(12)) == 0
        assert counts == {"sub": 0, "mul": 1}
        assert compare(RadicalNumber.sqrt_int(2), ENCLOSURE_FLOOR, 1) == 1
        assert counts == {"sub": 1, "mul": 2}


class TestKeptEnclosureAndDisplay:
    @given(kernel_inputs(), kernel_inputs(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_kept_values_match_a_fresh_equal_value(self, a, b, compared):
        if compared:
            compare(a, b)
            compare(b, a, a)
        for _ in range(2):  # the first read computes and keeps, the second reads
            fresh = RadicalNumber(a.terms)
            assert str(a) == format_radical(fresh)
            assert a._enclosure() == fresh._interval(radicals._START_BITS)
            assert a.float_with_error() == reference_float_with_error(fresh, 53)
            assert a.float_with_error(32) == reference_float_with_error(fresh, 32)
        assert str(a) is str(a)
        assert a._enclosure() is a._enclosure()
        assert a.float_with_error() is a.float_with_error(53)


# -- differential test of the integer-numerator kernel ------------------------
#
# The reference below is the Fraction-coefficient kernel that the integer one
# replaced: one normalized Fraction per radicand, products split by factoring
# q1*q2.  The integer kernel must give the same terms, signs, strings and
# bit-identical floats.


class FractionRadical:
    """``sum c_q * sqrt(q)`` as a map ``q -> c_q`` of nonzero Fractions."""

    def __init__(self, value: int | Fraction | dict[int, int | Fraction] = 0):
        terms: dict[int, Fraction] = {}
        if not isinstance(value, dict):
            value = {1: value}
        for q, c in value.items():
            coeff = Fraction(c)
            if not coeff:
                continue
            s, qf = radical_sqrt(q)
            new = terms.get(qf, Fraction(0)) + coeff * s
            if new:
                terms[qf] = new
            else:
                terms.pop(qf, None)
        self.terms = terms

    @classmethod
    def _raw(cls, terms: dict[int, Fraction]) -> "FractionRadical":
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @property
    def rational_part(self) -> Fraction:
        return self.terms.get(1, Fraction(0))

    def _coerce(self, other) -> "FractionRadical":
        return other if isinstance(other, FractionRadical) else FractionRadical(other)

    def __add__(self, other) -> "FractionRadical":
        terms = dict(self.terms)
        for q, c in self._coerce(other).terms.items():
            new = terms.get(q, Fraction(0)) + c
            if new:
                terms[q] = new
            else:
                terms.pop(q, None)
        return FractionRadical._raw(terms)

    def __neg__(self) -> "FractionRadical":
        return FractionRadical._raw({q: -c for q, c in self.terms.items()})

    def __sub__(self, other) -> "FractionRadical":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "FractionRadical":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "FractionRadical":
        terms: dict[int, Fraction] = {}
        for q1, c1 in self.terms.items():
            for q2, c2 in self._coerce(other).terms.items():
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
        return FractionRadical._raw(terms)

    def __truediv__(self, other) -> "FractionRadical":
        if isinstance(other, FractionRadical):
            assert all(q == 1 for q in other.terms)
            other = other.rational_part
        return FractionRadical._raw({q: c / other for q, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return self.terms == self._coerce(other).terms

    def _interval(self, bits: int) -> tuple[int, int, int]:
        common = math.lcm(*(c.denominator for c in self.terms.values()))
        lo = hi = 0
        for q, c in self.terms.items():
            k = c.numerator * (common // c.denominator)
            if q == 1:
                lo += k << bits
                hi += k << bits
                continue
            root = isqrt(q << (2 * bits))
            if k > 0:
                lo += k * root
                hi += k * (root + 1)
            else:
                lo += k * (root + 1)
                hi += k * root
        return lo, hi, common << bits

    def sign(self) -> int:
        if not self.terms:
            return 0
        if len(self.terms) == 1:
            return 1 if next(iter(self.terms.values())) > 0 else -1
        bits = 64
        while True:
            lo, hi, _ = self._interval(bits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits *= 2

    def float_with_error(self, bits: int) -> tuple[float, float]:
        if not self.terms:
            return 0.0, 0.0
        work = bits + 16
        while True:
            lo, hi, den = self._interval(work)
            total = lo + hi
            if total and (hi - lo) << bits <= abs(total):
                mid = total / (2 * den)
                return mid, (hi - lo) / (2 * den) + abs(mid) * 2.0**-52
            work *= 2

    def __str__(self) -> str:
        def coeff(c: Fraction) -> str:
            n, d = c.numerator, c.denominator
            return str(n) if d == 1 else f"{n}/{d}"

        if not self.terms:
            return "0"
        parts: list[str] = []
        for q, c in sorted(self.terms.items()):
            mag = abs(c)
            if q == 1:
                body = coeff(mag)
            elif mag == 1:
                body = f"sqrt({q})"
            else:
                body = f"{coeff(mag)}*sqrt({q})"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def assert_matches(value: RadicalNumber, ref: FractionRadical) -> None:
    terms = value.terms
    assert terms == ref.terms
    assert all(type(c) is Fraction for c in terms.values())
    assert value.rational_part == ref.rational_part
    assert type(value.rational_part) is Fraction
    assert str(value) == str(ref)
    assert value.sign() == ref.sign()
    for bits in (32, 53):
        assert value.float_with_error(bits) == ref.float_with_error(bits)


coefficients = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6), wide_rationals
)


class TestIntegerKernel:
    @given(st.dictionaries(any_radicands, coefficients, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_construction_matches_fraction_reference(self, terms):
        assert_matches(RadicalNumber(terms), FractionRadical(terms))

    @given(coefficients)
    @settings(max_examples=100, deadline=None)
    def test_scalar_construction_matches_dict_form(self, c):
        assert_matches(RadicalNumber(c), FractionRadical(c))
        assert RadicalNumber(c) == RadicalNumber({1: c})

    @pytest.mark.parametrize("bad", [1.5, "2", None, Decimal(1)])
    def test_construction_rejects_non_rationals(self, bad):
        with pytest.raises(TypeError):
            RadicalNumber(bad)
        with pytest.raises(TypeError):
            RadicalNumber({1: bad})

    @given(kernel_inputs(), kernel_inputs(), wide_rationals)
    @settings(max_examples=150, deadline=None)
    def test_operations_match_fraction_reference(self, a, b, r):
        ra, rb = FractionRadical(a.terms), FractionRadical(b.terms)
        assert_matches(a, ra)
        assert_matches(a + b, ra + rb)
        assert_matches(a - b, ra - rb)
        assert_matches(r - a, r - ra)
        assert_matches(a * b, ra * rb)
        assert_matches(a * r, ra * r)
        if r:
            assert_matches(a / r, ra / r)
            assert_matches(b / RadicalNumber(r), rb / FractionRadical(r))
        for x, y, rx, ry in ((a, b, ra, rb), (a + b - b, a, ra + rb - rb, ra)):
            assert (x == y) == (rx == ry)
        assert (a == r) == (ra == r)

    @given(kernel_inputs(), wide_rationals)
    @settings(max_examples=100, deadline=None)
    def test_equal_values_hash_equal(self, a, r):
        assert hash(a + r - r) == hash(a)
        assert hash(RadicalNumber(r)) == hash(r)
        if not a.is_rational:
            assert hash(a) == hash(tuple(sorted(a.terms.items())))

    def test_rational_values_hash_like_their_fraction(self):
        assert len({RadicalNumber(2), 2}) == 1
        assert hash(RadicalNumber(Fraction(-7, 3))) == hash(Fraction(-7, 3))
        assert hash(RadicalNumber(0)) == hash(0)
        assert RadicalNumber({2: 1}) - RadicalNumber.sqrt_int(8) / 2 in {0}


# Small radicands repeat within a list, and 0 is among them.
sum_terms = st.lists(
    st.tuples(
        st.integers(min_value=-(10**6), max_value=10**6),
        st.one_of(st.integers(min_value=0, max_value=12), any_radicands),
        st.integers(min_value=1, max_value=10**6),
    ),
    max_size=8,
)


class TestRadicalSum:
    @given(sum_terms)
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_reference(self, terms):
        ref = FractionRadical(0)
        for c, k, r in terms:
            if k:
                ref = ref + FractionRadical({k: Fraction(c, r)})
        assert_matches(radical_sum(terms), ref)
        assert radical_sum(iter(terms)) == radical_sum(terms)

    def test_zero_terms_and_shared_radicals(self):
        assert radical_sum([]) == 0
        assert radical_sum([(0, 7, 3), (5, 0, 2)]) == 0
        assert radical_sum([(1, 8, 1), (-2, 2, 1)]) == 0
        assert radical_sum([(3, 12, 4), (1, 3, 2), (1, 9, 6)]) == RadicalNumber(
            {1: Fraction(1, 2), 3: 2}
        )


class TestDisplayFormat:
    def test_examples(self):
        assert format_radical(RadicalNumber(0)) == "0"
        assert format_radical(RadicalNumber({1: 1, 2: Fraction(4, 3)})) == (
            "1 + 4/3*sqrt(2)"
        )
        assert format_radical(RadicalNumber({2: -1, 3: Fraction(1, 2)})) == (
            "-sqrt(2) + 1/2*sqrt(3)"
        )
        assert format_radical(RadicalNumber(Fraction(-16, 5))) == "-16/5"

    def test_parse_examples(self):
        assert parse_radical("1 + 4/3*sqrt(2)") == RadicalNumber(
            {1: 1, 2: Fraction(4, 3)}
        )
        assert parse_radical("0") == RadicalNumber(0)
        assert parse_radical("sqrt(3)") == RadicalNumber({3: 1})
        assert parse_radical("- sqrt(2) + 5") == RadicalNumber({2: -1, 1: 5})

    def test_parse_rejects_junk(self):
        for bad in ("", "sqrt()", "1 ++ 2", "sqrt(2) * 3", "two"):
            with pytest.raises(ValueError):
                parse_radical(bad)

    @given(radical_numbers())
    @settings(max_examples=200)
    def test_roundtrip_bit_exact(self, a):
        text = format_radical(a)
        assert parse_radical(text) == a
        assert format_radical(parse_radical(text)) == text
