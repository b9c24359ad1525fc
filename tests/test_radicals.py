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

from gaindex.radicals import (
    RadicalNumber,
    compare,
    format_radical,
    parse_radical,
    radical_sqrt,
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
