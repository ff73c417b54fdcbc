"""Exact arithmetic on dyadic rationals."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dnrlab.dyadic import ONE, WIDTH_LIMIT, ZERO, DyadicRational, dyadic_sum
from dnrlab.errors import CombinatorialBlowup


dyadics = st.builds(
    DyadicRational,
    st.integers(min_value=-(10**12), max_value=10**12),
    st.integers(min_value=0, max_value=64),
)
# small parts make equal values and ties of magnitude common; large ones
# put the exponents far apart
comparable = st.builds(
    DyadicRational,
    st.integers(-16, 16) | st.integers(-(2**80), 2**80),
    st.integers(0, 6) | st.integers(0, 200),
)


class TestNormalization:
    def test_even_numerator_reduces(self):
        assert DyadicRational(4, 3) == DyadicRational(1, 1)

    def test_zero_collapses_exponent(self):
        assert DyadicRational(0, 17) == ZERO
        assert DyadicRational(0, 17).exponent == 0

    def test_odd_numerator_untouched(self):
        d = DyadicRational(3, 5)
        assert (d.numerator, d.exponent) == (3, 5)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            DyadicRational(1, -1)

    def test_half_power(self):
        assert DyadicRational.half_power(3) == DyadicRational(1, 3)
        assert DyadicRational.half_power(0) == ONE
        with pytest.raises(ValueError):
            DyadicRational.half_power(-2)


class TestArithmetic:
    def test_quarter_plus_quarter(self):
        q = DyadicRational(1, 2)
        assert q + q == DyadicRational(1, 1)

    def test_sum_can_go_negative(self):
        d = DyadicRational(1, 2) + DyadicRational(-3, 2)
        assert d.is_negative
        assert d == DyadicRational(-1, 1)

    def test_wide_sum_refused_before_shifting(self):
        # aligning 1 with 2^-(10^9) would build a 10^9-bit numerator
        far = DyadicRational.half_power(10**9)
        assert ZERO + far == far  # a zero term aligns nothing
        tracemalloc.start()
        try:
            with pytest.raises(CombinatorialBlowup, match="bit"):
                ONE + far
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        edge = ONE + DyadicRational.half_power(WIDTH_LIMIT - 1)
        assert edge.numerator.bit_length() == WIDTH_LIMIT
        with pytest.raises(CombinatorialBlowup):
            DyadicRational.half_power(WIDTH_LIMIT) + DyadicRational(-1)

    def test_sum_helper(self):
        assert dyadic_sum(DyadicRational(1, k) for k in range(1, 5)) == DyadicRational(15, 4)

    def test_order(self):
        assert DyadicRational(1, 2) < DyadicRational(1, 1)
        assert DyadicRational(-1, 1) < ZERO
        assert DyadicRational(3, 2) <= DyadicRational(3, 2)

    @given(dyadics, dyadics, dyadics)
    def test_ring_identities(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a + ZERO == a
        assert a + DyadicRational(-a.numerator, a.exponent) == ZERO

    @given(comparable, comparable)
    def test_order_matches_fractions(self, a, b):
        fa = Fraction(a.numerator, 2**a.exponent)
        fb = Fraction(b.numerator, 2**b.exponent)
        assert (a < b) == (fa < fb)
        assert (a <= b) == (fa <= fb)
        assert (a == b) == (fa == fb)

    def test_order_does_not_shift_across_the_exponent_gap(self):
        # aligning 1/2 with 2^-(10^9) would build a 10^9-bit numerator
        far = DyadicRational.half_power(10**9)
        tracemalloc.start()
        try:
            assert not DyadicRational(1, 1) <= far
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @given(dyadics, dyadics)
    def test_order_respects_addition(self, a, b):
        assert (a <= b) == (a + DyadicRational(-b.numerator, b.exponent) <= ZERO)

    @given(dyadics)
    def test_json_roundtrip(self, a):
        assert DyadicRational.from_jsonable(a.to_jsonable()) == a

    def test_json_is_decimal_strings(self):
        blob = DyadicRational(-5, 4).to_jsonable()
        assert blob == {"num": "-5", "exp": "4"}
