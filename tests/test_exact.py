from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from expobs.errors import MalformedRational
from expobs.exact import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    INF,
    GaussianRational,
    format_extended,
    format_rational,
    parse_extended,
    parse_rational,
)
from oracles import abs_sq

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=997
)


def gaussians(draw=None):
    return st.builds(GaussianRational, rationals, rationals)


class TestRationalCodec:
    def test_parse_forms(self):
        assert parse_rational("3/8") == Fraction(3, 8)
        assert parse_rational("-2") == Fraction(-2)
        assert parse_rational(5) == Fraction(5)
        assert parse_rational(Fraction(1, 3)) == Fraction(1, 3)

    def test_rejects_floats_and_garbage(self):
        with pytest.raises(MalformedRational):
            parse_rational("0.5")
        with pytest.raises(MalformedRational):
            parse_rational("1/0")
        with pytest.raises(MalformedRational):
            parse_rational("one half")
        with pytest.raises(MalformedRational):
            parse_rational(0.5)

    @given(rationals)
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q

    def test_format_is_reduced(self):
        assert format_rational(Fraction(4, 8)) == "1/2"
        assert format_rational(Fraction(-3, 1)) == "-3"


class TestInfinity:
    def test_singleton_and_order(self):
        assert INF > Fraction(10**9)
        assert not (INF < Fraction(0))
        assert INF >= INF and INF <= INF
        assert not (INF > INF)

    def test_no_arithmetic(self):
        with pytest.raises(TypeError):
            INF + Fraction(1)

    def test_extended_codec(self):
        assert format_extended(INF) == "inf"
        assert parse_extended("inf") is INF
        assert parse_extended("7/3") == Fraction(7, 3)
        assert format_extended(Fraction(7, 3)) == "7/3"


class TestGaussianRational:
    def test_basic_identities(self):
        assert GR_ONE * GR_I == GR_I
        assert GR_I * GR_I == -GR_ONE
        assert (GR_ONE + GR_I).conjugate() == GaussianRational.of(1, -1)
        assert abs_sq(GR_ONE + GR_I) == Fraction(2)
        assert GR_ZERO.is_zero()

    @given(gaussians(), gaussians())
    def test_conjugate_is_multiplicative(self, a, b):
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()

    @given(gaussians(), gaussians())
    def test_abs_sq_is_multiplicative(self, a, b):
        assert abs_sq(a * b) == abs_sq(a) * abs_sq(b)

    @given(gaussians())
    def test_abs_sq_vanishes_only_at_zero(self, a):
        assert (abs_sq(a) == 0) == a.is_zero()

    def test_parse_pair_forms(self):
        assert GaussianRational.parse_pair(["1/2", "-1"]) == GaussianRational.of(
            Fraction(1, 2), -1
        )
        assert GaussianRational.parse_pair("3/4") == GaussianRational.of(
            Fraction(3, 4)
        )
        with pytest.raises(MalformedRational):
            GaussianRational.parse_pair(["1", "2", "3"])

    def test_pair_round_trip(self):
        v = GaussianRational.of(Fraction(-5, 7), Fraction(2, 9))
        assert GaussianRational.parse_pair(v.to_pair()) == v
