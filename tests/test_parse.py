from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import total_degree
from logdisc.parse import PolyParseError, parse_poly
from logdisc.poly import Polynomial, VarTable

VT = VarTable(("x1", "x2"), ("u", "b", "c", "d"))


def test_deformation_input():
    q = parse_poly("x1^3 + x2^3 + u + b*x1*x2 + c*x1 + d*x2", VT)
    assert total_degree(q) == 3
    assert len(q.terms) == 6


def test_zero():
    assert parse_poly("0", VT).is_zero
    assert parse_poly("0", VT).terms == {}


def test_exact_decimal():
    assert parse_poly("-0.4", VT).constant_value() == Fraction(-2, 5)
    assert parse_poly("0.1", VT).constant_value() == Fraction(1, 10)
    assert parse_poly("2.25", VT).constant_value() == Fraction(9, 4)


def test_rational_literal():
    assert parse_poly("3/4", VT).constant_value() == Fraction(3, 4)
    assert parse_poly("-1/3*b", VT) == parse_poly("b", VT) * Fraction(-1, 3)


def test_parentheses_and_signs():
    assert parse_poly("-(x1 - x2)^2", VT) == \
        parse_poly("-x1^2 + 2*x1*x2 - x2^2", VT)
    assert parse_poly("+x1 - -x2", VT) == parse_poly("x1 + x2", VT)


def test_sign_binds_looser_than_power():
    # a sign after * or after another sign signs the whole power
    assert parse_poly("2*-x1^2", VT) == parse_poly("-2*x1^2", VT)
    assert parse_poly("3*-2^2", VT).constant_value() == -12
    assert parse_poly("- -x1^2", VT) == parse_poly("x1^2", VT)
    assert parse_poly("x1 - -x1^2", VT) == parse_poly("x1 + x1^2", VT)


def test_unknown_variable():
    with pytest.raises(PolyParseError) as exc:
        parse_poly("x1 + zz", VT)
    assert "zz" in str(exc.value)
    assert exc.value.pos == 5


def test_syntax_error_position():
    with pytest.raises(PolyParseError):
        parse_poly("x1 + * x2", VT)
    with pytest.raises(PolyParseError):
        parse_poly("x1 + (x2", VT)
    with pytest.raises(PolyParseError):
        parse_poly("x1 ^ -2", VT)
    with pytest.raises(PolyParseError):
        parse_poly("x1 $ x2", VT)


def test_zero_denominator():
    with pytest.raises(PolyParseError) as exc:
        parse_poly("x1^3 + 1/0*x1", VT)
    assert "division by zero" in str(exc.value)
    assert exc.value.pos == 9


coeffs = st.integers(-6, 6)


@st.composite
def polys(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        m = tuple(draw(st.integers(0, 3)) for _ in range(6))
        c = draw(coeffs)
        if c:
            terms[m] = terms.get(m, 0) + Fraction(c, draw(st.integers(1, 4)))
    return Polynomial(VT, {m: c for m, c in terms.items() if c})


@settings(max_examples=80, deadline=None)
@given(polys())
def test_print_parse_roundtrip(q):
    assert parse_poly(str(q), VT) == q
