from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from logdisc.matrix import (PolyMatrix, _zdivide, det_bareiss, discriminant,
                            resultant, sylvester_matrix)
from logdisc.parse import parse_poly
from logdisc.poly import Polynomial, VarTable, exact_divide, poly_gcd

VT = VarTable(("x",), ("u", "a", "b"))


def p(text):
    return parse_poly(text, VT)


def det_cofactor(m):
    n = m.rows
    if n == 1:
        return m[0, 0]
    acc = Polynomial.zero(m.vt)
    rest = list(range(1, n))
    for j in range(n):
        cols = [k for k in range(n) if k != j]
        minor = det_cofactor(m.submatrix(rest, cols))
        term = m[0, j] * minor
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


@st.composite
def small_entry(draw, den):
    terms = {}
    for _ in range(draw(st.integers(0, 2))):
        m = tuple(draw(st.integers(0, 2)) for _ in range(4))
        c = Fraction(draw(st.integers(-3, 3)), den * draw(st.integers(1, 3)))
        if c:
            terms[m] = terms.get(m, 0) + c
    return Polynomial(VT, {m: c for m, c in terms.items() if c})


@st.composite
def small_matrices(draw):
    """Square matrices up to 5 x 5 with rational coefficients whose
    denominators differ from row to row. ``pivot`` forces a zero pivot,
    and so a row swap in Bareiss elimination, at the first step ("first":
    the top-left entry is zero) or at the second ("second": the top-left
    2 x 2 block is singular, because row 1 starts with a multiple of row
    0)."""
    n = draw(st.integers(1, 5))
    ent = []
    for _ in range(n):
        den = draw(st.sampled_from([1, 2, 3, 5, 7, 12]))
        ent.append([draw(small_entry(den)) for _ in range(n)])
    pivot = draw(st.sampled_from(["none", "first", "second"]))
    if pivot == "first":
        ent[0][0] = Polynomial.zero(VT)
    elif pivot == "second" and n >= 3:
        factor = draw(small_entry(draw(st.sampled_from([1, 4]))))
        ent[1][0] = ent[0][0] * factor
        ent[1][1] = ent[0][1] * factor
    return PolyMatrix(VT, ent)


@settings(max_examples=40, deadline=None)
@given(small_matrices())
@example(PolyMatrix(VT, [[p("0"), p("1/2*u"), p("1")],
                         [p("1/3"), p("a"), p("b")],
                         [p("u"), p("1/5"), p("0")]]))
@example(PolyMatrix(VT, [[p("1/2"), p("u"), p("1")],
                         [p("1/4*a"), p("1/2*a*u"), p("b")],
                         [p("1/7"), p("a"), p("1/3*u")]]))
def test_bareiss_matches_cofactor(m):
    assert det_bareiss(m) == det_cofactor(m)


def test_integer_bareiss_division_must_be_exact():
    one = (0, 0, 0, 0)
    u = (0, 1, 0, 0)
    a = (0, 0, 1, 0)
    assert _zdivide({u: 6, a: -4}, {one: 2}) == {u: 3, a: -2}
    with pytest.raises(AssertionError, match="Bareiss division must be exact"):
        _zdivide({u: 3}, {one: 2})          # nonzero integer remainder
    with pytest.raises(AssertionError, match="Bareiss division must be exact"):
        _zdivide({u: 2}, {a: 1})            # a not divisible monomial


def test_det_identity():
    assert det_bareiss(PolyMatrix.identity(VT, 3)) == p("1")


def test_det_singular():
    m = PolyMatrix(VT, [[p("x"), p("x")], [p("x"), p("x")]])
    assert det_bareiss(m).is_zero


def test_det_non_square_rejected():
    m = PolyMatrix(VT, [[p("1"), p("0")]])
    with pytest.raises(ValueError):
        det_bareiss(m)


def test_resultant_equals_sylvester_det():
    a = p("x^3 + a*x + u")
    b = p("3*x^2 + a")
    syl = det_bareiss(sylvester_matrix(a, b, "x"))
    assert resultant(a, b, "x") == syl
    assert syl == p("4*a^3 + 27*u^2")


def test_resultant_linear():
    r = resultant(p("u - a"), p("u - b"), "u")
    assert r == p("b - a") or r == p("a - b")


def test_resultant_vanishes_iff_common_factor():
    shared = p("x + a")
    a = shared * p("x + 1")
    b = shared * p("x - u")
    assert resultant(a, b, "x").is_zero
    c = p("x + 1")
    d = p("x + 2")
    assert not resultant(c, d, "x").is_zero


@settings(max_examples=30, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
       st.integers(-3, 3))
def test_resultant_matches_sylvester_random(c0, c1, d0, d1):
    a = p("x^2") + p("x") * c1 + Polynomial.const(VT, c0)
    b = p("x^3") + p("x") * d1 + Polynomial.const(VT, d0)
    assert resultant(a, b, "x") == det_bareiss(sylvester_matrix(a, b, "x"))


def test_discriminant_quadratic():
    assert discriminant(p("u^2 + b"), "u") == p("-4*b")


def test_discriminant_degree_one_is_unit():
    assert discriminant(p("2*u + b"), "u") == p("1")


def test_discriminant_constant_rejected():
    with pytest.raises(ValueError):
        discriminant(p("a"), "u")


def test_discriminant_detects_repeated_roots():
    assert discriminant(p("(u - a)^2"), "u").is_zero
    assert discriminant(p("u^2 - a^2"), "u") == p("4*a^2")
