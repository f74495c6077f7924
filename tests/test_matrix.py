from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from logdisc.matrix import (PolyMatrix, _univariate, det_bareiss,
                            discriminant, resultant)
from logdisc.parse import parse_poly
from logdisc.poly import Polynomial, VarTable, exact_divide, poly_gcd

VT = VarTable(("x",), ("u", "a", "b"))


def p(text):
    return parse_poly(text, VT)


def submatrix(m, rows, cols):
    return PolyMatrix(m.vt, [[m.entries[i][j] for j in cols] for i in rows])


def det_cofactor(m):
    n = m.rows
    if n == 1:
        return m[0, 0]
    acc = Polynomial.zero(m.vt)
    rest = list(range(1, n))
    for j in range(n):
        cols = [k for k in range(n) if k != j]
        minor = det_cofactor(submatrix(m, rest, cols))
        term = m[0, j] * minor
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def sign(perm):
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
    return (-1) ** inversions


def det_leibniz(m):
    """Sum over permutations of signed products of entries."""
    acc = Polynomial.zero(m.vt)
    for perm in permutations(range(m.rows)):
        term = Polynomial.const(m.vt, sign(perm))
        for i, j in enumerate(perm):
            if m[i, j].is_zero:
                break
            term = term * m[i, j]
        else:
            acc = acc + term
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
    denominators differ from row to row. ``pivot`` makes a leading minor
    vanish, the case where elimination would have to swap rows: the 1 x 1
    one ("first": the top-left entry is zero) or the 2 x 2 one ("second":
    row 1 starts with a multiple of row 0)."""
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


@st.composite
def sparse_matrices(draw):
    """Square matrices up to 6 x 6 whose entries are zero half the time,
    with a different denominator in each row, and possibly one row or one
    column forced to zero."""
    n = draw(st.integers(1, 6))
    ent = []
    for _ in range(n):
        den = draw(st.sampled_from([1, 2, 3, 5, 7, 12]))
        ent.append([draw(small_entry(den)) if draw(st.booleans())
                    else Polynomial.zero(VT) for _ in range(n)])
    zero = draw(st.sampled_from(["none", "row", "column"]))
    k = draw(st.integers(0, n - 1))
    for i in range(n):
        if zero == "row":
            ent[k][i] = Polynomial.zero(VT)
        elif zero == "column":
            ent[i][k] = Polynomial.zero(VT)
    return PolyMatrix(VT, ent)


@settings(max_examples=60, deadline=None)
@given(sparse_matrices())
def test_det_matches_leibniz(m):
    assert det_bareiss(m) == det_leibniz(m)


def test_det_divides_out_the_row_scale_exactly():
    # rows scaled by 6 and by 35, the lcm of their entries' denominators
    m = PolyMatrix(VT, [[p("1/2*u"), p("1/3*a")],
                        [p("1/5"), p("1/7*b")]])
    assert det_bareiss(m) == p("1/14*u*b - 1/15*a")
    # the scale does not divide the determinant over Z: a true fraction
    assert det_bareiss(PolyMatrix(VT, [[p("3/2*u")]])).terms == {
        (0, 1, 0, 0): Fraction(3, 2)}


@pytest.mark.parametrize("n", range(5))
def test_det_of_permutation_matrices_is_their_sign(n):
    one, zero = p("1"), p("0")
    for perm in permutations(range(n)):
        m = PolyMatrix(VT, [[one if j == perm[i] else zero for j in range(n)]
                            for i in range(n)])
        assert det_bareiss(m) == Polynomial.const(VT, sign(perm))


def test_det_singular():
    m = PolyMatrix(VT, [[p("x"), p("x")], [p("x"), p("x")]])
    assert det_bareiss(m).is_zero


def test_det_non_square_rejected():
    for rows in ([[p("1"), p("0")]], [[p("1")], [p("u")], [p("a")]]):
        with pytest.raises(ValueError):
            det_bareiss(PolyMatrix(VT, rows))


def sylvester_matrix(p, q, name):
    """Sylvester matrix of p, q with respect to one variable: the reference
    of the subresultant resultant."""
    cp = _univariate(p, name)
    cq = _univariate(q, name)
    n, m = len(cp) - 1, len(cq) - 1
    if n < 1 and m < 1:
        raise ValueError("both polynomials constant in %s" % name)
    size = n + m
    zero = Polynomial.zero(p.vt)
    rows = []
    for i in range(m):
        row = [zero] * size
        for j, c in enumerate(reversed(cp)):
            row[i + j] = c
        rows.append(row)
    for i in range(n):
        row = [zero] * size
        for j, c in enumerate(reversed(cq)):
            row[i + j] = c
        rows.append(row)
    return PolyMatrix(p.vt, rows)


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


@st.composite
def x_polys(draw):
    """Polynomials of degree at most 4 in x whose coefficients are small
    polynomials in a and b, often zero: degree gaps and leading
    coefficients that are not units give abnormal remainder sequences."""
    terms = {}
    for e in range(draw(st.integers(1, 4)) + 1):
        for _ in range(draw(st.integers(0, 2))):
            m = (e, 0, draw(st.integers(0, 1)), draw(st.integers(0, 1)))
            terms[m] = terms.get(m, 0) + draw(st.integers(-3, 3))
    return Polynomial(VT, terms)


@settings(max_examples=60, deadline=None)
@given(x_polys(), x_polys())
@example(p("x^4 + a*x + 1"), p("a*x^2 + b*x + 1"))
def test_resultant_matches_sylvester_parametric(a, b):
    if a.degree_in("x") < 1 or b.degree_in("x") < 1:
        return
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
