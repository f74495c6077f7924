from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import sylvester_matrix
from logdisc.matrix import PolyMatrix, _univariate, det_bareiss, discriminant
from logdisc.parse import parse_poly
from logdisc.poly import Polynomial, VarTable, exact_divide

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


def sylvester_discriminant(p, name):
    """(-1)^(n(n-1)/2) Res(p, p') / lc(p) with the resultant taken as the
    determinant of the Sylvester matrix: the reference of the Hankel
    route."""
    n = p.degree_in(name)
    res = det_bareiss(sylvester_matrix(p, p.diff(name), name))
    quo = exact_divide(res, _univariate(p, name)[-1])
    return -quo if n * (n - 1) // 2 % 2 else quo


@st.composite
def u_polys(draw):
    """Polynomials of degree 1 to 5 in u whose coefficients are small
    polynomials in x, a and b, often zero. The leading coefficient is a
    nonzero integer plus up to two terms in a and b, so it is often not
    a constant and the division by lc^((n-1)(n-2)) is exercised."""
    n = draw(st.integers(1, 5))
    terms = {(0, n, 0, 0): draw(st.sampled_from([-2, -1, 1, 3]))}
    for e in range(n + 1):
        for _ in range(draw(st.integers(0, 2))):
            m = (draw(st.integers(0, 1)) if e < n else 0, e,
                 draw(st.integers(0, 1)), draw(st.integers(0, 1)))
            terms[m] = terms.get(m, 0) + draw(st.integers(-3, 3))
    return Polynomial(VT, terms)


@settings(max_examples=60, deadline=None)
@given(u_polys())
@example(p("a*u^3 + b*u + 1"))
@example(p("(a + b)*u^4 - u^2 + a*u"))
@example(p("a*b*u^5 + x*u^2 - 1"))
@example(p("(a - 1)*u^2 + b*u + x"))
def test_discriminant_matches_sylvester(q):
    if q.degree_in("u") < 1:
        return
    assert discriminant(q, "u") == sylvester_discriminant(q, "u")


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
