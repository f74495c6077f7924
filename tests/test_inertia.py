from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from logdisc.inertia import (ChiReport, DegeneratePointError, InertiaTriple,
                             SymMatrixQ, critical_count,
                             euler_characteristics, inertia)


def diag(*vals):
    n = len(vals)
    return SymMatrixQ(tuple(tuple(Fraction(vals[i]) if i == j else Fraction(0)
                                  for j in range(n)) for i in range(n)))


def test_diagonal_inertia():
    assert inertia(diag(2, -3, 0)) == InertiaTriple(1, 1, 1)
    assert inertia(diag(1, 1, 1)) == InertiaTriple(3, 0, 0)
    assert inertia(diag(0, 0)) == InertiaTriple(0, 0, 2)
    assert inertia(diag(Fraction(-1, 7))) == InertiaTriple(0, 1, 0)


def test_char_poly_exchange_matrix():
    m = SymMatrixQ(((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))))
    assert inertia(m) == InertiaTriple(1, 1, 0)


def test_asymmetric_rejected():
    with pytest.raises(ValueError):
        SymMatrixQ(((Fraction(0), Fraction(1)), (Fraction(2), Fraction(0))))
    with pytest.raises(ValueError):
        SymMatrixQ(((Fraction(0), Fraction(1)),))


@st.composite
def sym_matrices(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    vals = {}
    for i in range(n):
        for j in range(i + 1):
            vals[(i, j)] = Fraction(draw(st.integers(-5, 5)),
                                    draw(st.integers(1, 3)))
    return SymMatrixQ(tuple(tuple(vals[(max(i, j), min(i, j))]
                                  for j in range(n)) for i in range(n)))


def neg(m):
    return SymMatrixQ(tuple(tuple(-e for e in row) for row in m.entries))


def scale(m, c):
    c = Fraction(c)
    return SymMatrixQ(tuple(tuple(c * e for e in row) for row in m.entries))


def congruent(m, a):
    n = m.size
    rows = [[sum(a[k][i] * m.entries[k][l] * a[l][j]
                 for k in range(n) for l in range(n))
             for j in range(n)] for i in range(n)]
    return SymMatrixQ(tuple(tuple(r) for r in rows))


@st.composite
def unit_triangular(draw, n):
    return [[Fraction(1) if i == j
             else Fraction(draw(st.integers(-2, 2))) if j < i
             else Fraction(0) for j in range(n)] for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_inertia_is_congruence_invariant(data):
    m = data.draw(sym_matrices())
    a = data.draw(unit_triangular(m.size))
    assert inertia(congruent(m, a)) == inertia(m)


HYPERBOLIC = ((0, 1), (1, 0))  # inertia (1, 1, 0), zero diagonal


def block_diagonal(blocks):
    n = sum(len(b) for b in blocks)
    d = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            d[at + i][at:at + len(b)] = map(Fraction, row)
        at += len(b)
    return SymMatrixQ(tuple(map(tuple, d)))


def unimodular(n, ops):
    """The identity after the integer row operations row_i += c * row_j
    (i != j), indices taken mod n: an integer matrix of determinant 1."""
    a = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i, j, c in ops:
        i, j = i % n, j % n
        if i != j:
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    return a


blocks = st.lists(st.one_of(st.integers(-3, 3).map(lambda v: ((v,),)),
                            st.just(HYPERBOLIC)),
                  min_size=1, max_size=6).filter(
    lambda bs: sum(len(b) for b in bs) <= 6)


@settings(max_examples=150, deadline=None)
@given(blocks, st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                                  st.integers(-2, 2)), max_size=12))
@example([HYPERBOLIC], [])
@example([((2,),), HYPERBOLIC, ((0,),)], [])
@example([((0,),), HYPERBOLIC, ((-1,),), HYPERBOLIC], [(1, 0, 1), (4, 2, -1)])
def test_inertia_of_hidden_block_diagonal(bs, ops):
    # A^T D A with A unimodular has the inertia of D, read off its blocks
    d = block_diagonal(bs)
    h = bs.count(HYPERBOLIC)
    singles = [b[0][0] for b in bs if b != HYPERBOLIC]
    expected = InertiaTriple(h + sum(v > 0 for v in singles),
                             h + sum(v < 0 for v in singles),
                             sum(v == 0 for v in singles))
    assert inertia(congruent(d, unimodular(d.size, ops))) == expected


@settings(max_examples=60, deadline=None)
@given(sym_matrices())
def test_negation_swaps_plus_and_minus(m):
    t = inertia(m)
    tn = inertia(neg(m))
    assert (tn.n_plus, tn.n_minus, tn.n_zero) == \
        (t.n_minus, t.n_plus, t.n_zero)


@settings(max_examples=40, deadline=None)
@given(sym_matrices(), st.integers(1, 5))
def test_positive_scaling_preserves_inertia(m, c):
    assert inertia(scale(m, Fraction(c, 3))) == inertia(m)


@settings(max_examples=40, deadline=None)
@given(sym_matrices(max_n=3), sym_matrices(max_n=3))
def test_block_sum_adds_inertia(m1, m2):
    n1, n2 = m1.size, m2.size
    z = Fraction(0)
    rows = []
    for i in range(n1):
        rows.append(tuple(m1.entries[i]) + (z,) * n2)
    for i in range(n2):
        rows.append((z,) * n1 + tuple(m2.entries[i]))
    t = inertia(SymMatrixQ(tuple(rows)))
    t1, t2 = inertia(m1), inertia(m2)
    assert t == InertiaTriple(t1.n_plus + t2.n_plus,
                              t1.n_minus + t2.n_minus,
                              t1.n_zero + t2.n_zero)


def test_critical_count_signature():
    assert critical_count(inertia(diag(3, -2, 5))) == 1
    assert critical_count(inertia(diag(-1, -2))) == -2


def test_critical_count_degenerate_raises(ex1):
    point = {"d": Fraction(0), "c": Fraction(0), "b": Fraction(0),
             "u": Fraction(1)}
    sigma_t = ex1.logm.sigma * ex1.tf.T
    m = SymMatrixQ.from_poly_matrix(sigma_t, point)
    with pytest.raises(DegeneratePointError):
        critical_count(inertia(m))


def test_euler_characteristics_one_variable_well(a1):
    # F = x^2 + u with u = -1: the region F >= 0 in a ball is two segments
    bh = SymMatrixQ.from_poly_matrix(a1.tf.BH, {"u": Fraction(-1)})
    bhf = SymMatrixQ.from_poly_matrix(a1.tf.BHF, {"u": Fraction(-1)})
    rep = euler_characteristics(bh, bhf, 1)
    assert (rep.chi_ge, rep.chi_le, rep.chi_eq) == (2, 1, 2)
    # u = +1: F > 0 everywhere
    bh = SymMatrixQ.from_poly_matrix(a1.tf.BH, {"u": Fraction(1)})
    bhf = SymMatrixQ.from_poly_matrix(a1.tf.BHF, {"u": Fraction(1)})
    rep = euler_characteristics(bh, bhf, 1)
    assert (rep.chi_ge, rep.chi_le, rep.chi_eq) == (1, 0, 0)


def test_euler_characteristics_additive_closure(a1):
    for u in (Fraction(-1), Fraction(1), Fraction(-7, 3)):
        bh = SymMatrixQ.from_poly_matrix(a1.tf.BH, {"u": u})
        bhf = SymMatrixQ.from_poly_matrix(a1.tf.BHF, {"u": u})
        rep = euler_characteristics(bh, bhf, 1)
        # an identity, not evidence: euler_characteristics derives all
        # three values so that the additivity closure holds (the grid
        # oracle counts the three regions separately)
        assert rep.chi_ge + rep.chi_le - rep.chi_eq == 1


def test_euler_characteristics_degenerate_raises(a1):
    bh = SymMatrixQ.from_poly_matrix(a1.tf.BH, {"u": Fraction(0)})
    bhf = SymMatrixQ.from_poly_matrix(a1.tf.BHF, {"u": Fraction(0)})
    with pytest.raises(DegeneratePointError):
        euler_characteristics(bh, bhf, 1)
