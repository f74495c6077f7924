"""Polynomial matrices: fraction-free determinants, resultants, discriminants."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add

from .poly import (Polynomial, exact_divide, _coeffs_in, _divide_terms,
                   _pseudo_rem)


def mat_mul(a, b):
    """Product of two matrices given as row lists; the entries may be
    polynomials or rationals."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def mat_vec(a, v):
    """Matrix (row lists) times a column vector, entries as in mat_mul."""
    return [sum(x * y for x, y in zip(row, v)) for row in a]


class PolyMatrix:
    """Rectangular matrix of polynomials sharing one VarTable."""

    def __init__(self, vt, entries):
        self.vt = vt
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")
            for e in row:
                if e.vt != vt:
                    raise ValueError("entry from a different variable table")

    @classmethod
    def identity(cls, vt, n):
        one = Polynomial.const(vt, 1)
        zero = Polynomial.zero(vt)
        return cls(vt, [[one if i == j else zero for j in range(n)]
                        for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return (isinstance(other, PolyMatrix) and self.entries == other.entries)

    def transpose(self):
        return PolyMatrix(self.vt, [[self.entries[i][j] for i in range(self.rows)]
                                    for j in range(self.cols)])

    def __add__(self, other):
        return PolyMatrix(self.vt, [[a + b for a, b in zip(r1, r2)]
                                    for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return PolyMatrix(self.vt, [[a - b for a, b in zip(r1, r2)]
                                    for r1, r2 in zip(self.entries, other.entries)])

    def scale(self, c):
        return PolyMatrix(self.vt, [[e * c for e in row] for row in self.entries])

    def __mul__(self, other):
        if isinstance(other, PolyMatrix):
            if self.cols != other.rows:
                raise ValueError("dimension mismatch")
            return PolyMatrix(self.vt, mat_mul(self.entries, other.entries))
        return self.scale(other)

    def evaluate(self, assignment):
        return PolyMatrix(self.vt, [[e.evaluate(assignment) for e in row]
                                    for row in self.entries])

    def values(self, assignment):
        """Row lists of rationals at a point assigning every parameter."""
        return [[e.evaluate(assignment).constant_value() for e in row]
                for row in self.entries]

    def is_symmetric(self):
        if self.rows != self.cols:
            return False
        return all(self.entries[i][j] == self.entries[j][i]
                   for i in range(self.rows) for j in range(i))

    def submatrix(self, rows, cols):
        return PolyMatrix(self.vt, [[self.entries[i][j] for j in cols]
                                    for i in rows])

    def __str__(self):
        return "\n".join("[" + ", ".join(str(e) for e in row) + "]"
                         for row in self.entries)


def _zmul_sub(a, b, c, d):
    """a*b - c*d for term dicts with int coefficients."""
    out = {}
    for f, g, sign in ((a, b, 1), (c, d, -1)):
        for m1, c1 in f.items():
            c1 *= sign
            for m2, c2 in g.items():
                m = tuple(map(add, m1, m2))
                v = out.get(m, 0) + c1 * c2
                if v:
                    out[m] = v
                else:
                    del out[m]
    return out


def _int_quotient(c, lc):
    q, rem = divmod(c, lc)
    return None if rem else q


def _zdivide(a, b):
    """a / b in Z[s] for term dicts with int coefficients; the division
    must be exact, both in its monomials and in its integer quotients."""
    q = _divide_terms(a, b, _int_quotient)
    assert q is not None, "Bareiss division must be exact"
    return q


def det_bareiss(m):
    """Exact determinant by fraction-free (Bareiss) elimination over Z[s].

    Row i is first multiplied by the least common multiple L_i of the
    denominators of its coefficients, so every entry lies in Z[s] and the
    determinant is multiplied by L = L_1 * ... * L_n. Elimination then runs
    on term dicts with Python int coefficients, where every Bareiss
    division is exact in Z[s], and the result is divided by L once at the
    end.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return Polynomial.const(m.vt, 1)
    scale = 1
    a = []
    for row in m.entries:
        den = lcm(*(c.denominator for e in row for c in e.terms.values()))
        scale *= den
        a.append([{mono: c.numerator * (den // c.denominator)
                   for mono, c in e.terms.items()} for e in row])
    sign = 1
    prev = None
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return Polynomial.zero(m.vt)
        akk, ak = a[k][k], a[k]
        for i in range(k + 1, n):
            ai = a[i]
            for j in range(k + 1, n):
                num = _zmul_sub(akk, ai[j], ai[k], ak[j])
                ai[j] = num if prev is None else _zdivide(num, prev)
        prev = akk
    return Polynomial._raw(m.vt, {mono: Fraction(sign * c, scale)
                                  for mono, c in a[n - 1][n - 1].items()})


def _univariate(p, name):
    """Coefficient list in the named variable, degree ascending."""
    i = p.vt.index(name)
    cf = _coeffs_in(p, i)
    if not cf:
        return []
    deg = max(cf)
    zero = Polynomial.zero(p.vt)
    return [cf.get(e, zero) for e in range(deg + 1)]


def sylvester_matrix(p, q, name):
    """Sylvester matrix of p, q with respect to one variable."""
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


def resultant(p, q, name):
    """Resultant with respect to one variable, by subresultant PRS."""
    if p.is_zero or q.is_zero:
        return Polynomial.zero(p.vt)
    cp = _univariate(p, name)
    cq = _univariate(q, name)
    dp, dq = len(cp) - 1, len(cq) - 1
    if dp == 0 and dq == 0:
        raise ValueError("both polynomials constant in %s" % name)
    if dp == 0:
        return cp[0] ** dq
    if dq == 0:
        return cq[0] ** dp
    vt = p.vt
    i = vt.index(name)
    sign = 1
    if dp < dq:
        p, q, cp, cq, dp, dq = q, p, cq, cp, dq, dp
        if dp % 2 and dq % 2:
            sign = -sign
    one = Polynomial.const(vt, 1)
    g, h = one, one
    a, b = p, q
    da, db = dp, dq
    while True:
        d = da - db
        if da % 2 and db % 2:
            sign = -sign
        r, e = _pseudo_rem(a, b, i)
        if r.is_zero:
            return Polynomial.zero(vt)
        if e:
            r = r * _coeffs_in(b, i)[db] ** e
        dr = max(_coeffs_in(r, i)) if i in r.variables_used() else 0
        divisor = g * h ** d
        a, da = b, db
        b = exact_divide(r, divisor)
        assert b is not None
        db = dr
        g = _coeffs_in(a, i)[da]
        hd = exact_divide(g ** d, h ** (d - 1)) if d > 1 else (g if d == 1 else h)
        if d > 1:
            assert hd is not None
        h = hd
        if db == 0:
            lb = b if i not in b.variables_used() else _coeffs_in(b, i)[0]
            res = exact_divide(lb ** da, h ** (da - 1)) if da > 1 else lb
            assert res is not None
            return res * sign


def discriminant(p, name):
    """Discriminant in one variable: (-1)^(n(n-1)/2) Res(p, p') / lc(p).

    Degree-1 polynomials have the trivial (unit) discriminant.
    """
    d = p.degree_in(name)
    if d <= 0:
        raise ValueError("polynomial is constant in %s" % name)
    if d == 1:
        return Polynomial.const(p.vt, 1)
    res = resultant(p, p.diff(name), name)
    lc = _univariate(p, name)[-1]
    quo = exact_divide(res, lc)
    assert quo is not None, "resultant is always divisible by the leading coefficient"
    if (d * (d - 1) // 2) % 2:
        quo = -quo
    return quo
