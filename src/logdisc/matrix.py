"""Polynomial matrices: fraction-free determinants, resultants, discriminants."""

from __future__ import annotations

from fractions import Fraction

from .poly import Polynomial, exact_divide, _coeffs_in


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


def det_bareiss(m):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return Polynomial.const(m.vt, 1)
    a = [row[:] for row in m.entries]
    sign = 1
    prev = Polynomial.const(m.vt, 1)
    for k in range(n - 1):
        if a[k][k].is_zero:
            for i in range(k + 1, n):
                if not a[i][k].is_zero:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return Polynomial.zero(m.vt)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                q = exact_divide(num, prev)
                assert q is not None, "Bareiss division must be exact"
                a[i][j] = q
            a[i][k] = Polynomial.zero(m.vt)
        prev = a[k][k]
    return a[n - 1][n - 1] * sign


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
        r = _prem_named(a, b, i)
        if r.is_zero:
            return Polynomial.zero(vt)
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


def _prem_named(a, b, i):
    """Pseudo-remainder prem(a, b) in variable index i with the exact
    lc(b)^(deg a - deg b + 1) scaling."""
    ca = _coeffs_in(a, i)
    cb = _coeffs_in(b, i)
    da, db = max(ca), max(cb)
    lc_b = cb[db]
    vt = a.vt
    var_mono = tuple(1 if j == i else 0 for j in range(vt.nvars))
    xv = Polynomial(vt, {var_mono: Fraction(1)})
    r = a
    e = da - db + 1
    while True:
        cr = _coeffs_in(r, i)
        dr = max(cr) if cr else -1
        if dr < db:
            break
        r = lc_b * r - cr[dr] * xv ** (dr - db) * b
        e -= 1
    if e > 0:
        r = r * lc_b ** e
    return r


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
