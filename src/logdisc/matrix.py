"""Polynomial matrices: determinants, resultants, discriminants.

Determinants expand memoised minors over Z[s] and need no division but a
single one by an integer at the end (``det_bareiss``; the name is kept
from the fraction-free Bareiss elimination it replaced, because callers
and the benchmark's tracer look it up).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add

from .poly import Polynomial, exact_divide, _coeffs_in, _pseudo_rem


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
        """Row lists of rationals at a point assigning every variable the
        entries use."""
        point = self.vt.resolve(assignment)
        return [[e.value_at(point) for e in row] for row in self.entries]

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
    """Exact determinant by expansion in memoised minors over Z[s].

    Row i is first multiplied by the least common multiple L_i of the
    denominators of its coefficients, so every entry lies in Z[s] and the
    determinant is multiplied by L = L_1 * ... * L_n. The rows are then
    taken one at a time, keeping the minor of the rows seen so far on each
    set of columns (a bitmask) as a term dict with Python int
    coefficients. Each minor is extended by the next row's entry in each
    free column j (Laplace along that row), with sign (-1)^(number of the
    minor's columns above j); zero entries and zero minors are skipped.
    The determinant is the minor on all columns, divided by L once at the
    end.

    For the sparse matrices with small entries that this package builds
    (Sigma, P, T, Hessians) this takes n * 2^(n-1) products of an entry by
    a minor and no division, where fraction-free (Bareiss) elimination
    multiplies two large minors and divides exactly (Gentleman and
    Johnson, ACM TOMS 1976). The function keeps its historical name,
    which the benchmark's tracer and the tests look up.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    scale = 1
    minors = {0: {(0,) * m.vt.nvars: 1}}
    for row in m.entries:
        den = lcm(*(c.denominator for e in row for c in e.terms.values()))
        scale *= den
        entries = [(j, [(mono, c.numerator * (den // c.denominator))
                        for mono, c in e.terms.items()])
                   for j, e in enumerate(row) if e.terms]
        grown = {}
        for mask, minor in minors.items():
            for j, entry in entries:
                if mask >> j & 1:
                    continue
                acc = grown.setdefault(mask | 1 << j, {})
                odd = (mask >> j).bit_count() & 1
                for m1, c1 in entry:
                    if odd:
                        c1 = -c1
                    for m2, c2 in minor.items():
                        mono = tuple(map(add, m1, m2))
                        acc[mono] = acc.get(mono, 0) + c1 * c2
        minors = {}
        for mask, acc in grown.items():
            acc = {mono: c for mono, c in acc.items() if c}
            if acc:
                minors[mask] = acc
    det = minors.get((1 << m.rows) - 1, {})
    return Polynomial._raw(m.vt, {mono: Fraction(c, scale)
                                  for mono, c in det.items()})


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
