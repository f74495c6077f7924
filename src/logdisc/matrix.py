"""Polynomial matrices: determinants and discriminants.

Determinants expand memoised minors over Z[s] and need no division but a
single one by an integer at the end (``det_bareiss``; the name is kept
from the fraction-free Bareiss elimination it replaced, because callers
and the benchmark's tracer look it up). A discriminant is the
determinant of the Hankel matrix of its roots' power sums, which Newton's
identities give from the coefficients (``discriminant``).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add

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

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return (isinstance(other, PolyMatrix) and self.entries == other.entries)

    def scale(self, c):
        return PolyMatrix(self.vt, [[e * c for e in row] for row in self.entries])

    def __mul__(self, other):
        if isinstance(other, PolyMatrix):
            if self.cols != other.rows:
                raise ValueError("dimension mismatch")
            return PolyMatrix(self.vt, mat_mul(self.entries, other.entries))
        return self.scale(other)

    def values(self, assignment):
        """Row lists of rationals at a point assigning every variable the
        entries use."""
        point = self.vt.resolve(assignment)
        return [[e.value_at(point) for e in row] for row in self.entries]

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


def discriminant(p, name):
    """Discriminant in one variable, (-1)^(n(n-1)/2) Res(p, p') / lc(p),
    as a Hankel determinant of power sums.

    With a_i the coefficients of p in the variable, n its degree and
    lc = a_n, the scaled power sums q_k = lc^k p_k of the roots follow
    from Newton's identities with no division: q_0 = n and
    q_k = -sum_{i=1}^{min(k, n)} a_{n-i} lc^(i-1) (k if i = k else q_{k-i}).
    det[p_{i+j}] (0 <= i, j < n) is the product of (r_i - r_j)^2 over the
    pairs of roots, so det[q_{i+j}] = lc^(n(n-1)) times it, and the
    discriminant lc^(2n-2) times it is det[q_{i+j}] / lc^((n-1)(n-2)).
    Degree-1 polynomials have the trivial (unit) discriminant.
    """
    a = _univariate(p, name)
    n = len(a) - 1
    if n <= 0:
        raise ValueError("polynomial is constant in %s" % name)
    lc = a[n]
    c = [a[n - i] * lc ** (i - 1) for i in range(1, n + 1)]
    q = [Polynomial.const(p.vt, n)]
    for k in range(1, 2 * n - 1):
        q.append(-sum(c[i - 1] * (k if i == k else q[k - i])
                      for i in range(1, min(k, n) + 1)))
    hankel = PolyMatrix(p.vt, [q[i:i + n] for i in range(n)])
    return exact_divide(det_bareiss(hankel), lc ** ((n - 1) * (n - 2)))
