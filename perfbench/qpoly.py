"""A small exact polynomial and matrix toolkit for the benchmark's checks.

It shares no code with ``logdisc``: the checks use it to read the CLI's
canonical polynomial strings and to evaluate, substitute, differentiate and
take determinants and signatures over ``Fraction``.

A polynomial is a dict ``{exponent tuple: Fraction}`` over a tuple of
variable names fixed by the caller.
"""

from __future__ import annotations

import re
from fractions import Fraction

_NUM = re.compile(r"^\d+(/\d+)?$")


class QPoly:
    """Sparse polynomial with rational coefficients over named variables."""

    __slots__ = ("names", "terms")

    def __init__(self, names, terms=None):
        self.names = tuple(names)
        self.terms = {m: Fraction(c) for m, c in (terms or {}).items() if c}

    @classmethod
    def const(cls, names, c):
        return cls(names, {(0,) * len(names): Fraction(c)})

    @classmethod
    def var(cls, names, name):
        names = tuple(names)
        m = tuple(1 if n == name else 0 for n in names)
        return cls(names, {m: Fraction(1)})

    @classmethod
    def parse(cls, text, names):
        """Read a sum of terms ``c*v^e*...`` as the CLI prints them and as
        the input files write them (no parentheses)."""
        names = tuple(names)
        index = {n: i for i, n in enumerate(names)}
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty polynomial")
        if s[0] not in "+-":
            s = "+" + s
        terms = {}
        for sign, body in re.findall(r"([+-])([^+-]+)", s):
            coeff = Fraction(1)
            expts = [0] * len(names)
            for factor in body.split("*"):
                if _NUM.match(factor):
                    coeff *= Fraction(factor)
                    continue
                name, _, power = factor.partition("^")
                if name not in index:
                    raise ValueError("unknown variable %r in %r" % (name, text))
                expts[index[name]] += int(power) if power else 1
            if sign == "-":
                coeff = -coeff
            m = tuple(expts)
            terms[m] = terms.get(m, 0) + coeff
        return cls(names, terms)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return QPoly(self.names, out)

    __radd__ = __add__

    def __neg__(self):
        return QPoly(self.names, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return QPoly(self.names, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        out = QPoly.const(self.names, 1)
        for _ in range(n):
            out = out * self
        return out

    def _coerce(self, other):
        if isinstance(other, QPoly):
            if other.names != self.names:
                raise ValueError("variable sets differ")
            return other
        return QPoly.const(self.names, other)

    @property
    def is_zero(self):
        return not self.terms

    def diff(self, name):
        i = self.names.index(name)
        out = {}
        for m, c in self.terms.items():
            if m[i]:
                m2 = m[:i] + (m[i] - 1,) + m[i + 1:]
                out[m2] = out.get(m2, 0) + c * m[i]
        return QPoly(self.names, out)

    def degree_in(self, name):
        i = self.names.index(name)
        return max((m[i] for m in self.terms), default=-1)

    def subs(self, values):
        """Substitute rationals for some variables; the others remain."""
        idx = [(i, Fraction(values[n])) for i, n in enumerate(self.names)
               if n in values]
        out = {}
        for m, c in self.terms.items():
            m2 = list(m)
            for i, v in idx:
                c = c * v ** m[i]
                m2[i] = 0
            m2 = tuple(m2)
            out[m2] = out.get(m2, 0) + c
        return QPoly(self.names, out)

    def value(self, values):
        """Rational value with every variable that occurs assigned."""
        p = self.subs(values)
        if any(any(m) for m in p.terms):
            raise ValueError("unassigned variables remain")
        return sum(p.terms.values(), Fraction(0))

    def coeff(self, expts):
        return self.terms.get(tuple(expts), Fraction(0))

    def variables(self):
        return {self.names[i] for m in self.terms for i, e in enumerate(m) if e}


def det(rows):
    """Determinant of a square matrix of rationals by Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    out = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            out = -out
        out *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return out


def matmul(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def signature(rows):
    """Signature of a symmetric rational matrix (n_plus - n_minus) and its
    nullity, from the Faddeev-LeVerrier characteristic polynomial and
    Descartes' rule, exact because every root is real."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    # c[k] is the coefficient of lam^(n-k) in det(lam I - a)
    c = [Fraction(1)]
    m = identity(n)
    for k in range(1, n + 1):
        am = matmul(a, m)
        ck = -sum(am[i][i] for i in range(n)) / k
        c.append(ck)
        m = [[am[i][j] + (ck if i == j else 0) for j in range(n)]
             for i in range(n)]
    ascending = list(reversed(c))
    nullity = next(k for k, v in enumerate(ascending) if v)
    reduced = ascending[nullity:]
    pos = _variations(list(reversed(reduced)))
    neg = _variations(list(reversed([v if k % 2 == 0 else -v
                                      for k, v in enumerate(reduced)])))
    return pos - neg, nullity


def _variations(coeffs):
    signs = [v for v in coeffs if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def univariate(p, name, values):
    """Coefficients (degree ascending) of p in ``name`` after substituting
    ``values`` for every other variable."""
    q = p.subs(values)
    i = p.names.index(name)
    d = max((m[i] for m in q.terms), default=0)
    out = [Fraction(0)] * (d + 1)
    for m, c in q.terms.items():
        out[m[i]] += c
    return out


def resultant(f, g):
    """Resultant of two univariate coefficient lists (degree ascending) as
    the determinant of their Sylvester matrix."""
    f = _trim(f)
    g = _trim(g)
    n, m = len(f) - 1, len(g) - 1
    size = n + m
    rows = []
    for i in range(m):
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(f)):
            row[i + j] = c
        rows.append(row)
    for i in range(n):
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(g)):
            row[i + j] = c
        rows.append(row)
    return det(rows)


def _trim(cs):
    cs = list(cs)
    while len(cs) > 1 and not cs[-1]:
        cs.pop()
    return cs
