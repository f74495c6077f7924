"""Sparse exact multivariate polynomials over arbitrary-precision rationals.

Variables live in a VarTable split into space variables (x) and deformation
parameters (s).  Coefficients are fractions.Fraction, always reduced.  Terms
are kept in a dict keyed by exponent tuples; printing and leading-term
selection use the global degrevlex order, so equal values have equal
canonical representations.

Invariant of every Polynomial: ``terms`` maps exponent tuples of length
``vt.nvars`` to nonzero Fractions, and no other object holds that dict.
The public constructor ``Polynomial(vt, terms)`` establishes it by
converting and filtering its input. Arithmetic results are built by the
trusted constructor ``Polynomial._raw(vt, terms)``, which takes a freshly
built dict that already satisfies the invariant and skips the check.

``exact_divide`` is a heap division (Monagan and Pearce, "Sparse
polynomial division using a heap", J. Symbolic Comput. 2011): the
remainder is one mutable dict, its monomials sit in a heap with lazy
deletion, and each step cancels the largest one in place.  ``poly_gcd``
runs on a subresultant remainder sequence (``_subresultant_prs``),
which needs no content inside its loop; nothing else uses one.  The
determinants in ``matrix`` need no division at all: they expand memoised
minors over Z[s], with Python int coefficients, and divide by one integer
at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd as int_gcd
from operator import add, neg, sub


@dataclass(frozen=True)
class VarTable:
    """Ordered variable names: space variables first, then parameters."""

    x_vars: tuple
    s_vars: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "x_vars", tuple(self.x_vars))
        object.__setattr__(self, "s_vars", tuple(self.s_vars))
        names = self.x_vars + self.s_vars
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        if not self.x_vars:
            raise ValueError("need at least one space variable")
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    @property
    def names(self):
        return self.x_vars + self.s_vars

    @property
    def nx(self):
        return len(self.x_vars)

    @property
    def nvars(self):
        return len(self.x_vars) + len(self.s_vars)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError("unknown variable %r" % name) from None

    def resolve(self, assignment):
        """An assignment {name: rational} as (index, Fraction) pairs, for
        many calls of ``Polynomial.value_at``."""
        return tuple((self.index(k), Fraction(v))
                     for k, v in assignment.items())


def degrevlex_key(expts):
    """Sort key: larger key = larger monomial in degrevlex."""
    return (sum(expts), tuple(map(neg, reversed(expts))))


def _heap_key(expts):
    """Min-heap priority: the larger monomial in degrevlex pops first."""
    deg, rev = degrevlex_key(expts)
    return (-deg, tuple(map(neg, rev)))


def monomial_mul(a, b):
    return tuple(map(add, a, b))


def monomial_div(a, b):
    """a / b, or None when b does not divide a."""
    d = tuple(map(sub, a, b))
    if min(d, default=0) < 0:
        return None
    return d


def monomial_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


class Polynomial:
    """Immutable sparse polynomial attached to a VarTable."""

    __slots__ = ("vt", "terms")

    def __init__(self, vt, terms=None):
        self.vt = vt
        clean = {}
        if terms:
            for m, c in terms.items():
                c = Fraction(c)
                if c:
                    clean[tuple(m)] = c
        self.terms = clean

    @classmethod
    def _raw(cls, vt, terms):
        """Trusted constructor: ``terms`` already maps exponent tuples to
        nonzero Fractions and is owned by the new polynomial."""
        p = object.__new__(cls)
        p.vt = vt
        p.terms = terms
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vt):
        return cls._raw(vt, {})

    @classmethod
    def const(cls, vt, c):
        c = Fraction(c)
        if not c:
            return cls._raw(vt, {})
        return cls._raw(vt, {(0,) * vt.nvars: c})

    @classmethod
    def var(cls, vt, name):
        i = vt.index(name)
        m = tuple(1 if j == i else 0 for j in range(vt.nvars))
        return cls(vt, {m: Fraction(1)})

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_constant(self):
        z = (0,) * self.vt.nvars
        return all(m == z for m in self.terms)

    def constant_value(self):
        if self.is_zero:
            return Fraction(0)
        if not self.is_constant:
            raise ValueError("polynomial is not constant: %s" % self)
        return next(iter(self.terms.values()))

    def variables_used(self):
        used = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(i)
        return used

    def degree_in(self, name):
        i = self.vt.index(name)
        if self.is_zero:
            return -1
        return max(m[i] for m in self.terms)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if self.vt is not other.vt and self.vt != other.vt:
            raise ValueError("mismatched variable tables")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.vt, other)
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s
            else:
                del terms[m]
        return Polynomial._raw(self.vt, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.vt, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.vt, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return Polynomial._raw(self.vt, {})
            return Polynomial._raw(self.vt,
                                   {m: k * c for m, k in self.terms.items()})
        self._check(other)
        if len(self.terms) > len(other.terms):
            self, other = other, self
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
        return Polynomial._raw(self.vt, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative exponent")
        out = Polynomial.const(self.vt, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.vt, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.vt == other.vt and self.terms == other.terms

    def __hash__(self):
        return hash((self.vt, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- calculus / evaluation --------------------------------------------

    def diff(self, name):
        i = self.vt.index(name)
        out = {}
        for m, c in self.terms.items():
            e = m[i]
            if e:
                out[m[:i] + (e - 1,) + m[i + 1:]] = c * e
        return Polynomial._raw(self.vt, out)

    def evaluate(self, assignment):
        """Substitute rationals for a subset of the variables."""
        idx = {self.vt.index(k): Fraction(v) for k, v in assignment.items()}
        out = {}
        for m, c in self.terms.items():
            for i, v in idx.items():
                c = c * v ** m[i]
            m2 = tuple(0 if i in idx else e for i, e in enumerate(m))
            s = out.get(m2, 0) + c
            if s:
                out[m2] = s
            else:
                out.pop(m2, None)
        return Polynomial._raw(self.vt, out)

    def value_at(self, point):
        """The rational value at a point from ``VarTable.resolve`` that
        assigns every variable this polynomial uses."""
        total = Fraction(0)
        for m, c in self.terms.items():
            free = sum(m)
            for i, v in point:
                e = m[i]
                if e:
                    c *= v ** e
                    free -= e
            if free:
                raise ValueError("point leaves a variable of %s unassigned"
                                 % self)
            total += c
        return total

    # -- leading data (global degrevlex) ----------------------------------

    def lead_monomial(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=degrevlex_key)

    def lead_coeff(self):
        return self.terms[self.lead_monomial()]

    def sorted_terms(self):
        """Terms in descending degrevlex, the canonical print order."""
        return sorted(self.terms.items(), key=lambda t: degrevlex_key(t[0]),
                      reverse=True)

    # -- printing ----------------------------------------------------------

    def _monomial_str(self, m):
        parts = []
        for name, e in zip(self.vt.names, m):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append("%s^%d" % (name, e))
        return "*".join(parts)

    def __str__(self):
        if self.is_zero:
            return "0"
        chunks = []
        for m, c in self.sorted_terms():
            mono = self._monomial_str(m)
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = "%s*%s" % (mag, mono)
            if not chunks:
                chunks.append(body if c > 0 else "-" + body)
            else:
                chunks.append((" + " if c > 0 else " - ") + body)
        return "".join(chunks)

    def __repr__(self):
        return "Polynomial(%s)" % self


# -- content, gcd, exact division -----------------------------------------


def rational_content(p):
    """Positive rational c with p/c integer-primitive; 0 for the zero poly."""
    if p.is_zero:
        return Fraction(0)
    num = 0
    den = 1
    for c in p.terms.values():
        num = int_gcd(num, abs(c.numerator))
        den = den * c.denominator // int_gcd(den, c.denominator)
    return Fraction(num, den)


def make_primitive(p):
    """Divide out the rational content and force a positive leading coeff."""
    if p.is_zero:
        return p
    c = rational_content(p)
    if p.lead_coeff() < 0:
        c = -c
    return p * (1 / c)


def exact_divide(a, b):
    """Return a / b when b divides a exactly, else None.

    Heap division: returns None as soon as the leading monomial of the
    remainder is not divisible by lm(b).
    """
    if b.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    lm_b = b.lead_monomial()
    lc_b = b.terms[lm_b]
    tail = [(m, c) for m, c in b.terms.items() if m != lm_b]
    r = dict(a.terms)
    heap = [(_heap_key(m), m) for m in r]
    heapify(heap)
    q = {}
    while heap:
        m = heappop(heap)[1]
        c = r.pop(m, None)
        if c is None:
            continue  # cancelled earlier, or a duplicate entry
        d = monomial_div(m, lm_b)
        if d is None:
            return None
        c = c / lc_b
        q[d] = c
        # every monomial of d*tail(b) is below m, so m never comes back
        for mb, cb in tail:
            mm = tuple(map(add, d, mb))
            old = r.get(mm)
            if old is None:
                r[mm] = -c * cb
                heappush(heap, (_heap_key(mm), mm))
            else:
                v = old - c * cb
                if v:
                    r[mm] = v
                else:
                    del r[mm]
    return Polynomial._raw(a.vt, q)


def _coeffs_in(p, i):
    """p as univariate in variable index i: degree -> coefficient poly."""
    out = {}
    for m, c in p.terms.items():
        # distinct monomials of one degree stay distinct with m[i] zeroed
        out.setdefault(m[i], {})[m[:i] + (0,) + m[i + 1:]] = c
    return {e: Polynomial._raw(p.vt, cf) for e, cf in out.items()}


def _pseudo_rem(a, b, i):
    """prem(a, b) = lc(b)^(deg a - deg b + 1) * a mod b, both univariate
    in variable index i with deg a >= deg b."""
    cb = _coeffs_in(b, i)
    db = max(cb)
    lc_b = cb[db]
    r = a
    e = max(m[i] for m in a.terms) - db + 1
    var_mono = tuple(1 if j == i else 0 for j in range(a.vt.nvars))
    xv = Polynomial._raw(a.vt, {var_mono: Fraction(1)})
    while True:
        cr = _coeffs_in(r, i)
        dr = max(cr) if cr else -1
        if dr < db:
            # the steps skipped by a degree drop still scale by lc(b)
            return r * lc_b ** e if e else r
        r = lc_b * r - cr[dr] * xv ** (dr - db) * b
        e -= 1
        # the cancelled leading coefficient keeps the loop finite


def _subresultant_prs(a, b, i):
    """Last nonzero member of the subresultant PRS of a and b in variable
    index i, deg a >= deg b >= 1 (Collins, JACM 1967; Brown and Traub,
    JACM 1971). Its primitive part in the variable is the gcd of the
    primitive parts of a and b.

    Each pseudo-remainder is divided exactly by g * h^d, where d is the
    degree drop of the step, g the leading coefficient of the divisor
    before it and h the running subresultant scale, so the members stay
    subresultants, their coefficients stay small, and no content is taken
    inside the loop.
    """
    g = h = Polynomial.const(a.vt, 1)
    da = max(m[i] for m in a.terms)
    db = max(m[i] for m in b.terms)
    while True:
        r = _pseudo_rem(a, b, i)
        if r.is_zero:
            return b
        d = da - db
        a, da = b, db
        b = exact_divide(r, g * h ** d)
        db = max(m[i] for m in b.terms)
        if not db:
            return b
        g = _coeffs_in(a, i)[da]
        if d:
            h = g if d == 1 else exact_divide(g ** d, h ** (d - 1))


def poly_gcd(a, b):
    """Primitive gcd, positive leading coefficient: 1 when either operand is
    a nonzero constant, contents in the main variable by recursion,
    primitive parts by the subresultant PRS."""
    if a.is_zero:
        return make_primitive(b)
    if b.is_zero:
        return make_primitive(a)
    if a.is_constant or b.is_constant:
        return Polynomial.const(a.vt, 1)
    used_a = a.variables_used()
    used_b = b.variables_used()
    i = max(used_a | used_b)
    if i not in used_a or i not in used_b:
        # one operand is free of the main variable: gcd divides its content
        if i in used_a:
            a, b = b, a
        return poly_gcd(a, poly_gcd_list(_coeffs_in(b, i).values()))
    ca = poly_gcd_list(_coeffs_in(a, i).values())
    cb = poly_gcd_list(_coeffs_in(b, i).values())
    cont = poly_gcd(ca, cb)
    f = exact_divide(a, ca)
    g = exact_divide(b, cb)
    if max(_coeffs_in(f, i)) < max(_coeffs_in(g, i)):
        f, g = g, f
    last = _subresultant_prs(f, g, i)
    if i not in last.variables_used():
        return make_primitive(cont)
    gprim = exact_divide(last, poly_gcd_list(_coeffs_in(last, i).values()))
    return make_primitive(cont * gprim)


def poly_gcd_list(polys):
    """A gcd of the nonzero polys, up to a rational factor; None if there
    are none. It stops at the first constant gcd."""
    g = None
    for p in polys:
        if p.is_zero:
            continue
        g = p if g is None else poly_gcd(g, p)
        if g.is_constant:
            break
    return g


def squarefree_core(p):
    """p divided by gcd(p, all partials); shares the zero set with p."""
    if p.is_zero or p.is_constant:
        return make_primitive(p) if not p.is_zero else p
    g = p
    for i in sorted(p.variables_used()):
        g = poly_gcd(g, p.diff(p.vt.names[i]))
    return make_primitive(exact_divide(p, g))
