"""Buchberger-style Groebner bases for ideals in the x-variables whose
coefficients are polynomials in the deformation parameters.

All stored data stays polynomial in the parameters: reduction is
pseudo-reduction with content stripping.  When every leading coefficient
met during a reduction is a nonzero rational the certificate scale is 1
and the reduction is exact; a nonconstant scale is surfaced, never
silently divided out.

Each polynomial is split by x-monomial once, and ``reduce_poly`` takes
the x-monomials still to reduce from a heap.  A basis whose leading
coefficients are all rational can be specialised at a parameter point
(``GroebnerBasis.specialise``): its coefficients are then rationals, and
the same reduction loop gives the normal forms at that point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import combinations

from .poly import (Polynomial, _heap_key, degrevlex_key, exact_divide,
                   monomial_div, monomial_lcm, monomial_mul, poly_gcd_list)


class NonConstantScaleError(ArithmeticError):
    """A normal form required division by a nonconstant parameter polynomial."""


class InfiniteQuotientError(ValueError):
    """The quotient is not finite-dimensional."""

    def __init__(self, var):
        super().__init__("no leading monomial is a pure power of %r; "
                         "the quotient is infinite-dimensional" % var)
        self.var = var


@dataclass(frozen=True)
class ParamIdeal:
    """Generators, polynomial in x with parameter-polynomial coefficients."""

    generators: tuple

    def __post_init__(self):
        gens = tuple(self.generators)
        if not gens:
            raise ValueError("empty generator list")
        vt = gens[0].vt
        for g in gens:
            if g.is_zero:
                raise ValueError("zero generator")
            if g.vt != vt:
                raise ValueError("generators must share one variable table")
        object.__setattr__(self, "generators", gens)


def _split_x(p):
    """Group terms by x-monomial: x-exponents -> parameter-coefficient poly."""
    nx = p.vt.nx
    pad = (0,) * nx
    out = {}
    for m, c in p.terms.items():
        out.setdefault(m[:nx], {})[pad + m[nx:]] = c
    return {xm: Polynomial._raw(p.vt, cf) for xm, cf in out.items()}


def _split_at(p, at):
    """Group terms by x-monomial at a point from ``VarTable.resolve`` that
    assigns every parameter p uses: x-exponents -> nonzero rational."""
    nx = p.vt.nx
    out = {}
    for m, c in p.terms.items():
        free = sum(m[nx:])
        for i, v in at:
            e = m[i]
            if e:
                c *= v ** e
                free -= e
        if free:
            raise ValueError("point leaves a parameter of %s unassigned" % p)
        xm = m[:nx]
        out[xm] = out.get(xm, 0) + c
    return {xm: c for xm, c in out.items() if c}


def _join(vt, split):
    """The polynomial whose split is ``split``."""
    nx = vt.nx
    return Polynomial._raw(vt, {xm + m[nx:]: c for xm, cf in split.items()
                                for m, c in cf.terms.items()})


def _join_at(vt, split):
    """The x-only polynomial whose split, into rationals, is ``split``."""
    pad = (0,) * (vt.nvars - vt.nx)
    return Polynomial._raw(vt, {xm + pad: c for xm, c in split.items()})


def _add_into(split, xm, c):
    """split[xm] += c, dropping a zero sum; True when xm was absent."""
    old = split.get(xm)
    if old is None:
        split[xm] = c
        return True
    c = old + c
    if c:
        split[xm] = c
    else:
        del split[xm]
    return False


def _strip_content(p):
    """Divide out the gcd of the parameter-polynomial x-coefficients and
    make the leading x-coefficient's leading coefficient positive."""
    if p.is_zero:
        return p
    split = _split_x(p)
    g = poly_gcd_list(list(split.values()))
    q = exact_divide(p, g)
    # leading coefficients multiply, so that of lead / g has this sign
    lead = split[max(split, key=degrevlex_key)]
    return -q if (lead.lead_coeff() < 0) != (g.lead_coeff() < 0) else q


@dataclass
class ReductionCertificate:
    """scale * input = sum(cofactor_i * g_i) + remainder, exactly, g_i the
    elements of gb. The remainder and the cofactors stay split by
    x-monomial, as ``reduce_poly`` left them, and are joined on first read:
    coordinates are read off ``split``, and no normal form builds a
    cofactor polynomial that nothing reads."""

    gb: object
    split: dict
    cofactor_splits: list
    scale: Polynomial

    @cached_property
    def remainder(self):
        return self.gb.join(self.split)

    @cached_property
    def cofactors(self):
        return [self.gb.join(c) for c in self.cofactor_splits]

    @property
    def scale_is_constant(self):
        return self.scale.is_constant

    def require_constant_scale(self):
        if not self.scale_is_constant:
            raise NonConstantScaleError(
                "normal form needs division by the parameter polynomial %s"
                % self.scale)


@dataclass
class GroebnerBasis:
    """Basis elements, each split by x-monomial once: its leading
    x-monomial, the coefficient there, and the rest of the split
    (x-monomial -> coefficient), which reductions shift; lead_inverses
    holds 1/lead where the lead is rational and None elsewhere.

    The coefficients are parameter polynomials, or, for a basis specialised
    at the point ``at`` (from ``VarTable.resolve``), rationals: every
    polynomial reduced by such a basis is split at that point."""

    vt: object
    elements: list
    at: tuple = None
    lead_monomials: list = field(init=False)
    lead_coeffs: list = field(init=False)
    lead_inverses: list = field(init=False)
    tails: list = field(init=False)

    def __post_init__(self):
        elements, self.elements = self.elements, []
        self.lead_monomials, self.lead_coeffs = [], []
        self.lead_inverses, self.tails = [], []
        for g in elements:
            self.append(g)

    def split(self, p):
        """p by x-monomial, with coefficients in this basis's domain."""
        return _split_x(p) if self.at is None else _split_at(p, self.at)

    def join(self, split):
        """The polynomial whose split is ``split``."""
        return (_join if self.at is None else _join_at)(self.vt, split)

    def const(self, c):
        """The rational c as a coefficient of this basis's domain."""
        return Polynomial.const(self.vt, c) if self.at is None else Fraction(c)

    def append(self, g):
        tail = self.split(g)
        lm = max(tail, key=degrevlex_key)
        self._add(g, lm, tail.pop(lm), tail)

    def _add(self, g, lm, lead, tail):
        self.elements.append(g)
        self.lead_monomials.append(lm)
        self.lead_coeffs.append(lead)
        if self.at is not None:
            self.lead_inverses.append(1 / lead)
        else:
            self.lead_inverses.append(1 / lead.constant_value()
                                      if lead.is_constant else None)
        self.tails.append(tail)

    def require_rational_leads(self):
        """Normal forms at a point are read off this basis only if every
        leading coefficient is a nonzero rational. A parameter polynomial
        lead may vanish at the point, and the quotient changes there."""
        for g, lead, inv in zip(self.elements, self.lead_coeffs,
                                self.lead_inverses):
            if inv is None:
                raise NonConstantScaleError(
                    "normal forms at a point need rational leading "
                    "coefficients; the Groebner basis element %s has the "
                    "leading coefficient %s" % (g, lead))

    def specialise(self, at):
        """This basis at a point from ``VarTable.resolve``, over Q.

        Every lead is rational (``require_rational_leads``), so each element
        keeps its leading monomial, the reducer of every step depends only on
        the monomial, and each step is linear with the same rational factor:
        reducing by this basis is reducing by the parametric one and then
        evaluating at the point (Kalkbrener, "On the stability of Groebner
        bases under specializations", J. Symbolic Comput. 1997)."""
        self.require_rational_leads()
        gb = GroebnerBasis(self.vt, [], at)
        for lm, lead, tail in zip(self.lead_monomials, self.lead_coeffs,
                                  self.tails):
            lead = lead.constant_value()
            tail = {xm: v for xm, c in tail.items() if (v := c.value_at(at))}
            gb._add(_join_at(self.vt, {lm: lead, **tail}), lm, lead, tail)
        return gb


@dataclass
class QuotientBasis:
    """Ordered standard monomials of a zero-dimensional quotient."""

    monomials: list  # x-exponent tuples
    vt: object

    @property
    def mu(self):
        return len(self.monomials)

    @cached_property
    def index(self):
        """x-exponents -> position in the basis."""
        return {m: l for l, m in enumerate(self.monomials)}

    def polynomials(self):
        pad = (0,) * (self.vt.nvars - self.vt.nx)
        return [Polynomial._raw(self.vt, {m + pad: Fraction(1)})
                for m in self.monomials]


def reduce_poly(p, gb):
    """Extended pseudo-reduction of p by a (Groebner) basis; by a Groebner
    basis the remainder is p's normal form, on standard monomials only.

    One loop serves both coefficient domains: the parameter polynomials,
    and the rationals of a basis specialised at a point, where p is split
    at that point. p is split by x-monomial once, and its x-monomials wait
    in a heap, largest first, as in ``poly.exact_divide``. A popped
    monomial divisible by a leading monomial is reduced by the first such
    element, which brings in only smaller monomials; any other is final
    and stays. A rational lead divides; a parameter polynomial lead
    multiplies the remainder, the cofactors and the scale instead."""
    vt = p.vt
    scale = Polynomial.const(vt, 1)
    cof = [{} for _ in gb.elements]  # splits of the cofactors
    r = gb.split(p)
    heap = [(_heap_key(xm), xm) for xm in r]
    heapify(heap)
    while heap:
        xm = heappop(heap)[1]
        c = r.get(xm)
        if c is None:
            continue  # cancelled earlier, or a duplicate entry
        for gi, lm in enumerate(gb.lead_monomials):
            d = monomial_div(xm, lm)
            if d is not None:
                break
        else:
            continue  # irreducible: part of the remainder
        del r[xm]
        inverse = gb.lead_inverses[gi]
        if inverse is not None:
            factor = c * inverse
        else:
            lead = gb.lead_coeffs[gi]
            r = {m: lead * v for m, v in r.items()}
            scale = scale * lead
            cof = [{m: lead * v for m, v in ci.items()} for ci in cof]
            factor = c
        cof[gi][d] = factor
        neg = -factor
        for tm, tc in gb.tails[gi].items():
            mm = monomial_mul(d, tm)
            if _add_into(r, mm, neg * tc):
                heappush(heap, (_heap_key(mm), mm))
    return ReductionCertificate(gb, r, cof, scale)


def _s_poly(gb, i, j):
    """lc_j * (lcm/lm_i) * g_i - lc_i * (lcm/lm_j) * g_j; the leading terms
    cancel, so only the tails are shifted."""
    lms, lcs = gb.lead_monomials, gb.lead_coeffs
    lcm = monomial_lcm(lms[i], lms[j])
    s = {}
    for k, c in ((i, lcs[j]), (j, -lcs[i])):
        d = monomial_div(lcm, lms[k])
        for xm, ck in gb.tails[k].items():
            _add_into(s, monomial_mul(d, xm), c * ck)
    return _join(gb.vt, s)


def buchberger(ideal):
    """Reduced Groebner basis over the fraction field of the parameter ring."""
    gb = GroebnerBasis(ideal.generators[0].vt,
                       [_strip_content(g) for g in ideal.generators])
    lms = gb.lead_monomials
    pairs = set(combinations(range(len(lms)), 2))
    while pairs:
        # normal strategy: smallest lcm degree first
        i, j = min(pairs, key=lambda ij: degrevlex_key(
            monomial_lcm(lms[ij[0]], lms[ij[1]])))
        pairs.discard((i, j))
        lcm = monomial_lcm(lms[i], lms[j])
        if lcm == monomial_mul(lms[i], lms[j]):
            continue  # coprime leading monomials
        if _chain_criterion(i, j, lcm, lms, pairs):
            continue
        cert = reduce_poly(_s_poly(gb, i, j), gb)
        if cert.remainder.is_zero:
            continue
        gb.append(_strip_content(cert.remainder))
        k = len(lms) - 1
        pairs.update((idx, k) for idx in range(k))
    return _interreduce(gb)


def _chain_criterion(i, j, lcm, lms, pairs):
    for k in range(len(lms)):
        if k in (i, j):
            continue
        if monomial_div(lcm, lms[k]) is None:
            continue
        p1 = (min(i, k), max(i, k))
        p2 = (min(j, k), max(j, k))
        if p1 not in pairs and p2 not in pairs:
            return True
    return False


def _interreduce(gb):
    # minimal basis: drop elements whose lead is divisible by another lead
    lms = gb.lead_monomials
    keep = []
    for i in sorted(range(len(lms)), key=lambda i: degrevlex_key(lms[i])):
        if not any(monomial_div(lms[i], lms[j]) is not None for j in keep):
            keep.append(i)
    # reduce each by the others: its lead stays, and so the order by lead
    reduced = GroebnerBasis(gb.vt, [])
    for i in keep:
        others = GroebnerBasis(gb.vt, [gb.elements[j] for j in keep
                                       if j != i])
        cert = reduce_poly(gb.elements[i], others)
        reduced.append(_strip_content(cert.remainder))
    return reduced


def standard_basis(gb, ordering_hint=None):
    """Ordered standard-monomial basis of the quotient."""
    vt = gb.vt
    nx = vt.nx
    lms = gb.lead_monomials
    if (0,) * nx in lms:
        raise ValueError("the ideal is the unit ideal: no singular point, "
                         "the quotient is zero")
    # finiteness: every x-variable needs a pure power among the leads
    for v in range(nx):
        if not any(all(e == 0 for k, e in enumerate(lm) if k != v) and lm[v] > 0
                   for lm in lms):
            raise InfiniteQuotientError(vt.x_vars[v])
    bound = [0] * nx
    for v in range(nx):
        bound[v] = min(lm[v] for lm in lms
                       if lm[v] > 0 and all(e == 0 for k, e in enumerate(lm) if k != v))
    std = []
    stack = [(0,) * nx]
    seen = {(0,) * nx}
    while stack:
        m = stack.pop()
        if any(monomial_div(m, lm) is not None for lm in lms):
            continue
        std.append(m)
        for v in range(nx):
            m2 = m[:v] + (m[v] + 1,) + m[v + 1:]
            if m2 not in seen and m2[v] <= bound[v]:
                seen.add(m2)
                stack.append(m2)
    std.sort(key=degrevlex_key)
    if ordering_hint is not None:
        hint = [tuple(m) for m in ordering_hint]
        if sorted(hint, key=degrevlex_key) != std:
            raise ValueError("ordering hint is not a permutation of the "
                             "standard monomials")
        std = hint
    return QuotientBasis(std, vt)


def remainder_coordinates(cert, qb):
    """Coordinates of a remainder in the standard-monomial basis, read off
    its split, in the domain of the basis that reduced it.

    The certificate scale must be constant for the coordinates to be
    parameter polynomials; a nonconstant scale raises. A constant scale is
    1 (it starts at 1 and only nonconstant leads multiply it), so the
    remainder's coefficients are the coordinates.
    """
    cert.require_constant_scale()
    split = cert.split
    if not split.keys() <= qb.index.keys():
        raise ValueError("remainder has support outside the standard basis")
    zero = cert.gb.const(0)
    return [split.get(m, zero) for m in qb.monomials]


def coordinates(p, gb, qb):
    """Normal-form coordinates of p in the quotient basis."""
    return remainder_coordinates(reduce_poly(p, gb), qb)
