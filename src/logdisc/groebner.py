"""Buchberger-style Groebner bases for ideals in the x-variables whose
coefficients are polynomials in the deformation parameters.

All stored data stays polynomial in the parameters: reduction is
pseudo-reduction with content stripping.  When every leading coefficient
met during a reduction is a nonzero rational the certificate scale is 1
and the reduction is exact; a nonconstant scale is surfaced, never
silently divided out.

Each polynomial is split by x-monomial once, and ``reduce_poly`` takes
the x-monomials still to reduce from a heap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
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


def _join(vt, split):
    """The polynomial whose split is ``split``."""
    nx = vt.nx
    return Polynomial._raw(vt, {xm + m[nx:]: c for xm, cf in split.items()
                                for m, c in cf.terms.items()})


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
    """scale * input = sum(cofactor_i * g_i) + remainder, exactly."""

    remainder: Polynomial
    cofactors: list
    scale: Polynomial

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
    x-monomial, the parameter polynomial there, and the rest of the split
    (x-monomial -> parameter polynomial), which reductions shift."""

    elements: list
    lead_monomials: list = field(init=False)
    lead_coeffs: list = field(init=False)
    tails: list = field(init=False)

    def __post_init__(self):
        elements, self.elements = self.elements, []
        self.lead_monomials, self.lead_coeffs, self.tails = [], [], []
        for g in elements:
            self.append(g)

    def append(self, g):
        tail = _split_x(g)
        lm = max(tail, key=degrevlex_key)
        self.elements.append(g)
        self.lead_monomials.append(lm)
        self.lead_coeffs.append(tail.pop(lm))
        self.tails.append(tail)

    @property
    def vt(self):
        return self.elements[0].vt


@dataclass
class QuotientBasis:
    """Ordered standard monomials of a zero-dimensional quotient."""

    monomials: list  # x-exponent tuples
    vt: object

    @property
    def mu(self):
        return len(self.monomials)

    def polynomials(self):
        pad = (0,) * (self.vt.nvars - self.vt.nx)
        return [Polynomial._raw(self.vt, {m + pad: Fraction(1)})
                for m in self.monomials]


def reduce_poly(p, gb):
    """Extended pseudo-reduction of p by a (Groebner) basis; by a Groebner
    basis the remainder is p's normal form, on standard monomials only.

    p is split by x-monomial once, and its x-monomials wait in a heap,
    largest first, as in ``poly.exact_divide``. A popped monomial divisible
    by a leading monomial is reduced by the first such element, which
    brings in only smaller monomials; any other is final and stays."""
    vt = p.vt
    scale = Polynomial.const(vt, 1)
    cof = [{} for _ in gb.elements]  # splits of the cofactors
    r = _split_x(p)
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
        lead = gb.lead_coeffs[gi]
        if lead.is_constant:
            factor = c * (1 / lead.constant_value())
        else:
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
    return ReductionCertificate(_join(vt, r), [_join(vt, ci) for ci in cof],
                                scale)


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
    gb = GroebnerBasis([_strip_content(g) for g in ideal.generators])
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
    reduced = GroebnerBasis([])
    for i in keep:
        others = GroebnerBasis([gb.elements[j] for j in keep if j != i])
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
    """Coordinates of a remainder in the standard-monomial basis.

    The certificate scale must be constant for the coordinates to be
    parameter polynomials; a nonconstant scale raises.
    """
    cert.require_constant_scale()
    s = cert.scale.constant_value()
    split = _split_x(cert.remainder)
    coords = []
    for m in qb.monomials:
        c = split.pop(m, None)
        coords.append(Polynomial.zero(qb.vt) if c is None else c * (1 / s))
    if split:
        raise ValueError("remainder has support outside the standard basis")
    return coords


def coordinates(p, gb, qb):
    """Normal-form coordinates of p in the quotient basis."""
    return remainder_coordinates(reduce_poly(p, gb), qb)
