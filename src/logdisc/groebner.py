"""Buchberger-style Groebner bases for ideals in the x-variables whose
coefficients are polynomials in the deformation parameters.

All stored data stays polynomial in the parameters: reduction is
pseudo-reduction with content stripping.  When every leading coefficient
met during a reduction is a nonzero rational the certificate scale is 1
and the reduction is exact; a nonconstant scale is surfaced, never
silently divided out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .poly import (Polynomial, degrevlex_key, exact_divide, monomial_div,
                   monomial_lcm, monomial_mul, poly_gcd_list)


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

    @property
    def vt(self):
        return self.generators[0].vt


def _split_x(p):
    """Group terms by x-monomial: x-exponents -> parameter-coefficient poly."""
    nx = p.vt.nx
    pad = (0,) * nx
    out = {}
    for m, c in p.terms.items():
        xm = m[:nx]
        cf = out.setdefault(xm, {})
        cf[pad + m[nx:]] = c
    return {xm: Polynomial._raw(p.vt, cf) for xm, cf in out.items()}


def _lead_x(p):
    nx = p.vt.nx
    return max((m[:nx] for m in p.terms), key=degrevlex_key)


def _x_coeff(p, xm):
    """Coefficient of an x-monomial, as a parameter polynomial."""
    nx = p.vt.nx
    pad = (0,) * nx
    out = {}
    for m, c in p.terms.items():
        if m[:nx] == xm:
            out[pad + m[nx:]] = c
    return Polynomial._raw(p.vt, out)


def _shift_x(p, xm):
    """Multiply by the monomial with x-exponents xm."""
    full = xm + (0,) * (p.vt.nvars - len(xm))
    return Polynomial._raw(p.vt, {monomial_mul(m, full): c
                                  for m, c in p.terms.items()})


def _strip_content(p):
    """Divide out the gcd of the parameter-polynomial x-coefficients."""
    if p.is_zero:
        return p
    coeffs = list(_split_x(p).values())
    g = poly_gcd_list(coeffs)
    q = exact_divide(p, g)
    lead = _x_coeff(q, _lead_x(q))
    if lead.lead_coeff() < 0:
        q = -q
    return q


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
    elements: list
    source: ParamIdeal
    lead_monomials: list = field(default_factory=list)
    lead_coeffs: list = field(default_factory=list)

    def __post_init__(self):
        if not self.lead_monomials:
            self.lead_monomials = [_lead_x(g) for g in self.elements]
            self.lead_coeffs = [_x_coeff(g, m)
                                for g, m in zip(self.elements, self.lead_monomials)]

    @property
    def vt(self):
        return self.source.vt


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
    basis the remainder is p's normal form, on standard monomials only."""
    vt = p.vt
    one = Polynomial.const(vt, 1)
    scale = one
    cof = [Polynomial.zero(vt) for _ in gb.elements]
    r = p
    while not r.is_zero:
        # highest reducible x-monomial still present in r: scan the split
        # from the top, dropping irreducible monomials as they are met
        split = _split_x(r)
        pool = {xm: degrevlex_key(xm) for xm in split}
        step = None
        while pool and step is None:
            xm = max(pool, key=pool.__getitem__)
            del pool[xm]
            for gi, lm in enumerate(gb.lead_monomials):
                d = monomial_div(xm, lm)
                if d is not None:
                    step = (xm, gi, d)
                    break
        if step is None:
            break
        xm, gi, d = step
        c = split[xm]
        lead = gb.lead_coeffs[gi]
        shifted = _shift_x(gb.elements[gi], d)
        mono = Polynomial.monomial(vt, d + (0,) * (vt.nvars - vt.nx))
        if lead.is_constant:
            factor = c * (1 / lead.constant_value())
            r = r - factor * shifted
            cof[gi] = cof[gi] + factor * mono
        else:
            r = lead * r - c * shifted
            scale = scale * lead
            cof = [lead * ci for ci in cof]
            cof[gi] = cof[gi] + c * mono
    return ReductionCertificate(r, cof, scale)


def _s_poly(f, lm_f, lc_f, g, lm_g, lc_g):
    lcm = monomial_lcm(lm_f, lm_g)
    return (lc_g * _shift_x(f, monomial_div(lcm, lm_f))
            - lc_f * _shift_x(g, monomial_div(lcm, lm_g)))


def buchberger(ideal):
    """Reduced Groebner basis over the fraction field of the parameter ring."""
    basis = [_strip_content(g) for g in ideal.generators]
    lms = [_lead_x(g) for g in basis]
    lcs = [_x_coeff(g, m) for g, m in zip(basis, lms)]

    pairs = set(combinations(range(len(basis)), 2))
    handled = set()
    while pairs:
        # normal strategy: smallest lcm degree first
        i, j = min(pairs, key=lambda ij: degrevlex_key(
            monomial_lcm(lms[ij[0]], lms[ij[1]])))
        pairs.discard((i, j))
        handled.add((i, j))
        lcm = monomial_lcm(lms[i], lms[j])
        if lcm == monomial_mul(lms[i], lms[j]):
            continue  # coprime leading monomials
        if _chain_criterion(i, j, lcm, lms, pairs, handled):
            continue
        s = _s_poly(basis[i], lms[i], lcs[i], basis[j], lms[j], lcs[j])
        cert = reduce_poly(s, GroebnerBasis(basis, ideal, lms[:], lcs[:]))
        if cert.remainder.is_zero:
            continue
        new = _strip_content(cert.remainder)
        basis.append(new)
        lms.append(_lead_x(new))
        lcs.append(_x_coeff(new, lms[-1]))
        k = len(basis) - 1
        pairs.update((idx, k) for idx in range(k))

    basis, lms, lcs = _interreduce(basis, lms, lcs, ideal)
    return GroebnerBasis(basis, ideal, lms, lcs)


def _chain_criterion(i, j, lcm, lms, pairs, handled):
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


def _interreduce(basis, lms, lcs, ideal):
    # minimal basis: drop elements whose lead is divisible by another lead
    by_key = sorted(range(len(basis)), key=lambda i: degrevlex_key(lms[i]))
    keep = []
    for i in by_key:
        if not any(monomial_div(lms[i], lms[j]) is not None for j in keep):
            keep.append(i)
    basis = [basis[i] for i in keep]
    lms = [lms[i] for i in keep]
    lcs = [lcs[i] for i in keep]
    # fully reduce each element by the others (its own lead is irreducible)
    reduced = []
    for i, g in enumerate(basis):
        others_idx = [j for j in range(len(basis)) if j != i]
        others = GroebnerBasis([basis[j] for j in others_idx], ideal,
                               [lms[j] for j in others_idx],
                               [lcs[j] for j in others_idx])
        cert = reduce_poly(g, others)
        reduced.append(_strip_content(cert.remainder))
    lms = [_lead_x(g) for g in reduced]
    lcs = [_x_coeff(g, m) for g, m in zip(reduced, lms)]
    idx = sorted(range(len(reduced)), key=lambda i: degrevlex_key(lms[i]))
    return ([reduced[i] for i in idx], [lms[i] for i in idx],
            [lcs[i] for i in idx])


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
