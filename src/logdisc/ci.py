"""The quotient algebra of the minor ideal of maps (F_1(x,t) - u, F_2(x,t),
..., F_k(x,t)) with distinguished projection u; a hypersurface is the case
k = 1. Structure constants tau^l, traces zeta, the trace form T(t), the
matrix P(s) = rho(t) - u*Id, weights, and the first-order connection
coefficient matrices in the quasihomogeneous case."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import gcd, lcm

from .groebner import ParamIdeal, buchberger, coordinates, standard_basis
from .matrix import PolyMatrix, det_bareiss
from .poly import Polynomial


class NotQuasihomogeneousError(ValueError):
    """No positive integer weight system makes every monomial of f0 equal-weight."""


@dataclass
class WeightSystem:
    """Positive integer weights of the x-variables, the induced weight of
    each map (of f0 for a hypersurface), and for a hypersurface the derived
    parameter weights w(s_i) = wF - w(e_i)."""

    x_weights: tuple
    f_weights: tuple
    s_weights: tuple = ()

    @property
    def wF(self):
        return self.f_weights[0]

    def monomial_weight(self, xm):
        return sum(w * e for w, e in zip(self.x_weights, xm))


def weight_system(groups, nx):
    """Smallest positive integer x-weights giving the x-monomials of each
    group one weight, with the weight of each group; None if there are
    none."""
    diffs = [tuple(a - b for a, b in zip(m, g[0]))
             for g in groups for m in g[1:]]
    w = _positive_kernel_vector([d for d in diffs if any(d)], nx)
    if w is None:
        return None
    return WeightSystem(tuple(w), tuple(sum(a * e for a, e in zip(w, g[0]))
                                        for g in groups))


def _positive_kernel_vector(diffs, nx):
    if not diffs:
        return [1] * nx
    basis = _rational_nullspace(diffs, nx)
    if not basis:
        return None
    if len(basis) == 1:
        v = basis[0]
        if not (all(c > 0 for c in v) or all(c < 0 for c in v)):
            return None
        den = lcm(*(c.denominator for c in v))
        ints = [abs(int(c * den)) for c in v]
        g = gcd(*ints)
        return [c // g for c in ints]
    # underdetermined: search small positive integer solutions
    for bound in range(1, 13):
        for w in product(range(1, bound + 1), repeat=nx):
            if max(w) != bound:
                continue
            if all(sum(di * wi for di, wi in zip(d, w)) == 0 for d in diffs):
                return list(w)
    return None


def _rational_nullspace(rows, n):
    m = [[Fraction(c) for c in r] for r in rows]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        m[r] = [x / piv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append(v)
    return basis


@dataclass
class CISpec:
    """Maps (F_1(x,t) - u, F_2(x,t), ..., F_k(x,t)) defining a family of
    complete intersections with distinguished projection u."""

    maps: tuple
    params: tuple

    def __post_init__(self):
        maps = tuple(self.maps)
        if not maps:
            raise ValueError("need at least one map")
        vt = maps[0].vt
        u = self.params[0]
        if u != vt.s_vars[0]:
            raise ValueError("the first parameter must be the distinguished u")
        uc = _u_terms(maps[0], vt, u)
        if uc != -1:
            raise ValueError("the first map must contain u exactly as the "
                             "linear term -u")
        for q, m in enumerate(maps[1:], start=2):
            if m.degree_in(u) > 0:
                raise ValueError("u must not appear in map %d" % q)
        self.maps = maps
        self.params = tuple(self.params)

    @property
    def vt(self):
        return self.maps[0].vt

    @property
    def k(self):
        return len(self.maps)

    @property
    def u(self):
        return self.params[0]


def _u_terms(p, vt, uname):
    """Coefficient of the bare monomial u in p, or None if u appears
    anywhere except as that single linear term."""
    ui = vt.index(uname)
    coeff = None
    for m, c in p.terms.items():
        if m[ui] == 0:
            continue
        if m[ui] != 1 or any(e for j, e in enumerate(m) if j != ui):
            return None
        coeff = c
    return coeff


@dataclass
class MinorIdeal:
    """All k x k minors of the Jacobian in x, combined with F_2..F_k."""

    minors: list
    combined: ParamIdeal


def minor_ideal(spec):
    """Minor ideal of the projection: maximal minors of the x-Jacobian of
    the maps, together with the later maps themselves."""
    vt = spec.vt
    n = vt.nx
    k = spec.k
    if k > n:
        raise ValueError("more maps than space variables")
    jac = [[f.diff(x) for x in vt.x_vars] for f in spec.maps]
    minors = []
    for cols in combinations(range(n), k):
        sub = PolyMatrix(vt, [[jac[q][c] for c in cols] for q in range(k)])
        minors.append(det_bareiss(sub))
    gens = [m for m in minors if not m.is_zero] + list(spec.maps[1:])
    return MinorIdeal(minors, ParamIdeal(tuple(gens)))


def structure_constants(gb, qb, uname):
    """Structure constants tau^l (one PolyMatrix per basis element) and
    traces zeta of the quotient by gb in the standard basis qb; they must
    not involve the distinguished parameter uname."""
    vt = qb.vt
    mu = qb.mu
    es = qb.polynomials()
    zero = Polynomial.zero(vt)
    tau = [[[zero] * mu for _ in range(mu)] for _ in range(mu)]
    for i in range(mu):
        for j in range(i, mu):
            coords = coordinates(es[i] * es[j], gb, qb)
            for l in range(mu):
                tau[l][i][j] = coords[l]
                tau[l][j][i] = coords[l]
    if any(e.degree_in(uname) > 0 for t in tau for row in t for e in row):
        raise ValueError("structure constants must not involve u")
    return [PolyMatrix(vt, t) for t in tau], traces(tau)


def traces(tau):
    """zeta_r = sum_l tau^l_{r,l}, the trace of multiplication by basis
    element r; tau is a list of row lists of polynomials or rationals."""
    return [sum(t[r][l] for l, t in enumerate(tau)) for r in range(len(tau))]


def tau_form(tau, coeffs):
    """The symmetric form sum_l coeffs_l * tau^l on row lists of polynomials
    or rationals.

    With coeffs = zeta it is the trace form T, T_ij = tr(e_i e_j). With
    coeffs = T h, h the coordinates of a polynomial, it is the trace form
    of multiplication by that polynomial: B^H when h is the Hessian.
    """
    mu = len(tau)
    return [[sum(c * t[i][j] for c, t in zip(coeffs, tau)) for j in range(mu)]
            for i in range(mu)]


def multiplication_rows(tau, coeffs):
    """Matrix of multiplication by sum_l coeffs_l * e_l, tau as in tau_form:
    row i holds the coordinates of its product with e_i, sum_l coeffs_l *
    tau^m_{l,i} in column m."""
    mu = len(tau)
    return [[sum(c * tau[m][l][i] for l, c in enumerate(coeffs))
             for m in range(mu)] for i in range(mu)]


@dataclass
class CITables:
    """The quotient algebra: standard basis phi, reduced Groebner basis gb,
    structure constants tau, traces zeta and the first map F_1 - u.

    tau[l] is the mu x mu matrix whose (i, j) entry is the coefficient of
    basis element l in the product of basis elements i and j; zeta[r] is
    the trace of multiplication by basis element r.
    """

    phi: object
    gb: object
    tau: list
    zeta: list
    first_map: Polynomial

    @property
    def mu(self):
        return self.phi.mu

    @cached_property
    def T(self):
        """The trace form T(t), built on first use: the point commands form
        T over Q at their point instead."""
        return PolyMatrix(self.phi.vt,
                          tau_form([t.entries for t in self.tau], self.zeta))

    @cached_property
    def P(self):
        """The matrix P(s) of multiplication by the first map, built on
        first use: one normal form, whose products with the basis follow
        from tau."""
        vt = self.phi.vt
        u = vt.s_vars[0]
        P = PolyMatrix(vt, multiplication_rows(
            [t.entries for t in self.tau],
            coordinates(self.first_map, self.gb, self.phi)))
        shifted = P + PolyMatrix.identity(vt, self.mu).scale(
            Polynomial.var(vt, u))
        if any(e.degree_in(u) > 0 for row in shifted.entries for e in row):
            raise AssertionError("P + u*Id must be free of u")
        return P


def ci_tables(spec, mi, basis_hint=None):
    """Multiplication tables on the quotient by the minor ideal; the matrix
    P whose determinant cuts out the discriminant is built on first use."""
    gb = buchberger(mi.combined)
    qb = standard_basis(gb, ordering_hint=basis_hint)
    tau, zeta = structure_constants(gb, qb, spec.u)
    return CITables(qb, gb, tau, zeta, spec.maps[0])


def discriminant_and_bifurcation(tables):
    """Exact determinants of P (discriminant) and T (bifurcation)."""
    return det_bareiss(tables.P), det_bareiss(tables.T)


def ci_weights(spec):
    """Smallest positive integer x-weights making the parameter-free part of
    every map quasihomogeneous; per-map weights follow."""
    vt = spec.vt
    nx = vt.nx
    groups = []
    for f in spec.maps:
        monos = sorted({m[:nx] for m in f.terms
                        if any(m[:nx]) and not any(m[nx:])})
        if not monos:
            raise NotQuasihomogeneousError(
                "a map has no parameter-free x-monomials to fix its weight")
        groups.append(monos)
    ws = weight_system(groups, nx)
    if ws is None:
        raise NotQuasihomogeneousError("maps admit no common positive "
                                       "integer weight system")
    return ws


@dataclass
class GMCoefficients:
    """Coefficient matrices B_j of the first-order connection, built from
    the structure constants and the Euler-field divergence terms."""

    trM0: int
    R: list        # R[j] is the mu x mu matrix R^l_{i,j} indexed [i][l]
    B: list        # B[j] entry (i, l) = trM0 * tau^l_{i,j} + R^l_{i,j}


def gm_coefficients(spec, tables, ws):
    """Connection coefficients in the quasihomogeneous case, with the Euler
    lifting h_{j,p} = phi_j * w(x_p) * x_p."""
    vt = spec.vt
    mu = tables.mu
    phis = tables.phi.polynomials()
    euler = [ws.x_weights[p] * Polynomial.var(vt, x)
             for p, x in enumerate(vt.x_vars)]
    trM0 = sum(ws.f_weights)
    R = []
    B = []
    for j in range(mu):
        rrows = []
        brows = []
        for i in range(mu):
            div = Polynomial.zero(vt)
            for p, x in enumerate(vt.x_vars):
                div = div + (phis[i] * phis[j] * euler[p]).diff(x)
            coords = coordinates(div, tables.gb, tables.phi)
            rrows.append(coords)
            brows.append([tables.tau[l][i, j] * trM0 + coords[l]
                          for l in range(mu)])
        R.append(PolyMatrix(vt, rrows))
        B.append(PolyMatrix(vt, brows))
    return GMCoefficients(trM0, R, B)


def hyper_to_ci(spec_h):
    """Recast a hypersurface deformation F = f0 + u + sum(s_i e_i) as the
    k=1 family -F = F_1 - u with F_1 = -(f0 + sum(s_i e_i)): the zero fiber
    of F becomes the graph of the projection u."""
    return CISpec((-spec_h.F,), spec_h.params)
