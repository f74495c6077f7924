"""Complete-intersection pipeline: minor ideals, the matrix P(s) = rho(t) - u*Id,
structure tensors W^c, the trace form T(t), and the first-order connection
coefficient matrices in the quasihomogeneous case."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .groebner import ParamIdeal, buchberger, coordinates, standard_basis
from .hyper import (NotQuasihomogeneousError, _solve_weights,
                    structure_constants, tau_form)
from .matrix import PolyMatrix, det_bareiss
from .poly import Polynomial


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


@dataclass
class CITables:
    """Standard basis phi, the matrix P(s), tensors W^c, traces zeta, T(t)."""

    phi: object
    gb: object
    P: PolyMatrix
    W: list
    zeta: list
    T: PolyMatrix

    @property
    def mu(self):
        return self.phi.mu


def ci_tables(spec, mi, basis_hint=None):
    """Multiplication tables on the quotient by the minor ideal and the
    matrix P whose determinant cuts out the discriminant."""
    vt = spec.vt
    gb = buchberger(mi.combined)
    qb = standard_basis(gb, ordering_hint=basis_hint)
    W, zeta = structure_constants(gb, qb, spec.u)
    T = PolyMatrix(vt, tau_form([w.entries for w in W], zeta))
    rows = [coordinates(spec.maps[0] * phi, gb, qb) for phi in qb.polynomials()]
    P = PolyMatrix(vt, rows)
    u = Polynomial.var(vt, spec.u)
    shifted = P + PolyMatrix.identity(vt, qb.mu).scale(u)
    for row in shifted.entries:
        for e in row:
            if e.degree_in(spec.u) > 0:
                raise AssertionError("P + u*Id must be free of u")
    return CITables(qb, gb, P, W, zeta, T)


def discriminant_and_bifurcation(tables):
    """Exact determinants of P (discriminant) and T (bifurcation)."""
    return det_bareiss(tables.P), det_bareiss(tables.T)


@dataclass
class CIWeightSystem:
    """x-weights shared by all maps plus the induced per-map weights."""

    x_weights: tuple
    f_weights: tuple

    def monomial_weight(self, xm):
        return sum(w * e for w, e in zip(self.x_weights, xm))


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
    # one combined difference system: equal weight within each group
    monos = []
    for g in groups:
        monos.extend([tuple(a - b for a, b in zip(m, g[0])) for m in g[1:]])
    base = (0,) * nx
    w = _solve_weights([base] + [tuple(a + b for a, b in zip(base, d))
                                 for d in monos], nx)
    if w is None:
        raise NotQuasihomogeneousError("maps admit no common positive "
                                       "integer weight system")
    ws = CIWeightSystem(tuple(w), ())
    ws.f_weights = tuple(ws.monomial_weight(g[0]) for g in groups)
    return ws


@dataclass
class GMCoefficients:
    """Coefficient matrices B_j of the first-order connection, built from
    the multiplication tensors and the Euler-field divergence terms."""

    trM0: int
    R: list        # R[j] is the mu x mu matrix R^l_{i,j} indexed [i][l]
    B: list        # B[j] entry (i, l) = trM0 * w^l_{i,j} + R^l_{i,j}


def gm_coefficients(spec, mi, tables, ws):
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
            brows.append([tables.W[l][i, j] * trM0 + coords[l]
                          for l in range(mu)])
        R.append(PolyMatrix(vt, rrows))
        B.append(PolyMatrix(vt, brows))
    return GMCoefficients(trM0, R, B)


def hyper_to_ci(spec_h):
    """Recast a hypersurface deformation F = f0 + u + sum(s_i e_i) as the
    k=1 family F_1 - u with F_1 = -(f0 + sum(s_i e_i)): the zero fiber of F
    becomes the graph of the projection u."""
    vt = spec_h.vt
    es = spec_h.basis_polys()
    body = spec_h.f0
    for name, e in zip(spec_h.params[1:], es[1:]):
        body = body + Polynomial.var(vt, name) * e
    u = Polynomial.var(vt, spec_h.u)
    return CISpec((-body - u,), spec_h.params)
