"""The quotient algebra of the minor ideal of maps (F_1(x,t) - u, F_2(x,t),
..., F_k(x,t)) with distinguished projection u; a hypersurface is the case
k = 1. Structure constants tau^l, traces zeta, the trace form T(t), the
matrix P(s) = rho(t) - u*Id, weights, and the first-order connection
coefficient matrices in the quasihomogeneous case; and the same algebra
over Q at a parameter point, from the Groebner basis specialised there."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import gcd, lcm

from .groebner import ParamIdeal, buchberger, coordinates, standard_basis
from .matrix import PolyMatrix, det_bareiss, mat_vec
from .poly import Polynomial, monomial_mul


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
        if not self.params or self.params[0] != vt.s_vars[0]:
            raise ValueError("the first parameter must be the distinguished u")
        u = self.params[0]
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


def minor_ideal(spec):
    """Minor ideal of the projection: the nonzero maximal minors of the
    x-Jacobian of the maps, together with the later maps themselves."""
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
    return ParamIdeal([m for m in minors if not m.is_zero]
                      + list(spec.maps[1:]))


@dataclass
class SparseTau:
    """The structure constants as their nonzero entries with i <= j
    (tau^l_ij = tau^l_ji), over the parameter polynomials or over Q.

    pairs holds (i, j, col) for every i <= j, col the (l, tau^l_ij) with
    tau^l_ij nonzero; normal_forms maps each product monomial outside the
    standard basis to its col, and zero is the ring's zero. Every form and
    matrix built from tau is a sum over these entries."""

    mu: int
    pairs: list
    normal_forms: dict
    zero: object

    def dense(self):
        """tau as mu row lists: tau[l][i][j]."""
        tau = [[[self.zero] * self.mu for _ in range(self.mu)]
               for _ in range(self.mu)]
        for i, j, col in self.pairs:
            for l, v in col:
                tau[l][i][j] = tau[l][j][i] = v
        return tau


def structure_constants(gb, qb):
    """Structure constants of the quotient by gb in the standard basis qb,
    over gb's coefficients: the parameter polynomials, or Q for a basis
    specialised at a point (``GroebnerBasis.specialise``).

    A product e_i e_j that is a basis monomial is a unit column and takes
    no normal form; every other distinct product monomial takes one normal
    form, which the pairs giving it share."""
    vt = qb.vt
    monos = qb.monomials
    pad = (0,) * (vt.nvars - vt.nx)
    one = gb.const(1)
    forms = {}
    pairs = []
    for i, mi in enumerate(monos):
        for j in range(i, len(monos)):
            m = monomial_mul(mi, monos[j])
            l = qb.index.get(m)
            if l is not None:
                col = ((l, one),)
            elif m in forms:
                col = forms[m]
            else:
                coords = coordinates(
                    Polynomial._raw(vt, {m + pad: Fraction(1)}), gb, qb)
                col = forms[m] = tuple((k, c) for k, c in enumerate(coords)
                                       if c)
            pairs.append((i, j, col))
    return SparseTau(len(monos), pairs, forms, gb.const(0))


def traces(tau):
    """zeta_r = sum_l tau^l_{r,l}, the trace of multiplication by basis
    element r, from a SparseTau."""
    zeta = [tau.zero] * tau.mu
    for i, j, col in tau.pairs:
        for l, v in col:
            if l == j:
                zeta[i] = zeta[i] + v
            if l == i != j:
                zeta[j] = zeta[j] + v
    return zeta


def tau_form(tau, coeffs):
    """The symmetric form sum_l coeffs_l * tau^l, as row lists, from a
    SparseTau and coefficients in its ring: one sum over the nonzero
    tau^l_ij with i <= j, which skips zero coefficients.

    With coeffs = zeta it is the trace form T, T_ij = tr(e_i e_j); with
    coeffs = T g it is the trace form of g (``trace_form``).
    """
    form = [[tau.zero] * tau.mu for _ in range(tau.mu)]
    for i, j, col in tau.pairs:
        terms = [coeffs[l] * v for l, v in col if coeffs[l]]
        if terms:
            form[i][j] = form[j][i] = sum(terms[1:], terms[0])
    return form


def trace_form(tau, T, g):
    """The trace form tr(g * e_i * e_j) = sum_l (T g)_l * tau^l_ij of the
    element with coordinates g, tau a SparseTau and T row lists: over the
    parameter polynomials, or over Q at a point. Its signature counts the
    sign changes of g over the real points; B^H is the trace form of the
    Hessian determinant."""
    return tau_form(tau, mat_vec(T, g))


def multiplication_rows(tau, coeffs):
    """Matrix of multiplication by sum_l coeffs_l * e_l, from a SparseTau:
    row i holds the coordinates of its product with e_i, sum_l coeffs_l *
    tau^m_{l,i} in column m."""
    rows = [[tau.zero] * tau.mu for _ in range(tau.mu)]
    for i, j, col in tau.pairs:
        for a, b in ((i, j), (j, i)) if i != j else ((i, j),):
            c = coeffs[a]
            if c:
                row = rows[b]
                for m, v in col:
                    row[m] = row[m] + c * v
    return rows


@dataclass
class CITables:
    """The quotient algebra: standard basis phi, reduced Groebner basis gb
    and the first map F_1 - u. The structure constants, the traces zeta,
    the trace form T and the matrix P are built on first use;
    ``PointTables`` gives the algebra at a point over Q, from the basis
    specialised there.

    tau[l] is the mu x mu matrix whose (i, j) entry is the coefficient of
    basis element l in the product of basis elements i and j; zeta[r] is
    the trace of multiplication by basis element r.
    """

    phi: object
    gb: object
    first_map: Polynomial

    @property
    def mu(self):
        return self.phi.mu

    @cached_property
    def sparse_tau(self):
        """The structure constants over the parameter polynomials. They are
        free of u by construction (u enters the first map only, as -u, and
        so no Jacobian minor and no later map); the check reads the normal
        forms, since a unit column is 1."""
        tau = structure_constants(self.gb, self.phi)
        u = self.phi.vt.s_vars[0]
        if any(v.degree_in(u) > 0 for col in tau.normal_forms.values()
               for _, v in col):
            raise ValueError("structure constants must not involve u")
        return tau

    @cached_property
    def tau(self):
        """tau as one PolyMatrix per basis element."""
        return [PolyMatrix(self.phi.vt, t) for t in self.sparse_tau.dense()]

    @cached_property
    def zeta(self):
        return traces(self.sparse_tau)

    @cached_property
    def T(self):
        """The trace form T(t)."""
        return PolyMatrix(self.phi.vt, tau_form(self.sparse_tau, self.zeta))

    @cached_property
    def first_map_coords(self):
        """Coordinates of the first map F_1 - u, from one normal form. With
        u added at the basis element 1 they are F_1's and free of u, as tau
        is; then so is P + u*Id. This holds by construction, as for tau."""
        vt = self.phi.vt
        u = vt.s_vars[0]
        coords = coordinates(self.first_map, self.gb, self.phi)
        shifted = [c + Polynomial.var(vt, u) if not any(m) else c
                   for c, m in zip(coords, self.phi.monomials)]
        if any(c.degree_in(u) > 0 for c in shifted):
            raise AssertionError("P + u*Id must be free of u")
        return coords

    @cached_property
    def P(self):
        """The matrix P(s) of multiplication by the first map: its
        products with the basis follow from tau."""
        return PolyMatrix(self.phi.vt, multiplication_rows(
            self.sparse_tau, self.first_map_coords))

    def require_specialisable(self):
        """The checks of the point route (``PointTables``), which need no
        point: every leading coefficient of gb is rational
        (``GroebnerBasis.require_rational_leads``), and gb is free of u.
        The second holds by construction, as for tau, and implies both
        parametric u checks (tau and P + u*Id)."""
        self.gb.require_rational_leads()
        u = self.phi.vt.s_vars[0]
        if any(g.degree_in(u) > 0 for g in self.gb.elements):
            raise AssertionError("the Groebner basis must be free of u")


class PointTables:
    """The quotient algebra over Q at one parameter point {name: rational}:
    the Groebner basis specialised there, and from it the structure
    constants tau (a SparseTau), the traces zeta, the trace form T (row
    lists) and the first map's coordinates. Specialising commutes with
    reduction (``GroebnerBasis.specialise``), so each equals the evaluated
    parametric one, and no parametric structure constant is built."""

    def __init__(self, tables, point):
        self.point = point
        self.phi = tables.phi
        self.gb = tables.gb.specialise(tables.phi.vt.resolve(point))
        self.tau = structure_constants(self.gb, self.phi)
        self.zeta = traces(self.tau)
        self.T = tau_form(self.tau, self.zeta)
        self.first_map_coords = self.coordinates(tables.first_map)

    def coordinates(self, p):
        """Coordinates over Q of p at the point, p's parameters evaluated."""
        return coordinates(p, self.gb, self.phi)


def monomial_hint(basis):
    """The x-exponents of basis elements, each a monic monomial in the
    x-variables only; anything else raises ValueError."""
    hint = []
    for b in basis:
        if len(b.terms) != 1 or b.lead_coeff() != 1:
            raise ValueError("basis elements must be monic monomials")
        m = b.lead_monomial()
        if any(m[b.vt.nx:]):
            raise ValueError("basis elements must involve only x-variables")
        hint.append(m[:b.vt.nx])
    return hint


def ci_tables(spec, basis_hint=None):
    """The quotient algebra by the minor ideal: its Groebner and standard
    bases; everything else is built on first use."""
    gb = buchberger(minor_ideal(spec))
    qb = standard_basis(gb, ordering_hint=basis_hint)
    return CITables(qb, gb, spec.maps[0])


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
    """Coefficient matrices B_j of the first-order connection, read off the
    structure constants: B_j[i][l] = (trM0 + sum_p w(x_p) + w(phi_i) +
    w(phi_j)) * tau^l_{i,j}, trM0 the sum of the map weights."""

    trM0: int
    B: list        # B[j] is indexed [i][l]


def gm_coefficients(spec, tables, ws):
    """Connection coefficients in the quasihomogeneous case, with the Euler
    lifting h_{j,p} = phi_j * w(x_p) * x_p. B_j is trM0 * tau plus the
    coordinates of the divergence of phi_i * phi_j * E, E the Euler field;
    for a monomial m that divergence is (sum_p w(x_p) + w(m)) * m."""
    mu = tables.mu
    trM0 = sum(ws.f_weights)
    c = trM0 + sum(ws.x_weights)
    wt = [ws.monomial_weight(m) for m in tables.phi.monomials]
    B = [PolyMatrix(spec.vt, [[tables.tau[l][i, j] * (c + wt[i] + wt[j])
                               for l in range(mu)] for i in range(mu)])
         for j in range(mu)]
    return GMCoefficients(trM0, B)


def hyper_to_ci(spec_h):
    """Recast a hypersurface deformation F = f0 + u + sum(s_i e_i) as the
    k=1 family -F = F_1 - u with F_1 = -(f0 + sum(s_i e_i)): the zero fiber
    of F becomes the graph of the projection u."""
    return CISpec((-spec_h.F,), spec_h.params)
