"""Hypersurface pipeline: weights, multiplication tables, the logarithmic
matrix and discriminant, bifurcation and Maxwell sets, Hessian trace forms."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd

from .groebner import ParamIdeal, buchberger, coordinates, standard_basis
from .matrix import PolyMatrix, det_bareiss, discriminant, mat_mul, mat_vec
from .poly import Polynomial, exact_divide, make_primitive, squarefree_core


class NotQuasihomogeneousError(ValueError):
    """No positive integer weight system makes every monomial of f0 equal-weight."""


@dataclass
class WeightSystem:
    """Positive integer weights for the x-variables, the induced weight of
    f0, and the derived parameter weights w(s_i) = wF - w(e_i)."""

    x_weights: tuple
    wF: int
    s_weights: tuple = ()

    def monomial_weight(self, xm):
        return sum(w * e for w, e in zip(self.x_weights, xm))


def derive_weights(f0, basis=None):
    """Smallest positive integer weights under which f0 is quasihomogeneous."""
    if f0.is_zero:
        raise ValueError("zero polynomial has no weight system")
    nx = f0.vt.nx
    monos = sorted({m[:nx] for m in f0.terms})
    w = _solve_weights(monos, nx)
    if w is None:
        raise NotQuasihomogeneousError(
            "no positive integer weights make %s quasihomogeneous" % f0)
    wF = sum(wi * e for wi, e in zip(w, monos[0]))
    s_weights = ()
    if basis is not None:
        ws = WeightSystem(tuple(w), wF)
        s_weights = tuple(wF - ws.monomial_weight(m) for m in basis.monomials)
    return WeightSystem(tuple(w), wF, s_weights)


def _solve_weights(monos, nx):
    diffs = [tuple(a - b for a, b in zip(m, monos[0])) for m in monos[1:]]
    diffs = [d for d in diffs if any(d)]
    if not diffs:
        return [1] * nx
    basis = _rational_nullspace(diffs, nx)
    if not basis:
        return None
    if len(basis) == 1:
        v = basis[0]
        if all(c > 0 for c in v) or all(c < 0 for c in v):
            if v[0] < 0:
                v = [-c for c in v]
            den = 1
            for c in v:
                den = den * c.denominator // gcd(den, c.denominator)
            ints = [int(c * den) for c in v]
            g = 0
            for c in ints:
                g = gcd(g, c)
            return [c // g for c in ints]
        return None
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
class DeformationSpec:
    """Versal deformation F = f0 + sum(s_i * e_i) with e_0 = 1, s_0 = u."""

    f0: Polynomial
    basis: object        # QuotientBasis in the paper's row/column order
    params: tuple        # parameter names, one per basis element
    F: Polynomial
    gb: object
    mu: int

    @classmethod
    def build(cls, f0, basis_monomials, params):
        vt = f0.vt
        params = tuple(params)
        if len(params) != len(basis_monomials):
            raise ValueError("need one parameter per basis element")
        if params[0] != vt.s_vars[0]:
            raise ValueError("the first parameter must be the distinguished u")
        nx = vt.nx
        hint = []
        for b in basis_monomials:
            if len(b.terms) != 1 or b.lead_coeff() != 1:
                raise ValueError("basis elements must be monic monomials")
            m = b.lead_monomial()
            if any(m[nx:]):
                raise ValueError("basis elements must involve only x-variables")
            hint.append(m[:nx])
        if any(hint[0]):
            raise ValueError("the first basis element must be 1")
        F = f0
        for name, b in zip(params, basis_monomials):
            F = F + Polynomial.var(vt, name) * b
        ideal = ParamIdeal(tuple(F.diff(x) for x in vt.x_vars))
        gb = buchberger(ideal)
        qb = standard_basis(gb, ordering_hint=hint)
        return cls(f0, qb, params, F, gb, qb.mu)

    @property
    def vt(self):
        return self.f0.vt

    @property
    def u(self):
        return self.params[0]

    def basis_polys(self):
        return self.basis.polynomials()


@dataclass
class MulTables:
    """Structure constants of the quotient algebra.

    tau[l] is the mu x mu matrix whose (i, j) entry is the coefficient of
    basis element l in the product of basis elements i and j; zeta[r] is the
    trace of multiplication by basis element r.
    """

    tau: list
    zeta: list

    @property
    def mu(self):
        return len(self.tau)


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
    for t in tau:
        for row in t:
            for e in row:
                if e.degree_in(uname) > 0:
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


def mul_tables(spec):
    """Structure constants tau and traces zeta of the quotient algebra."""
    return MulTables(*structure_constants(spec.gb, spec.basis, spec.u))


@dataclass
class LogMatrix:
    """Rows of sigma are logarithmic vector fields of the discriminant.

    sigma is the weighted closed form when weights are known and the
    normal-form matrix sigma0 otherwise. The discriminant det(sigma) is
    computed on first access and cached: only the discriminant, logfields
    and maxwell commands read it.
    """

    sigma: PolyMatrix
    sigma0: PolyMatrix
    weighted: bool

    @cached_property
    def discriminant(self):
        return det_bareiss(self.sigma)


def log_matrix(spec, ws=None, tables=None):
    """Logarithmic matrix: the weight formula when weights are available,
    with the normal-form matrix sigma0 kept as the general-case form."""
    vt = spec.vt
    mu = spec.mu
    es = spec.basis_polys()
    rows0 = []
    for e in es:
        coords = coordinates(spec.F * e, spec.gb, spec.basis)
        rows0.append(coords)
    sigma0 = PolyMatrix(vt, rows0)
    if ws is None:
        return LogMatrix(sigma0, sigma0, False)
    if tables is None:
        tables = mul_tables(spec)
    svars = [Polynomial.var(vt, name) for name in spec.params]
    rows = []
    for i in range(mu):
        row = []
        for l in range(mu):
            acc = Polynomial.zero(vt)
            for j in range(mu):
                acc = acc + ws.s_weights[j] * svars[j] * tables.tau[l][i, j]
            row.append(acc)
        rows.append(row)
    sigma = PolyMatrix(vt, rows)
    if sigma != sigma0.scale(ws.wF):
        raise AssertionError("weighted logarithmic matrix disagrees with the "
                             "normal-form matrix")
    return LogMatrix(sigma, sigma0, True)


@dataclass
class TraceForms:
    T: PolyMatrix
    BF: PolyMatrix
    hvec: list
    eta: list
    BH: PolyMatrix
    BHF: PolyMatrix


def _hessian(F):
    xs = F.vt.x_vars
    return PolyMatrix(F.vt, [[F.diff(a).diff(b) for b in xs] for a in xs])


def hessian_determinant(spec):
    return det_bareiss(_hessian(spec.F))


def trace_forms(spec, ws, tables, logm):
    """Trace (Bezoutian) forms built from the structure constants."""
    T = tables_T(logm, tables)
    hvec = coordinates(hessian_determinant(spec), spec.gb, spec.basis)
    eta = mat_vec(T.entries, hvec)
    BH = PolyMatrix(spec.vt, tau_form([t.entries for t in tables.tau], eta))
    return TraceForms(T, logm.sigma * T, hvec, eta, BH, logm.sigma * BH)


def forms_at(tau, sigma, point):
    """tau, T and Sigma (P for complete intersections) at one parameter
    point, as row lists of rationals.

    Evaluation is a ring homomorphism, so every form built from these over
    Q equals the evaluated parametric form exactly.
    """
    tau = [t.values(point) for t in tau]
    return tau, tau_form(tau, traces(tau)), sigma.values(point)


def hessian_forms_at(spec, tau, T, sigma, point):
    """B^H and B^HF at one parameter point from the rationals of forms_at.
    The Hessian is specialised before its determinant is taken."""
    h = det_bareiss(_hessian(spec.F.evaluate(point)))
    hvec = [c.evaluate(point).constant_value()
            for c in coordinates(h, spec.gb, spec.basis)]
    BH = tau_form(tau, mat_vec(T, hvec))
    return BH, mat_mul(sigma, BH)


def maxwell_bifurcation(logm, tables, uname):
    """Bifurcation determinant and the Maxwell-set candidate factor.

    The Maxwell candidate is the u-discriminant of the discriminant with the
    maximal exact power of the squarefree core of det T divided out.
    """
    vt = logm.sigma.vt
    bifurcation = det_bareiss(tables_T(logm, tables))
    delta = logm.discriminant
    if delta.degree_in(uname) < 2:
        return bifurcation, Polynomial.const(vt, 1)
    disc = discriminant(delta, uname)
    if bifurcation.is_constant:
        return bifurcation, disc
    core = squarefree_core(bifurcation)
    candidate = disc
    while True:
        q = exact_divide(candidate, core)
        if q is None:
            break
        candidate = q
    return bifurcation, make_primitive(candidate)


def tables_T(logm, tables):
    """The trace form T as a polynomial matrix."""
    return PolyMatrix(logm.sigma.vt,
                      tau_form([t.entries for t in tables.tau], tables.zeta))


def multiplication_matrix(p, spec):
    """Matrix of multiplication by p on the quotient, columns in the basis."""
    es = spec.basis_polys()
    cols = [coordinates(p * e, spec.gb, spec.basis) for e in es]
    return PolyMatrix(spec.vt, [[cols[j][i] for j in range(spec.mu)]
                                for i in range(spec.mu)])


def trace_of_multiplication(p, spec):
    m = multiplication_matrix(p, spec)
    acc = Polynomial.zero(spec.vt)
    for i in range(spec.mu):
        acc = acc + m[i, i]
    return acc
