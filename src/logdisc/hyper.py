"""Hypersurface pipeline on the k = 1 complete-intersection algebra:
weights, the logarithmic matrix and discriminant, bifurcation and Maxwell
sets, Hessian trace forms."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .ci import (CISpec, NotQuasihomogeneousError, WeightSystem, ci_tables,
                 minor_ideal, multiplication_rows, tau_form, traces,
                 weight_system)
from .groebner import coordinates
from .matrix import PolyMatrix, det_bareiss, discriminant, mat_mul, mat_vec
from .poly import Polynomial, exact_divide, make_primitive, squarefree_core


def derive_weights(f0, basis=None):
    """Smallest positive integer weights under which f0, its constant term
    included, is quasihomogeneous."""
    if f0.is_zero:
        raise ValueError("zero polynomial has no weight system")
    nx = f0.vt.nx
    ws = weight_system([sorted({m[:nx] for m in f0.terms})], nx)
    if ws is None:
        raise NotQuasihomogeneousError(
            "no positive integer weights make %s quasihomogeneous" % f0)
    if basis is not None:
        ws.s_weights = tuple(ws.wF - ws.monomial_weight(m)
                             for m in basis.monomials)
    return ws


@dataclass
class DeformationSpec:
    """Versal deformation F = f0 + sum(s_i * e_i) with e_0 = 1, s_0 = u.

    algebra is the quotient algebra of the one-map family -F = F_1 - u
    (``ci.ci_tables``) in the basis order given; the Jacobian ideal of F
    is its minor ideal."""

    f0: Polynomial
    params: tuple        # parameter names, one per basis element
    F: Polynomial
    algebra: object      # ci.CITables

    @classmethod
    def build(cls, f0, basis_monomials, params):
        vt = f0.vt
        params = tuple(params)
        if len(params) != len(basis_monomials):
            raise ValueError("need one parameter per basis element")
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
        cspec = CISpec((-F,), params)
        return cls(f0, params, F,
                   ci_tables(cspec, minor_ideal(cspec), basis_hint=hint))

    @property
    def vt(self):
        return self.f0.vt

    @property
    def u(self):
        return self.params[0]

    @property
    def gb(self):
        return self.algebra.gb

    @property
    def basis(self):
        """QuotientBasis in the paper's row/column order."""
        return self.algebra.phi

    @property
    def mu(self):
        return self.algebra.mu


def mul_tables(spec):
    """The quotient algebra built with the spec: structure constants tau,
    traces zeta, the trace form T and the matrix P."""
    return spec.algebra


@dataclass
class LogMatrix:
    """Rows of sigma are logarithmic vector fields of the discriminant.

    sigma is the weighted closed form and sigma0 = -P the normal-form
    matrix of multiplication by F; sigma = wF * sigma0. The discriminant
    det(sigma) is computed on first access and cached: only the
    discriminant, logfields and maxwell commands read it.
    """

    sigma: PolyMatrix
    sigma0: PolyMatrix

    @cached_property
    def discriminant(self):
        return det_bareiss(self.sigma)


def log_matrix(spec, ws, tables):
    """Logarithmic matrix by the weight formula, checked against the
    normal-form matrix sigma0 = -P."""
    sigma0 = tables.P.scale(-1)
    euler = [w * Polynomial.var(spec.vt, name)
             for w, name in zip(ws.s_weights, spec.params)]
    sigma = PolyMatrix(spec.vt, multiplication_rows(
        [t.entries for t in tables.tau], euler))
    if sigma != sigma0.scale(ws.wF):
        raise AssertionError("weighted logarithmic matrix disagrees with the "
                             "normal-form matrix")
    return LogMatrix(sigma, sigma0)


@dataclass
class TraceForms:
    T: PolyMatrix
    BF: PolyMatrix
    BH: PolyMatrix
    BHF: PolyMatrix


def _hessian(F):
    xs = F.vt.x_vars
    return PolyMatrix(F.vt, [[F.diff(a).diff(b) for b in xs] for a in xs])


def hessian_determinant(spec):
    return det_bareiss(_hessian(spec.F))


def trace_forms(spec, tables, logm):
    """Trace (Bezoutian) forms built from the structure constants."""
    T = tables.T
    hvec = coordinates(hessian_determinant(spec), spec.gb, spec.basis)
    BH = PolyMatrix(spec.vt, tau_form([t.entries for t in tables.tau],
                                      mat_vec(T.entries, hvec)))
    return TraceForms(T, logm.sigma * T, BH, logm.sigma * BH)


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
    at = spec.vt.resolve(point)
    hvec = [c.value_at(at) for c in coordinates(h, spec.gb, spec.basis)]
    BH = tau_form(tau, mat_vec(T, hvec))
    return BH, mat_mul(sigma, BH)


def maxwell_bifurcation(logm, tables, uname):
    """Bifurcation determinant and the Maxwell-set candidate factor.

    The Maxwell candidate is the u-discriminant of the discriminant with the
    maximal exact power of the squarefree core of det T divided out.
    """
    vt = logm.sigma.vt
    bifurcation = det_bareiss(tables.T)
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
