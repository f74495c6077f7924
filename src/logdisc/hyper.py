"""Hypersurface pipeline on the k = 1 complete-intersection algebra:
weights, the logarithmic matrix and discriminant, bifurcation and Maxwell
sets, Hessian trace forms."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .ci import (CISpec, NotQuasihomogeneousError, WeightSystem, ci_tables,
                 monomial_hint, trace_form, weight_system)
from .groebner import coordinates
from .matrix import PolyMatrix, det_bareiss, discriminant, mat_vec
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
        hint = monomial_hint(basis_monomials)
        if not hint or any(hint[0]):
            raise ValueError("the first basis element must be 1")
        F = f0
        for name, b in zip(params, basis_monomials):
            F = F + Polynomial.var(vt, name) * b
        return cls(f0, params, F,
                   ci_tables(CISpec((-F,), params), basis_hint=hint))

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
    traces zeta, the trace form T and the matrix P. Callers read
    ``spec.algebra``; this stays only for the benchmark's tracer, which
    wraps it by name, until per-layer counters replace the tracer."""
    return spec.algebra


@dataclass
class LogMatrix:
    """Rows of sigma are logarithmic vector fields of the discriminant.

    sigma = -wF * P, P the matrix of multiplication by the first map -F.
    The discriminant det(sigma) is computed on first access and cached:
    only the discriminant and logfields commands read it.
    """

    sigma: PolyMatrix

    @cached_property
    def discriminant(self):
        return det_bareiss(self.sigma)


def log_matrix(spec, ws, tables):
    """Logarithmic matrix sigma = -wF * P, once the Euler relation
    wF * F = sum_l w(s_l) * s_l * e_l is checked on the quotient's
    coordinates. multiplication_rows is linear in its vector and its row 0
    is that vector (e_0 = 1), so this is the matrix identity sigma =
    multiplication_rows(tau, [w(s_l) * s_l])."""
    euler = [w * Polynomial.var(spec.vt, name)
             for w, name in zip(ws.s_weights, spec.params)]
    if euler != [c * -ws.wF for c in tables.first_map_coords]:
        raise AssertionError("weighted logarithmic matrix disagrees with the "
                             "normal-form matrix")
    return LogMatrix(tables.P.scale(-ws.wF))


@dataclass
class TraceForms:
    T: PolyMatrix
    BH: PolyMatrix
    BHF: PolyMatrix


def hessian_determinant(F):
    """Determinant of F's Hessian in the x-variables: of the parametric F,
    or of F specialised at a point."""
    xs = F.vt.x_vars
    return det_bareiss(PolyMatrix(F.vt, [[F.diff(a).diff(b) for b in xs]
                                         for a in xs]))


def hessian_forms(tau, T, f, h):
    """B^H and the trace form of f h, f and h the coordinates of F (or of
    a multiple of F) and of the Hessian determinant, on row lists as
    ``trace_form``. (f h)_l = sum_ij f_i h_j tau^l_ij."""
    fh = [sum(x * y for x, y in zip(f, mat_vec(t, h))) for t in tau]
    return trace_form(tau, T, h), trace_form(tau, T, fh)


def trace_forms(spec, tables, logm):
    """Trace forms of the elements 1 (T), h (B^H, h the Hessian
    determinant) and wF * F * h (B^HF), wF * F's coordinates being row 0
    of sigma (e_0 = 1)."""
    h = coordinates(hessian_determinant(spec.F), spec.gb, spec.basis)
    T = tables.T
    BH, BHF = (PolyMatrix(spec.vt, m) for m in hessian_forms(
        [t.entries for t in tables.tau], T.entries, logm.sigma.entries[0], h))
    return TraceForms(T, BH, BHF)


def maxwell_bifurcation(tables, uname):
    """Bifurcation determinant and the Maxwell-set candidate factor.

    The Maxwell candidate is the u-discriminant of det P with the maximal
    exact power of the squarefree core of det T divided out. It needs no
    weights: det Sigma = (-wF)^mu * det P, disc_u(c * p) = c^(2 mu - 2) *
    disc_u(p), and make_primitive removes the constant.
    """
    bifurcation = det_bareiss(tables.T)
    disc = discriminant(det_bareiss(tables.P), uname)
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
