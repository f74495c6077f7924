"""Exact inertia of symmetric rational matrices and the signature-based
critical-point counts and Euler characteristics."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .matrix import PolyMatrix, det_bareiss
from .poly import Polynomial, VarTable


class DegeneratePointError(ValueError):
    """The symmetric form is singular at this parameter point."""


@dataclass(frozen=True)
class SymMatrixQ:
    """Symmetric matrix of rationals."""

    entries: tuple

    def __post_init__(self):
        rows = tuple(tuple(Fraction(e) for e in row) for row in self.entries)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("matrix must be symmetric")
        object.__setattr__(self, "entries", rows)

    @property
    def size(self):
        return len(self.entries)

    @classmethod
    def from_poly_matrix(cls, pm, assignment):
        return cls(pm.values(assignment))


@dataclass(frozen=True)
class InertiaTriple:
    n_plus: int
    n_minus: int
    n_zero: int

    @property
    def signature(self):
        return self.n_plus - self.n_minus

    @property
    def degenerate(self):
        return self.n_zero > 0


_LAM = VarTable(("lam",))


def char_poly_coeffs(m):
    """Coefficients of det(lam*I - m), degree ascending, exact."""
    n = m.size
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = {}
            if i == j:
                terms[(1,)] = Fraction(1)
            v = -m.entries[i][j]
            if v:
                terms[(0,)] = terms.get((0,), 0) + v
            row.append(Polynomial(_LAM, terms))
        entries.append(row)
    det = det_bareiss(PolyMatrix(_LAM, entries))
    return [det.terms.get((k,), Fraction(0)) for k in range(n + 1)]


def _sign_variations(coeffs):
    signs = [c for c in coeffs if c]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def inertia(m):
    """Exact inertia via the characteristic polynomial and Descartes counts.

    The characteristic polynomial of a symmetric matrix has only real
    roots, so Descartes' rule is exact here.
    """
    coeffs = char_poly_coeffs(m)
    n_zero = next(k for k, c in enumerate(coeffs) if c)
    reduced = coeffs[n_zero:]
    n_plus = _sign_variations(list(reversed(reduced)))
    neg = [c if k % 2 == 0 else -c for k, c in enumerate(reduced)]
    n_minus = _sign_variations(list(reversed(neg)))
    return InertiaTriple(n_plus, n_minus, n_zero)


def critical_count(tri):
    """Signed count of real critical points: the signature of the inertia
    triple of Sigma*T (or P*T) at a parameter point off the discriminant."""
    if tri.degenerate:
        raise DegeneratePointError(
            "the trace form is degenerate here (n_zero=%d); the parameter "
            "point lies on the discriminant or bifurcation set" % tri.n_zero)
    return tri.signature


@dataclass(frozen=True)
class ChiReport:
    chi_ge: int
    chi_le: int
    chi_eq: int
    BH: InertiaTriple
    BHF: InertiaTriple


def euler_characteristics(bh, bhf, n):
    """Euler characteristics of the regions F >= 0, F <= 0 and F = 0 in a
    ball containing all real critical points, with the inertia of B^H and
    B^HF they are read from.

    Absolute values are fixed by additivity over the ball:
    chi_ge + chi_le - chi_eq = 1. That closure holds by construction, so
    checking it is an identity, not evidence.
    """
    ti_h = inertia(bh)
    ti_hf = inertia(bhf)
    if ti_h.degenerate or ti_hf.degenerate:
        raise DegeneratePointError(
            "B^H or B^HF is degenerate at this parameter point")
    s_h = ti_h.signature
    s_hf = ti_hf.signature
    if (s_h + s_hf) % 2:
        raise ArithmeticError(
            "parity violation: sign(B^H)+sign(B^HF) is odd; upstream bug or "
            "degenerate point")
    a = (s_h + s_hf) // 2
    b = (s_h - s_hf) // 2
    if n % 2:
        b = -b
    chi_eq = 1 - a - b
    return ChiReport(chi_ge=1 - b, chi_le=1 - a, chi_eq=chi_eq,
                     BH=ti_h, BHF=ti_hf)
