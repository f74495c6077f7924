"""Exact inertia of symmetric rational matrices, by symmetric elimination
over Q (Sylvester's law of inertia), and the signature-based
critical-point counts and Euler characteristics."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


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


def inertia(m):
    """Exact inertia by symmetric elimination over Q.

    Each step is a congruence, which by Sylvester's law of inertia keeps
    the triple: pivot on a nonzero diagonal entry d, count its sign and go
    on with the Schur complement. When every remaining diagonal entry is
    zero but some a_ij is not, adding row and column j to row and column i
    first makes a_ii = 2 a_ij. The elimination stops at a zero block.
    """
    a = [list(row) for row in m.entries]
    n_plus = n_minus = 0
    while a:
        k = next((i for i, row in enumerate(a) if row[i]), None)
        if k is None:
            ij = next(((i, j) for i, row in enumerate(a)
                       for j, e in enumerate(row) if e), None)
            if ij is None:
                break
            k, j = ij
            for row in a:
                row[k] += row[j]
            a[k] = [x + y for x, y in zip(a[k], a[j])]
        d = a[k][k]
        if d > 0:
            n_plus += 1
        else:
            n_minus += 1
        pivot = a.pop(k)
        del pivot[k]
        for row in a:
            c = row.pop(k) / d
            if c:
                row[:] = [x - c * y for x, y in zip(row, pivot)]
    return InertiaTriple(n_plus, n_minus, m.size - n_plus - n_minus)


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
