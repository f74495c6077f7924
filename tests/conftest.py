from functools import cached_property

import pytest

from logdisc.matrix import PolyMatrix, _univariate, det_bareiss
from logdisc.parse import parse_poly
from logdisc.poly import Polynomial, VarTable
from logdisc import hyper


def is_symmetric(m):
    """Whether a PolyMatrix is square and equal to its transpose."""
    if m.rows != m.cols:
        return False
    return all(m.entries[i][j] == m.entries[j][i]
               for i in range(m.rows) for j in range(i))


def total_degree(p):
    if p.is_zero:
        return -1
    return max(sum(m) for m in p.terms)


def sylvester_matrix(p, q, name):
    """Sylvester matrix of p, q with respect to one variable; its
    determinant is the resultant."""
    cp = _univariate(p, name)
    cq = _univariate(q, name)
    n, m = len(cp) - 1, len(cq) - 1
    if n < 1 and m < 1:
        raise ValueError("both polynomials constant in %s" % name)
    size = n + m
    zero = Polynomial.zero(p.vt)
    rows = []
    for i in range(m):
        row = [zero] * size
        for j, c in enumerate(reversed(cp)):
            row[i + j] = c
        rows.append(row)
    for i in range(n):
        row = [zero] * size
        for j, c in enumerate(reversed(cq)):
            row[i + j] = c
        rows.append(row)
    return PolyMatrix(p.vt, rows)


class Bundle:
    """Fully computed hypersurface pipeline for one deformation."""

    def __init__(self, x_vars, s_vars, f0_text, basis_texts):
        self.vt = VarTable(tuple(x_vars), tuple(s_vars))
        self.f0 = parse_poly(f0_text, self.vt)
        basis = [parse_poly(b, self.vt) for b in basis_texts]
        self.spec = hyper.DeformationSpec.build(self.f0, basis, tuple(s_vars))
        self.tables = hyper.mul_tables(self.spec)
        self.ws = hyper.derive_weights(self.f0, self.tables.phi)
        self.sigma = hyper.log_matrix(self.spec, self.ws, self.tables)

    @cached_property
    def disc(self):
        """det Sigma, the discriminant."""
        return det_bareiss(self.sigma)

    @cached_property
    def tf(self):
        return hyper.trace_forms(self.spec, self.tables, self.sigma)

    def p(self, text):
        return parse_poly(text, self.vt)


@pytest.fixture(scope="session")
def ex1():
    return Bundle(("x1", "x2"), ("u", "d", "c", "b"),
                  "x1^3 + x2^3", ["1", "x2", "x1", "x1*x2"])


@pytest.fixture(scope="session")
def e6():
    return Bundle(("x", "y"), ("u", "a", "b", "c", "d", "g"),
                  "x^3 + y^4", ["1", "x", "y", "x*y", "y^2", "x*y^2"])


@pytest.fixture(scope="session")
def a1():
    return Bundle(("x",), ("u",), "x^2", ["1"])


@pytest.fixture(scope="session")
def a2():
    return Bundle(("x",), ("u", "b"), "x^3", ["1", "x"])
