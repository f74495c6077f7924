import pytest

from logdisc.parse import parse_poly
from logdisc.poly import VarTable
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


class Bundle:
    """Fully computed hypersurface pipeline for one deformation."""

    def __init__(self, x_vars, s_vars, f0_text, basis_texts):
        self.vt = VarTable(tuple(x_vars), tuple(s_vars))
        self.f0 = parse_poly(f0_text, self.vt)
        basis = [parse_poly(b, self.vt) for b in basis_texts]
        self.spec = hyper.DeformationSpec.build(self.f0, basis, tuple(s_vars))
        self.ws = hyper.derive_weights(self.f0, self.spec.basis)
        self.tables = hyper.mul_tables(self.spec)
        self.logm = hyper.log_matrix(self.spec, self.ws, self.tables)
        self._tf = None

    @property
    def tf(self):
        if self._tf is None:
            self._tf = hyper.trace_forms(self.spec, self.tables, self.logm)
        return self._tf

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
