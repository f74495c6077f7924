import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import total_degree
from logdisc.hyper import DeformationSpec
from logdisc.matrix import det_bareiss
from logdisc.parse import parse_poly
from logdisc.poly import (Polynomial, VarTable, _coeffs_in, exact_divide,
                          make_primitive, monomial_div, poly_gcd,
                          squarefree_core)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

VT = VarTable(("x", "y"), ("a", "b"))


def p(text):
    return parse_poly(text, VT)


coeffs = st.integers(-4, 4)
expts = st.integers(0, 3)


@st.composite
def polys(draw, nterms=4):
    terms = {}
    for _ in range(draw(st.integers(0, nterms))):
        m = tuple(draw(expts) for _ in range(4))
        c = draw(coeffs)
        if c:
            terms[m] = terms.get(m, 0) + c
    return Polynomial(VT, {m: Fraction(c) for m, c in terms.items() if c})


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a + (b + c) == (a + b) + c
    assert a - a == Polynomial.zero(VT)
    # every result keeps the term invariant: nonzero Fraction coefficients
    results = [a + b, a - b, a - a, -a, a * b, (a + b) * c, a * 3,
               a * Fraction(-2, 3), a * 0, 2 - a, a ** 2, a.diff("x"),
               a.evaluate({"a": Fraction(1, 2)}), a.evaluate({"x": 0, "y": 1})]
    if b:
        results.append(exact_divide(a * b, b))
    for q in results:
        assert all(type(k) is tuple and len(k) == 4 for k in q.terms)
        assert all(type(v) is Fraction and v for v in q.terms.values())


@settings(max_examples=80, deadline=None)
@given(polys(), polys(), st.tuples(*[expts] * 4), coeffs)
@example(p("x - y"), p("x + y"), (0, 2, 0, 0), 1)   # x^2 - y^2 + y^2 = x^2
@example(p("x^2 + y"), p("x + 1"), (0, 2, 0, 0), -3)
def test_exact_divide_recovers_the_cofactor(a, b, rm, rc):
    assume(not b.is_zero)
    assert exact_divide(a * b, b) == a
    # a divisor whose coefficients are not integers: fractional quotients
    assert exact_divide(a * b, b * Fraction(2, 3)) == a * Fraction(3, 2)
    # a nonzero monomial that lm(b) does not divide is not a multiple of b
    # (b would have to be a monomial dividing it), so b does not divide
    # a*b + r; in the examples the bad term shows up only mid-division
    assume(rc and monomial_div(rm, b.lead_monomial()) is None)
    r = Polynomial(VT, {rm: rc})
    assert exact_divide(a * b + r, b) is None


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_leibniz_rule(a, b):
    for v in ("x", "y", "a"):
        assert (a * b).diff(v) == a * b.diff(v) + b * a.diff(v)


def test_partial_derivative_of_deformation():
    vt = VarTable(("x1", "x2"), ("u", "b", "c", "d"))
    F = parse_poly("x1^3 + x2^3 + u + b*x1*x2 + c*x1 + d*x2", vt)
    assert F.diff("x1") == parse_poly("3*x1^2 + b*x2 + c", vt)


def test_evaluate_partial_and_full():
    q = p("b^2*a")
    v = q.evaluate({"b": Fraction(-2, 5), "a": Fraction(1, 10)})
    assert v.constant_value() == Fraction(2, 125)
    half = q.evaluate({"b": Fraction(2)})
    assert half == p("4*a")


@settings(max_examples=60, deadline=None)
@given(polys(), st.lists(st.fractions(max_denominator=7), min_size=4,
                         max_size=4))
def test_value_at_matches_evaluate(q, values):
    full = dict(zip(VT.names, values))
    value = q.value_at(VT.resolve(full))
    assert type(value) is Fraction
    assert value == q.evaluate(full).constant_value()
    # a point that leaves a used variable free has no rational value
    partial = dict(zip(VT.names[1:], values))
    if any(m[0] for m in q.terms):
        with pytest.raises(ValueError):
            q.value_at(VT.resolve(partial))


def test_product_of_conjugates():
    assert p("x+y") * p("x-y") == p("x^2 - y^2")


def test_power_and_degree():
    q = p("x + 1")
    assert q ** 3 == p("x^3 + 3*x^2 + 3*x + 1")
    assert total_degree(q) == 1
    assert p("x^2*y").degree_in("x") == 2
    assert p("0").is_zero


def test_canonical_str_descending_degrevlex():
    assert str(p("1 + x + x^2")) == "x^2 + x + 1"
    assert str(p("-1/3*x*y + y^2")) == "-1/3*x*y + y^2"
    assert str(p("y^3 + x*y")) == "y^3 + x*y"
    assert str(Polynomial.zero(VT)) == "0"


def test_gcd_basic():
    g = poly_gcd(p("x^2 - 1"), p("x^2 - 2*x + 1"))
    assert g == p("x - 1")


def test_exact_divide():
    assert exact_divide(p("x^2 - 1"), p("x + 1")) == p("x - 1")
    assert exact_divide(p("x^2 + 1"), p("x + 1")) is None
    with pytest.raises(ZeroDivisionError):
        exact_divide(p("x"), Polynomial.zero(VT))


@settings(max_examples=40, deadline=None)
@given(polys(2), polys(2), polys(2))
def test_gcd_divides_both(a, b, c):
    q1, q2 = a * c, b * c
    if q1.is_zero or q2.is_zero:
        return
    g = poly_gcd(q1, q2)
    assert exact_divide(q1, g) is not None
    assert exact_divide(q2, g) is not None
    if not c.is_constant:
        assert not g.is_constant


def primitive_prs_pseudo_rem(a, b, i):
    """Pseudo-remainder of a by b in variable index i, scaled only by the
    steps taken."""
    cb = _coeffs_in(b, i)
    db = max(cb)
    var_mono = tuple(1 if j == i else 0 for j in range(a.vt.nvars))
    xv = Polynomial(a.vt, {var_mono: 1})
    r = a
    while True:
        cr = _coeffs_in(r, i)
        dr = max(cr) if cr else -1
        if dr < db:
            return r
        r = cb[db] * r - cr[dr] * xv ** (dr - db) * b


def primitive_prs_content(coeffs):
    g = None
    for c in coeffs.values():
        g = c if g is None else primitive_prs_gcd(g, c)
    return g


def primitive_prs_gcd(a, b):
    """The reference gcd: primitive PRS, dividing every remainder by its
    content in the main variable (Collins 1967)."""
    if a.is_zero:
        return make_primitive(b)
    if b.is_zero:
        return make_primitive(a)
    used_a, used_b = a.variables_used(), b.variables_used()
    if not used_a | used_b:
        return Polynomial.const(a.vt, 1)
    i = max(used_a | used_b)
    if i not in used_a or i not in used_b:
        if i in used_a:
            a, b = b, a
        return primitive_prs_gcd(a, primitive_prs_content(_coeffs_in(b, i)))
    ca = primitive_prs_content(_coeffs_in(a, i))
    cb = primitive_prs_content(_coeffs_in(b, i))
    cont = primitive_prs_gcd(ca, cb)
    f, g = exact_divide(a, ca), exact_divide(b, cb)
    if max(_coeffs_in(f, i)) < max(_coeffs_in(g, i)):
        f, g = g, f
    while True:
        r = primitive_prs_pseudo_rem(f, g, i)
        if r.is_zero:
            break
        r = exact_divide(r, primitive_prs_content(_coeffs_in(r, i)))
        f, g = g, r
        if i not in g.variables_used():
            return make_primitive(cont)
    g = exact_divide(g, primitive_prs_content(_coeffs_in(g, i)))
    return make_primitive(cont * g)


@st.composite
def polys_in(draw, nvars, nterms=3):
    """Polynomials in the first nvars variables of VT."""
    terms = {}
    for _ in range(draw(st.integers(1, nterms))):
        m = tuple(draw(st.integers(0, 2)) for _ in range(nvars))
        terms[m + (0,) * (4 - nvars)] = draw(coeffs)
    return Polynomial(VT, terms)


@st.composite
def planted_products(draw):
    nvars = draw(st.integers(2, 3))
    a, b, c = (draw(polys_in(nvars)) for _ in range(3))
    return a * c, b * c, c


@settings(max_examples=60, deadline=None)
@given(planted_products())
@example((p("x^2 - y^2"), p("x*a - y*a"), p("x - y")))
def test_gcd_matches_the_primitive_prs(planted):
    q1, q2, c = planted
    assume(not q1.is_zero and not q2.is_zero)
    g = poly_gcd(q1, q2)
    assert g == primitive_prs_gcd(q1, q2)
    assert exact_divide(g, make_primitive(c)) is not None


@pytest.mark.parametrize("x_vars,f0,basis", [
    (("x",), "x^6", ["1", "x", "x^2", "x^3", "x^4"]),
    (("x1", "x2"), "x1^2*x2 + x2^4", ["1", "x1", "x2", "x1^2", "x2^2"]),
], ids=["A5", "D5"])
def test_squarefree_core_of_det_T_mu5(x_vars, f0, basis):
    """det T of A5 and D5 is squarefree, so its core is itself, up to the
    rational content."""
    vt = VarTable(x_vars, ("u", "a", "b", "c", "d"))
    spec = DeformationSpec.build(parse_poly(f0, vt),
                                 [parse_poly(b, vt) for b in basis], vt.s_vars)
    det_t = det_bareiss(spec.algebra.T)
    start = time.monotonic()
    assert squarefree_core(det_t) == make_primitive(det_t)
    assert time.monotonic() - start < 20.0


def test_squarefree_core():
    q = p("x^2 - 2*x + 1") * p("x + 2")
    core = squarefree_core(q)
    assert exact_divide(core, p("x - 1")) is not None
    assert exact_divide(core, p("x + 2")) is not None
    assert core.degree_in("x") == 2


def test_exact_commands_do_not_load_numpy():
    code = ("import sys, logdisc.cli\n"
            "assert 'numpy' not in sys.modules\n"
            "assert logdisc.cli.main(['discriminant', 'fixtures/a2.ls']) == 0\n"
            "assert 'numpy' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "4/3*b^3 + 9*u^2\n"


def test_make_primitive():
    q = p("2/3*x + 4/3")
    assert make_primitive(q) == p("x + 2")
