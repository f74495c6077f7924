from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from logdisc import groebner
from logdisc.cli import LoadedSpec, read_input_file
from logdisc.groebner import (InfiniteQuotientError, NonConstantScaleError,
                              ParamIdeal, buchberger, coordinates,
                              reduce_poly, standard_basis)
from logdisc.parse import parse_poly
from logdisc.poly import Polynomial, VarTable, monomial_div

VT1 = VarTable(("x1", "x2"), ("u", "d", "c", "b"))
VT6 = VarTable(("x", "y"), ("u", "a", "b", "c", "d", "g"))


def jac1():
    g1 = parse_poly("3*x1^2 + b*x2 + c", VT1)
    g2 = parse_poly("3*x2^2 + b*x1 + d", VT1)
    return buchberger(ParamIdeal((g1, g2)))


def jac6():
    F = parse_poly("x^3 + y^4 + u + a*x + b*y + c*x*y + d*y^2 + g*x*y^2",
                   VT6)
    return buchberger(ParamIdeal((F.diff("x"), F.diff("y"))))


def test_example_generators_already_groebner():
    gb = jac1()
    assert len(gb.elements) == 2
    assert sorted(gb.lead_monomials) == [(0, 2), (2, 0)]
    qb = standard_basis(gb)
    assert qb.mu == 4
    assert sorted(qb.monomials) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_single_variable_ideal():
    vt = VarTable(("x",), ("u",))
    gb = buchberger(ParamIdeal((parse_poly("x", vt),)))
    qb = standard_basis(gb)
    assert qb.monomials == [(0,)]
    assert qb.mu == 1


def test_e6_mu_is_six():
    qb = standard_basis(jac6())
    assert qb.mu == 6


def test_normal_form_x2_squared():
    gb = jac1()
    cert = reduce_poly(parse_poly("x2^2", VT1), gb)
    assert cert.scale.is_constant
    assert cert.remainder * (1 / cert.scale.constant_value()) == \
        parse_poly("-1/3*d - 1/3*b*x1", VT1)


E6_REDUCTIONS = [
    ("x^2", "-1/3*g*y^2 - 1/3*c*y - 1/3*a"),
    ("y^3", "(-1/2*g*y - 1/4*c)*x - 1/2*d*y - 1/4*b"),
    ("x^2*y", "(1/12*g*c + 1/6*g^2*y)*x + 1/12*g*b - 1/3*c*y^2 "
              "+ (1/6*d*g - 1/3*a)*y"),
    ("x^2*y^2", "(1/6*g^2*y^2 + 1/4*g*c*y + 1/12*c^2)*x "
                "+ (1/6*d*g - 1/3*a)*y^2 + (1/12*g*b + 1/6*c*d)*y "
                "+ 1/12*c*b"),
    ("x*y^3", "((-1/2*d - 1/12*g^3)*y - 1/24*g^2*c - 1/4*b)*x "
              "+ 1/4*g*c*y^2 + (1/6*g*a + 1/12*c^2 - 1/12*g^2*d)*y "
              "- 1/24*g^2*b + 1/12*c*a"),
    ("x^2*y^3", "(1/4*g*c*y^2 + (1/6*g*a - 1/6*g^2*d + 1/12*c^2 "
                "- 1/72*g^5)*y - 1/144*g^4*c + 1/12*c*a - 1/24*g^2*b "
                "- 1/24*d*g*c)*x + (1/12*g*b + 1/6*c*d + 1/24*g^3*c)*y^2 "
                "+ (-1/72*g^4*d + 1/36*g^3*a + 1/6*a*d + 1/72*g^2*c^2 "
                "- 1/12*d^2*g + 1/12*c*b)*y + 1/72*g^2*c*a - 1/24*d*g*b "
                "- 1/144*g^4*b + 1/12*a*b"),
    ("x*y^4", "((-1/12*g^3 - 1/2*d)*y^2 + (-1/4*b - 1/6*g^2*c)*y "
              "- 1/16*g*c^2)*x + (1/12*c^2 - 1/12*g^2*d + 1/6*g*a)*y^2 "
              "+ (-1/24*g^2*b - 1/8*d*g*c + 1/12*c*a)*y - 1/16*g*c*b"),
    ("x^2*y^4", "((1/12*c^2 + 1/6*g*a - 1/72*g^5 - 1/6*g^2*d)*y^2 "
                "+ (-7/144*g^4*c - 1/12*g^2*b + 1/12*c*a - 1/4*d*g*c)*y "
                "- 1/12*g*c*b - 1/48*g^3*c^2 - 1/24*c^2*d)*x "
                "+ (1/6*a*d - 1/12*d^2*g + 1/36*g^3*a - 1/72*g^4*d "
                "+ 1/12*c*b + 11/144*g^2*c^2)*y^2 "
                "+ (-1/12*c*d^2 - 1/24*g^3*c*d + 1/12*a*b - 1/12*d*g*b "
                "+ 1/48*g*c^3 + 1/18*g^2*c*a - 1/144*g^4*b)*y "
                "- 1/48*g*b^2 - 1/24*c*d*b + 1/48*g*c^2*a "
                "- 1/48*g^3*c*b"),
]


@pytest.mark.parametrize("mono,expected", E6_REDUCTIONS,
                         ids=[m for m, _ in E6_REDUCTIONS])
def test_e6_normal_forms(mono, expected):
    gb = jac6()
    cert = reduce_poly(parse_poly(mono, VT6), gb)
    cert.require_constant_scale()
    got = cert.remainder * (1 / cert.scale.constant_value())
    assert got == parse_poly(expected, VT6)


def test_normal_form_of_one_is_trivial():
    gb = jac1()
    cert = reduce_poly(parse_poly("1", VT1), gb)
    assert cert.remainder == parse_poly("1", VT1)
    assert all(c.is_zero for c in cert.cofactors)
    assert cert.scale == parse_poly("1", VT1)


@st.composite
def vt1_polys(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        m = tuple(draw(st.integers(0, 3)) for _ in range(2)) + \
            tuple(draw(st.integers(0, 1)) for _ in range(4))
        c = draw(st.integers(-3, 3))
        if c:
            terms[m] = terms.get(m, 0) + Fraction(c)
    return Polynomial(VT1, {m: c for m, c in terms.items() if c})


@settings(max_examples=40, deadline=None)
@given(vt1_polys())
def test_certificate_identity(q):
    gb = jac1()
    cert = reduce_poly(q, gb)
    recon = cert.remainder
    for cof, g in zip(cert.cofactors, gb.elements):
        recon = recon + cof * g
    assert recon == cert.scale * q


@settings(max_examples=30, deadline=None)
@given(vt1_polys())
def test_normal_form_idempotent(q):
    gb = jac1()
    first = reduce_poly(q, gb)
    again = reduce_poly(first.remainder, gb)
    assert again.remainder == first.remainder
    assert again.scale.is_constant


@settings(max_examples=30, deadline=None)
@given(vt1_polys(), vt1_polys())
def test_normal_form_linear_over_parameters(q, r):
    gb = jac1()
    a = parse_poly("b - 2*c", VT1)
    lhs = reduce_poly(a * q + r, gb)
    nq = reduce_poly(q, gb)
    nr = reduce_poly(r, gb)
    assert lhs.scale.is_constant and nq.scale.is_constant \
        and nr.scale.is_constant
    s_l = lhs.scale.constant_value()
    assert lhs.remainder * (1 / s_l) == \
        a * nq.remainder * (1 / nq.scale.constant_value()) \
        + nr.remainder * (1 / nr.scale.constant_value())


def test_standard_basis_closed_under_division():
    qb = standard_basis(jac6())
    monos = set(tuple(m) for m in qb.monomials)
    for m in monos:
        for v in range(len(m)):
            if m[v] > 0:
                lower = m[:v] + (m[v] - 1,) + m[v + 1:]
                assert lower in monos


def test_mu_stable_under_specialization():
    point = {"d": Fraction(1, 2), "c": Fraction(-1, 3), "b": Fraction(2)}
    g1 = parse_poly("3*x1^2 + b*x2 + c", VT1).evaluate(point)
    g2 = parse_poly("3*x2^2 + b*x1 + d", VT1).evaluate(point)
    gb = buchberger(ParamIdeal((g1, g2)))
    assert standard_basis(gb).mu == 4


def test_infinite_quotient_reported():
    gb = buchberger(ParamIdeal((parse_poly("x1*x2", VT1),)))
    with pytest.raises(InfiniteQuotientError):
        standard_basis(gb)


def test_ordering_hint_must_be_permutation():
    gb = jac1()
    with pytest.raises(ValueError):
        standard_basis(gb, ordering_hint=[(0, 0), (1, 0), (0, 1), (2, 2)])
    qb = standard_basis(gb, ordering_hint=[(0, 0), (0, 1), (1, 0), (1, 1)])
    assert qb.monomials == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_nonconstant_scale_flagged():
    gb = buchberger(ParamIdeal((parse_poly("b*x1 + 1", VT1),
                                parse_poly("x2", VT1))))
    cert = reduce_poly(parse_poly("x1^2", VT1), gb)
    assert not cert.scale_is_constant
    with pytest.raises(NonConstantScaleError):
        cert.require_constant_scale()


@pytest.mark.parametrize("name", ["a1", "a2", "example1", "e6", "ci_k2",
                                  "ci_parabola"])
def test_constant_scale_is_one(monkeypatch, name):
    # every normal form behind a fixture's tables and first-map
    # coordinates: a certificate with a constant scale has scale 1, which
    # is why remainder_coordinates reads the coordinates off the remainder
    certs, reduce = [], groebner.reduce_poly

    def spy(p, gb):
        certs.append(reduce(p, gb))
        return certs[-1]

    monkeypatch.setattr(groebner, "reduce_poly", spy)
    loaded = LoadedSpec(read_input_file("fixtures/%s.ls" % name))
    loaded.algebra.first_map_coords
    constant = [c for c in certs if c.scale_is_constant]
    assert constant
    assert all(c.scale == Polynomial.const(loaded.vt, 1) for c in constant)


@settings(max_examples=40, deadline=None)
@given(vt1_polys())
def test_nonconstant_lead_certificate(q):
    # the lead b*x1 is not a constant: each step by it scales the certificate
    gb = buchberger(ParamIdeal((parse_poly("b*x1 + 1", VT1),
                                parse_poly("x2", VT1))))
    cert = reduce_poly(q, gb)
    recon = cert.remainder
    for cof, g in zip(cert.cofactors, gb.elements):
        recon = recon + cof * g
    assert recon == cert.scale * q
    for m in cert.remainder.terms:
        assert all(monomial_div(m[:VT1.nx], lm) is None
                   for lm in gb.lead_monomials)


def test_buchberger_completes_nontrivial_pair():
    gb = buchberger(ParamIdeal((parse_poly("x1*x2", VT1),
                                parse_poly("x1^2 - x2^2", VT1))))
    lms = sorted(gb.lead_monomials)
    assert (0, 3) in lms  # the S-polynomial contributes a pure power
    qb = standard_basis(gb)
    assert qb.mu == 4


def test_coordinates_in_quotient_basis():
    gb = jac1()
    qb = standard_basis(gb, ordering_hint=[(0, 0), (0, 1), (1, 0), (1, 1)])
    coords = coordinates(parse_poly("x2^2", VT1), gb, qb)
    assert [str(c) for c in coords] == ["-1/3*d", "0", "-1/3*b", "0"]
