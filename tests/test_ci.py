from fractions import Fraction

import pytest

from conftest import is_symmetric
from logdisc import ci
from logdisc.groebner import ParamIdeal, buchberger, coordinates, standard_basis
from logdisc.hyper import NotQuasihomogeneousError
from logdisc.matrix import PolyMatrix, det_bareiss
from logdisc.parse import parse_poly
from logdisc.poly import Polynomial, VarTable

VT2 = VarTable(("x1", "x2"), ("u", "t1"))


def k2_spec():
    maps = (parse_poly("x1^2 + x2^2 + t1*x1 - u", VT2),
            parse_poly("x1*x2", VT2))
    return ci.CISpec(maps, ("u", "t1"))


def pipeline(spec, hint=None):
    mi = ci.minor_ideal(spec)
    return mi, ci.ci_tables(spec, mi, basis_hint=hint)


# ---------------------------------------------------------------------------
# input validation


def test_first_map_must_carry_minus_u():
    with pytest.raises(ValueError):
        ci.CISpec((parse_poly("x1^2 + u", VT2),), ("u", "t1"))
    with pytest.raises(ValueError):
        ci.CISpec((parse_poly("x1^2", VT2),), ("u", "t1"))
    with pytest.raises(ValueError):
        ci.CISpec((parse_poly("x1^2 - u^2", VT2),), ("u", "t1"))
    with pytest.raises(ValueError):
        ci.CISpec((parse_poly("x1^2 - u*x1", VT2),), ("u", "t1"))


def test_u_forbidden_in_later_maps():
    with pytest.raises(ValueError):
        ci.CISpec((parse_poly("x1^2 - u", VT2),
                   parse_poly("x2^2 + u", VT2)), ("u", "t1"))


def test_more_maps_than_variables_rejected():
    vt = VarTable(("x",), ("u",))
    spec = ci.CISpec((parse_poly("x^2 - u", vt), parse_poly("x^3", vt)),
                     ("u",))
    with pytest.raises(ValueError):
        ci.minor_ideal(spec)


def test_u_must_be_first_parameter():
    with pytest.raises(ValueError):
        ci.CISpec((parse_poly("x1^2 - u", VT2),), ("t1", "u"))


# ---------------------------------------------------------------------------
# hypersurface recast as a one-map family


def jacobian_rows(b):
    """Rows coordinates(F * e_i) of multiplication by F, reduced by a
    Groebner basis of the partials of F built here, apart from the
    minor-ideal path."""
    F = b.spec.F
    gb = buchberger(ParamIdeal(tuple(F.diff(x) for x in b.vt.x_vars)))
    qb = standard_basis(gb, ordering_hint=b.spec.basis.monomials)
    return PolyMatrix(b.vt, [coordinates(F * e, gb, qb)
                             for e in qb.polynomials()])


def test_hypersurface_recast_matches_log_matrix(ex1, a2, e6):
    # Identities: the hypersurface algebra is ci_tables of this same
    # one-map family, so these hold by construction.
    spec = ci.hyper_to_ci(ex1.spec)
    assert spec.k == 1
    hint = ex1.spec.basis.monomials
    mi, tables = pipeline(spec, hint=hint)
    assert tables.mu == ex1.spec.mu
    # P is the normal-form log matrix up to the weight factor and sign
    assert tables.P.scale(-3) == ex1.logm.sigma
    detP, detT = ci.discriminant_and_bifurcation(tables)
    assert ex1.logm.discriminant == detP * 81
    assert detT == det_bareiss(ex1.tf.T)
    assert tables.T == ex1.tf.T
    assert tables.zeta == ex1.tables.zeta
    for w, t in zip(tables.tau, ex1.tables.tau):
        assert w == t
    # Evidence: -P is the matrix of multiplication by F on the Jacobian
    # quotient
    for b in (ex1, a2, e6):
        assert b.tables.P.scale(-1) == jacobian_rows(b)


def test_recast_discriminant_is_monic_in_u(ex1, a2):
    for b, mu in ((ex1, 4), (a2, 2)):
        spec = ci.hyper_to_ci(b.spec)
        mi, tables = pipeline(spec, hint=b.spec.basis.monomials)
        detP, _ = ci.discriminant_and_bifurcation(tables)
        assert detP.degree_in("u") == mu
        origin = {name: Fraction(0) for name in spec.params[1:]}
        expected = Polynomial.var(b.vt, "u") ** mu
        assert detP.evaluate(origin) == expected


def test_product_with_trace_form_is_symmetric(ex1):
    spec = ci.hyper_to_ci(ex1.spec)
    mi, tables = pipeline(spec, hint=ex1.spec.basis.monomials)
    assert is_symmetric(tables.P * tables.T)


# ---------------------------------------------------------------------------
# a genuine two-map family: paraboloid height on the pair of axes


def test_two_map_family():
    spec = k2_spec()
    mi = ci.minor_ideal(spec)
    assert len(mi.minors) == 1
    assert mi.minors[0] == parse_poly("2*x1^2 + t1*x1 - 2*x2^2", VT2)
    tables = ci.ci_tables(spec, mi)
    assert tables.mu == 4
    assert sorted(tables.phi.monomials) == [(0, 0), (0, 1), (0, 2), (1, 0)]
    detP, detT = ci.discriminant_and_bifurcation(tables)
    assert detP.degree_in("u") == 4
    # critical values of u = x1^2 + x2^2 + t1*x1 on the axes x1*x2 = 0:
    # u = 0 (both axes through the origin) and u = -t1^2/4 on the x1-axis
    at2 = detP.evaluate({"t1": Fraction(2)})
    assert at2.evaluate({"u": Fraction(0)}).is_zero
    assert at2.evaluate({"u": Fraction(-1)}).is_zero
    assert not at2.evaluate({"u": Fraction(5)}).is_zero
    for w in tables.tau:
        assert is_symmetric(w)
    assert is_symmetric(tables.T)
    # P, read off tau, against the normal forms of F_1 - u times the basis
    assert tables.P == PolyMatrix(VT2, [
        coordinates(spec.maps[0] * phi, tables.gb, tables.phi)
        for phi in tables.phi.polynomials()])


# ---------------------------------------------------------------------------
# weights


def test_weights_recast_families(ex1, e6):
    ws1 = ci.ci_weights(ci.hyper_to_ci(ex1.spec))
    assert ws1.x_weights == (1, 1) and ws1.f_weights == (3,)
    ws6 = ci.ci_weights(ci.hyper_to_ci(e6.spec))
    assert ws6.x_weights == (4, 3) and ws6.f_weights == (12,)


def test_weights_two_map_family():
    ws = ci.ci_weights(k2_spec())
    assert ws.x_weights == (1, 1)
    assert ws.f_weights == (2, 2)


def test_weights_incompatible_maps_rejected():
    spec = ci.CISpec((parse_poly("x1^2 + x1*x2 + x2^3 - u", VT2),),
                     ("u", "t1"))
    with pytest.raises(NotQuasihomogeneousError):
        ci.ci_weights(spec)


# ---------------------------------------------------------------------------
# connection coefficients


def test_connection_coefficients_cusp(a2):
    spec = ci.hyper_to_ci(a2.spec)
    mi, tables = pipeline(spec, hint=a2.spec.basis.monomials)
    ws = ci.ci_weights(spec)
    gm = ci.gm_coefficients(spec, tables, ws)
    assert gm.trM0 == 3
    assert gm.B[0] == PolyMatrix(a2.vt, [[a2.p("4"), a2.p("0")],
                                         [a2.p("0"), a2.p("5")]])
    assert gm.B[1] == PolyMatrix(a2.vt, [[a2.p("0"), a2.p("5")],
                                         [a2.p("-2*b"), a2.p("0")]])


def test_connection_coefficients_divergence_identity(ex1):
    # row i of R[j] lists the quotient coordinates of the divergence of
    # phi_i*phi_j times the Euler field; column 0 against phi_0 = 1 recovers
    # trM0 + weight(phi_i*phi_j) whenever the product is a standard monomial
    spec = ci.hyper_to_ci(ex1.spec)
    mi, tables = pipeline(spec, hint=ex1.spec.basis.monomials)
    ws = ci.ci_weights(spec)
    gm = ci.gm_coefficients(spec, tables, ws)
    assert gm.trM0 == 3
    # phi_0 * phi_0 = 1: divergence of the Euler field is nx = 2
    assert gm.R[0][0, 0] == ex1.p("2")
    # B matrices are u-independent
    for Bj in gm.B:
        for i in range(4):
            for l in range(4):
                assert Bj[i, l].degree_in("u") <= 0
