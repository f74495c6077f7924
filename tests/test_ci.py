import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    qb = standard_basis(gb, ordering_hint=b.spec.monomials)
    return PolyMatrix(b.vt, [coordinates(F * e, gb, qb)
                             for e in qb.polynomials()])


def test_hypersurface_recast_matches_log_matrix(ex1, a2, e6):
    # Identities: the hypersurface algebra is ci_tables of this same
    # one-map family, so these hold by construction.
    spec = ci.hyper_to_ci(ex1.spec)
    assert spec.k == 1
    hint = ex1.spec.monomials
    tables = ci.ci_tables(spec, basis_hint=hint)
    assert tables.mu == ex1.tables.mu
    # P is the normal-form log matrix up to the weight factor and sign
    assert tables.P.scale(-3) == ex1.sigma
    detP, detT = det_bareiss(tables.P), det_bareiss(tables.T)
    assert ex1.disc == detP * 81
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
        tables = ci.ci_tables(spec, basis_hint=b.spec.monomials)
        detP = det_bareiss(tables.P)
        assert detP.degree_in("u") == mu
        origin = {name: Fraction(0) for name in spec.params[1:]}
        expected = Polynomial.var(b.vt, "u") ** mu
        assert detP.evaluate(origin) == expected


def test_first_map_coordinates_checked_free_of_u():
    tables = ci.ci_tables(k2_spec())
    assert len(tables.first_map_coords) == tables.mu
    u, x1 = Polynomial.var(VT2, "u"), Polynomial.var(VT2, "x1")
    # F_1 - u plus a term in u other than -u: P + u*Id is not free of u
    for extra in (u * u, u * x1):
        bad = dataclasses.replace(tables, first_map=tables.first_map + extra)
        with pytest.raises(AssertionError, match="free of u"):
            bad.first_map_coords
        with pytest.raises(AssertionError, match="free of u"):
            bad.P


def test_product_with_trace_form_is_symmetric(ex1):
    spec = ci.hyper_to_ci(ex1.spec)
    tables = ci.ci_tables(spec, basis_hint=ex1.spec.monomials)
    assert is_symmetric(tables.P * tables.T)


# ---------------------------------------------------------------------------
# a genuine two-map family: paraboloid height on the pair of axes


def test_two_map_family():
    spec = k2_spec()
    # one Jacobian minor, then the second map
    assert ci.minor_ideal(spec).generators == (
        parse_poly("2*x1^2 + t1*x1 - 2*x2^2", VT2), spec.maps[1])
    tables = ci.ci_tables(spec)
    assert tables.mu == 4
    assert sorted(tables.phi.monomials) == [(0, 0), (0, 1), (0, 2), (1, 0)]
    detP, detT = det_bareiss(tables.P), det_bareiss(tables.T)
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
    tables = ci.ci_tables(spec, basis_hint=a2.spec.monomials)
    ws = ci.ci_weights(spec)
    gm = ci.gm_coefficients(spec, tables, ws)
    assert gm.trM0 == 3
    assert gm.B[0] == PolyMatrix(a2.vt, [[a2.p("4"), a2.p("0")],
                                         [a2.p("0"), a2.p("5")]])
    assert gm.B[1] == PolyMatrix(a2.vt, [[a2.p("0"), a2.p("5")],
                                         [a2.p("-2*b"), a2.p("0")]])


def test_connection_coefficients_divergence_identity(ex1):
    # row i of B[j] lists trM0 * tau plus the quotient coordinates of the
    # divergence of phi_i*phi_j times the Euler field; column 0 against
    # phi_0 = 1 recovers trM0 + sum w(x_p) + weight(phi_i*phi_j) whenever
    # the product is a standard monomial
    spec = ci.hyper_to_ci(ex1.spec)
    tables = ci.ci_tables(spec, basis_hint=ex1.spec.monomials)
    ws = ci.ci_weights(spec)
    gm = ci.gm_coefficients(spec, tables, ws)
    assert gm.trM0 == 3
    # phi_0 * phi_0 = 1: divergence of the Euler field is w(x1) + w(x2) = 2
    assert gm.B[0][0, 0] == ex1.p("5")
    # B matrices are u-independent
    for Bj in gm.B:
        for i in range(4):
            for l in range(4):
                assert Bj[i, l].degree_in("u") <= 0


# ---------------------------------------------------------------------------
# the sparse symmetric contraction against dense references

VT_S = VarTable(("x",), ("u", "a"))


def dense_form(tau, coeffs, zero):
    """sum_l coeffs_l * tau^l, entry by entry over all mu^3 terms."""
    mu = len(tau)
    return [[sum((c * t[i][j] for c, t in zip(coeffs, tau)), zero)
             for j in range(mu)] for i in range(mu)]


def dense_rows(tau, coeffs, zero):
    """Row i: the coordinates of (sum_l coeffs_l e_l) * e_i."""
    mu = len(tau)
    return [[sum((c * tau[m][l][i] for l, c in enumerate(coeffs)), zero)
             for m in range(mu)] for i in range(mu)]


def dense_traces(tau, zero):
    return [sum((t[r][l] for l, t in enumerate(tau)), zero)
            for r in range(len(tau))]


def sparse(tau, zero):
    """The SparseTau of a dense symmetric tau."""
    mu = len(tau)
    pairs = [(i, j, tuple((l, t[i][j]) for l, t in enumerate(tau)
                          if t[i][j]))
             for i in range(mu) for j in range(i, mu)]
    return ci.SparseTau(mu, pairs, {}, zero)


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
param_polys = st.dictionaries(
    st.tuples(st.just(0), st.integers(0, 2), st.integers(0, 1)),
    st.integers(-2, 2), max_size=3).map(lambda d: Polynomial(VT_S, d))


@st.composite
def contractions(draw):
    """A symmetric tau over Q or over Q[u, a], with zero slices and zero
    entries, and coefficients with zeros, for mu from 1 to 6."""
    if draw(st.booleans()):
        entries, zero = small_rationals, Fraction(0)
    else:
        entries, zero = param_polys, Polynomial.zero(VT_S)
    entries = st.one_of(st.just(zero), entries)
    mu = draw(st.integers(1, 6))
    tau = [[[zero] * mu for _ in range(mu)] for _ in range(mu)]
    for l in range(mu):
        if draw(st.booleans()):
            continue  # a zero slice
        for i in range(mu):
            for j in range(i, mu):
                tau[l][i][j] = tau[l][j][i] = draw(entries)
    coeffs = draw(st.lists(entries, min_size=mu, max_size=mu))
    return tau, coeffs, zero


@settings(max_examples=150, deadline=None)
@given(contractions())
def test_sparse_contraction_equals_dense(case):
    tau, coeffs, zero = case
    sp = sparse(tau, zero)
    assert sp.dense() == tau
    assert ci.tau_form(sp, coeffs) == dense_form(tau, coeffs, zero)
    assert ci.multiplication_rows(sp, coeffs) == \
        dense_rows(tau, coeffs, zero)
    assert ci.traces(sp) == dense_traces(tau, zero)
    T = dense_form(tau, dense_traces(tau, zero), zero)
    assert ci.trace_form(sp, T, coeffs) == dense_form(
        tau, [sum((x * y for x, y in zip(row, coeffs)), zero) for row in T],
        zero)
    for rows in (ci.tau_form(sp, coeffs),
                 ci.multiplication_rows(sp, coeffs)):
        assert all(type(e) is type(zero) for row in rows for e in row)


def test_structure_constants_take_one_normal_form_per_product(e6):
    """e6 needs 9 normal forms for its 21 pairs; a product that is a basis
    monomial is a unit column."""
    tau = e6.tables.sparse_tau
    assert len(tau.pairs) == 21
    assert len(tau.normal_forms) == 9
    index = e6.tables.phi.index
    for i, j, col in tau.pairs:
        m = tuple(a + b for a, b in zip(e6.tables.phi.monomials[i],
                                        e6.tables.phi.monomials[j]))
        if m in index:
            assert col == ((index[m], Polynomial.const(e6.vt, 1)),)
        else:
            assert col is tau.normal_forms[m]
