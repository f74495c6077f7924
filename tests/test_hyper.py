from fractions import Fraction

import pytest

from conftest import is_symmetric, sylvester_matrix
from logdisc import ci, hyper
from logdisc.cli import LoadedSpec, read_input_file
from logdisc.groebner import coordinates
from logdisc.matrix import PolyMatrix, det_bareiss, discriminant, mat_mul
from logdisc.parse import parse_poly
from logdisc.poly import Polynomial, VarTable, exact_divide, make_primitive


def mat(bundle, rows):
    return PolyMatrix(bundle.vt,
                      [[bundle.p(e) for e in row] for row in rows])


def same_up_to_sign(a, b):
    return a == b or a == -b


def basis_polys(tables):
    return tables.phi.polynomials()


def multiplication_matrix(p, tables):
    """Matrix of multiplication by p on the quotient, columns in the basis:
    normal forms of p * e_j, independent of the structure constants."""
    es = basis_polys(tables)
    cols = [coordinates(p * e, tables.gb, tables.phi) for e in es]
    return PolyMatrix(p.vt, [[cols[j][i] for j in range(tables.mu)]
                             for i in range(tables.mu)])


def trace_of_multiplication(p, tables):
    m = multiplication_matrix(p, tables)
    acc = Polynomial.zero(p.vt)
    for i in range(tables.mu):
        acc = acc + m[i, i]
    return acc


# ---------------------------------------------------------------------------
# weight systems


def test_weights_cusp_pair(ex1):
    assert ex1.ws.x_weights == (1, 1)
    assert ex1.ws.wF == 3
    assert ex1.ws.s_weights == (3, 2, 2, 1)


def test_weights_deep_singularity(e6):
    assert e6.ws.x_weights == (4, 3)
    assert e6.ws.wF == 12
    assert e6.ws.s_weights == (12, 8, 9, 5, 6, 2)


def test_weights_one_variable(a1, a2):
    assert a1.ws.x_weights == (1,) and a1.ws.wF == 2
    assert a1.ws.s_weights == (2,)
    assert a2.ws.s_weights == (3, 2)


def test_not_quasihomogeneous():
    vt = VarTable(("x",), ("u",))
    f = parse_poly("x^3 + x^2", vt)
    with pytest.raises(hyper.NotQuasihomogeneousError):
        hyper.derive_weights(f)


# ---------------------------------------------------------------------------
# structure constants, two-variable example with basis (1, x2, x1, x1*x2)


def test_structure_constants(ex1):
    tau = ex1.tables.tau
    assert tau[0] == mat(ex1, [
        ["1", "0", "0", "0"],
        ["0", "-1/3*d", "0", "1/9*b*c"],
        ["0", "0", "-1/3*c", "1/9*b*d"],
        ["0", "1/9*b*c", "1/9*b*d", "1/9*d*c"]])
    assert tau[1] == mat(ex1, [
        ["0", "1", "0", "0"],
        ["1", "0", "0", "1/9*b^2"],
        ["0", "0", "-1/3*b", "-1/3*c"],
        ["0", "1/9*b^2", "-1/3*c", "1/9*b*d"]])
    assert tau[2] == mat(ex1, [
        ["0", "0", "1", "0"],
        ["0", "-1/3*b", "0", "-1/3*d"],
        ["1", "0", "0", "1/9*b^2"],
        ["0", "-1/3*d", "1/9*b^2", "1/9*b*c"]])
    assert tau[3] == mat(ex1, [
        ["0", "0", "0", "1"],
        ["0", "0", "1", "0"],
        ["0", "1", "0", "0"],
        ["1", "0", "0", "1/9*b^2"]])


def test_structure_constants_symmetric_and_unital(ex1, e6):
    for b in (ex1, e6):
        for l, t in enumerate(b.tables.tau):
            assert is_symmetric(t)
            for j in range(b.tables.mu):
                # multiplying by the identity element reproduces coordinates
                assert t[0, j] == (b.p("1") if j == l else b.p("0"))


def test_traces_of_basis_elements(ex1):
    assert [str(z) for z in ex1.tables.zeta] == \
        ["4", "0", "0", "1/3*b^2"]


# ---------------------------------------------------------------------------
# logarithmic matrix


def weighted_log_matrix(b):
    """The weighted closed form: multiplication by sum_l w(s_l) * s_l,
    built from tau apart from log_matrix's Euler-relation check."""
    euler = [w * b.p(name) for w, name in zip(b.ws.s_weights, b.spec.params)]
    return PolyMatrix(b.vt, ci.multiplication_rows(b.tables.sparse_tau,
                                                   euler))


def test_log_matrix_weighted_agrees_with_normal_form(ex1):
    assert ex1.sigma == weighted_log_matrix(ex1)
    assert ex1.sigma == ex1.tables.P.scale(-3)


def test_log_matrix_refuses_a_wrong_weight(ex1):
    s_weights = list(ex1.ws.s_weights)
    s_weights[2] += 1
    wrong = hyper.WeightSystem(ex1.ws.x_weights, ex1.ws.f_weights,
                               tuple(s_weights))
    with pytest.raises(AssertionError, match="disagrees"):
        hyper.log_matrix(ex1.spec, wrong, ex1.tables)


def test_log_matrix_entries(ex1):
    assert ex1.sigma == mat(ex1, [
        ["3*u", "2*d", "2*c", "b"],
        ["-2/3*d^2 + 1/9*b^2*c", "3*u + 1/9*b^3", "-b*d", "2*c"],
        ["-2/3*c^2 + 1/9*b^2*d", "-b*c", "3*u + 1/9*b^3", "2*d"],
        ["5/9*b*c*d", "-2/3*c^2 + 1/3*b^2*d", "-2/3*d^2 + 1/3*b^2*c",
         "3*u + 1/9*b^3"]])


def test_log_matrix_minimal_example(a1):
    assert a1.sigma == mat(a1, [["2*u"]])
    assert a1.disc == a1.p("2*u")


def test_discriminant_weierstrass_shape(ex1):
    disc = ex1.disc
    mu = ex1.tables.mu
    assert disc.degree_in("u") == mu
    # leading u-coefficient is wF^mu; lower coefficients never involve u
    lead = ex1.p("81*u^4")
    for m, c in disc.terms.items():
        if m[ex1.vt.index("u")] == mu:
            assert c == Fraction(81) and ex1.p("0").vt  # single term
    assert disc.evaluate({"d": Fraction(0), "c": Fraction(0),
                          "b": Fraction(0)}) == lead


def test_discriminant_matches_elimination_oracle(a2):
    # eliminating x from (F, dF/dx) yields the same vanishing locus
    F = parse_poly("x^3 + u + b*x", a2.vt)
    res = det_bareiss(sylvester_matrix(F, F.diff("x"), "x"))
    assert same_up_to_sign(make_primitive(res),
                           make_primitive(a2.disc))


def test_discriminant_closed_form(ex1):
    assert ex1.disc == ex1.p(
        "8/3*b^2*c^4*d - 1/243*b^8*c*d + 8/3*d^4*c*b^2 "
        "+ 23/27*b^4*d^2*c^2 + 32*u*b*c^2*d^2 - 11/9*u*b^5*c*d "
        "- 30*u^2*b^2*d*c - 1/243*b^6*d^3 - 1/243*b^6*c^3 "
        "- 32/9*d^3*c^3 + 24*u^2*d^3 + 1/3*u^2*b^6 + 9*u^3*b^3 "
        "+ 1/243*u*b^9 - 20/9*u*c^3*b^3 - 20/9*u*b^3*d^3 + 24*c^3*u^2 "
        "+ 81*u^4 + 16/9*d^6 + 16/9*c^6")


def test_discriminant_of_discriminant_in_u(ex1):
    got = discriminant(ex1.disc, "u")
    assert got == ex1.p(
        "27*(d - c)^2*(d^2 + d*c + c^2)^2"
        "*(256*b^2*d^3 + 768*d^2*c^2 + 96*b^4*d*c - b^8 + 256*c^3*b^2)^3")


@pytest.mark.parametrize("path", ["fixtures/example1.ls",
                                  "perfbench/families/a4.ls",
                                  "perfbench/families/d4.ls"])
def test_disc_u_is_the_trace_hankel_determinant(path):
    """det Sigma = wF^mu det(u Id - M) with M = P + u Id free of u, so its
    roots in u are the eigenvalues of M, whose power sums are tr M^k:
    disc_u(det Sigma) = wF^(mu(2mu - 2)) det[tr M^(i+j)]."""
    loaded = LoadedSpec(read_input_file(path))
    spec, algebra = loaded.spec, loaded.algebra
    mu, vt = algebra.mu, loaded.vt
    u = Polynomial.var(vt, "u")
    M = [[e + u if i == j else e for j, e in enumerate(row)]
         for i, row in enumerate(algebra.P.entries)]
    assert all(e.degree_in("u") <= 0 for row in M for e in row)
    power = [[Polynomial.const(vt, int(i == j)) for j in range(mu)]
             for i in range(mu)]
    traces = []
    for _ in range(2 * mu - 1):
        traces.append(sum(power[i][i] for i in range(mu)))
        power = mat_mul(power, M)
    hankel = det_bareiss(PolyMatrix(vt, [traces[i:i + mu]
                                         for i in range(mu)]))
    wF = hyper.derive_weights(spec.f0).wF
    assert (discriminant(det_bareiss(loaded.sigma), "u")
            == hankel * wF ** (mu * (2 * mu - 2)))


def test_log_rows_are_tangent_to_discriminant(ex1):
    sigma = ex1.sigma
    disc = ex1.disc
    for i in range(ex1.tables.mu):
        acc = ex1.p("0")
        for l, name in enumerate(ex1.spec.params):
            acc = acc + sigma[i, l] * disc.diff(name)
        assert exact_divide(acc, disc) is not None


def test_euler_identity(ex1):
    disc = ex1.disc
    acc = ex1.p("0")
    for name, w in zip(ex1.spec.params, ex1.ws.s_weights):
        acc = acc + w * ex1.p(name) * disc.diff(name)
    assert acc == disc * (ex1.tables.mu * ex1.ws.wF)


# ---------------------------------------------------------------------------
# trace forms


def test_trace_form_entries_via_multiplication_traces(ex1):
    tf = ex1.tf
    BF = ex1.sigma * tf.T
    es = basis_polys(ex1.tables)
    h = hyper.hessian_determinant(ex1.spec.F)
    F = ex1.spec.F
    mu = ex1.tables.mu
    wF = ex1.ws.wF
    for i in range(mu):
        for j in range(mu):
            eij = es[i] * es[j]
            assert tf.T[i, j] == trace_of_multiplication(eij, ex1.tables)
            assert tf.BH[i, j] == \
                trace_of_multiplication(h * eij, ex1.tables)
            # the weighted log matrix carries a factor wF into the F-forms
            assert BF[i, j] == \
                trace_of_multiplication(F * eij, ex1.tables) * wF
            assert tf.BHF[i, j] == \
                trace_of_multiplication(F * h * eij, ex1.tables) * wF


def test_trace_forms_symmetric(ex1, e6):
    for b in (ex1, e6):
        for m in (b.tf.T, b.sigma * b.tf.T, b.tf.BH, b.tf.BHF):
            assert is_symmetric(m)


def test_trace_forms_u_independent_except_F_weighted(ex1):
    tf = ex1.tf
    BF = ex1.sigma * tf.T
    mu = ex1.tables.mu
    for i in range(mu):
        for j in range(mu):
            assert tf.T[i, j].degree_in("u") <= 0
            assert tf.BH[i, j].degree_in("u") <= 0
            assert BF[i, j].degree_in("u") <= 1
            assert tf.BHF[i, j].degree_in("u") <= 1


def test_trace_forms_factor_through_log_matrix(ex1):
    tf = ex1.tf
    assert tf.BHF == ex1.sigma * tf.BH


def test_hessian_trace_form(ex1):
    assert ex1.tf.BH == mat(ex1, [
        ["8*b^2", "16*b*c", "16*b*d", "b^4 + 16*d*c"],
        ["16*b*c", "-8*b^2*d", "b^4 + 16*d*c",
         "8/3*b^3*c - 16/3*b*d^2"],
        ["16*b*d", "b^4 + 16*d*c", "-8*b^2*c",
         "8/3*b^3*d - 16/3*b*c^2"],
        ["b^4 + 16*d*c", "8/3*b^3*c - 16/3*b*d^2",
         "8/3*b^3*d - 16/3*b*c^2", "56/9*b^2*d*c + 1/9*b^6"]])


def test_hessian_trace_form_determinant(ex1):
    det = det_bareiss(ex1.tf.BH)
    inner = ex1.p("256*b^2*d^3 + 768*d^2*c^2 + 96*b^4*d*c - b^8 "
                  "+ 256*c^3*b^2")
    assert det == inner * inner * Fraction(1, 9)


def test_mixed_trace_form(ex1):
    e12 = "-64/3*d^2*b^2 + 14/3*b^4*c + 48*u*b*c + 32*d*c^2"
    e13 = "-64/3*c^2*b^2 + 14/3*b^4*d + 48*u*b*d + 32*d^2*c"
    e14 = ("152/9*b^3*d*c - 32/3*b*c^3 - 32/3*b*d^3 + 3*u*b^4 "
           "+ 48*u*d*c + 1/9*b^7")
    e34 = ("-106/27*c^2*b^4 - 32/3*c^3*d + 17/27*b^6*d "
           "+ 176/9*b^2*c*d^2 + 8*u*b^3*d - 16*u*b*c^2")
    # entry (2, 4) is the mirror of (3, 4) under exchanging c and d
    e24 = ("-106/27*d^2*b^4 - 32/3*d^3*c + 17/27*b^6*c "
           "+ 176/9*b^2*d*c^2 + 8*u*b^3*c - 16*u*b*d^2")
    assert ex1.tf.BHF == mat(ex1, [
        ["24*u*b^2 + 80*b*c*d + b^5", e12, e13, e14],
        [e12, "-112/3*b*c*d^2 + 64/9*b^3*c^2 - 24*b^2*d*u - 17/9*b^5*d",
         e14, e24],
        [e13, e14,
         "-112/3*b*d*c^2 + 64/9*b^3*d^2 - 17/9*b^5*c - 24*b^2*c*u", e34],
        [e14, e24, e34,
         "245/81*b^5*c*d + 16*b*c^2*d^2 - 32/9*c^3*b^3 - 32/9*b^3*d^3 "
         "+ 56/3*u*b^2*d*c + 1/3*u*b^6 + 1/81*b^9"]])


# ---------------------------------------------------------------------------
# bifurcation and self-intersection loci


def test_self_intersection_locus(ex1):
    bif, candidate = hyper.maxwell_bifurcation(ex1.tables, "u")
    target = ex1.p("(d - c)^2 * (d^2 + d*c + c^2)^2")
    assert same_up_to_sign(candidate, target)
    assert exact_divide(discriminant(ex1.disc, "u"),
                        candidate) is not None


def test_bifurcation_is_trace_form_determinant(ex1):
    bif, _ = hyper.maxwell_bifurcation(ex1.tables, "u")
    assert same_up_to_sign(make_primitive(bif),
                           make_primitive(det_bareiss(ex1.tf.T)))


# ---------------------------------------------------------------------------
# six-dimensional example with basis (1, x, y, x*y, y^2, x*y^2)


def test_deep_traces(e6):
    expected = ["6", "1/3*g^2", "0", "5/6*c*g", "-2*d - 1/6*g^3",
                "5/12*c^2 + 2/3*a*g - 1/2*d*g^2 - 1/36*g^5"]
    assert e6.tables.zeta == [e6.p(t) for t in expected]


def test_deep_structure_constants_spot(e6):
    tau = e6.tables.tau
    p1 = "1/12*a*b - 1/24*b*d*g + 1/72*a*c*g^2 - 1/144*b*g^4"
    p2 = "1/12*a*c - 1/24*c*d*g - 1/24*b*g^2 - 1/144*c*g^4"
    p3 = ("1/12*b*c + 1/6*a*d - 1/12*d^2*g + 1/72*c^2*g^2 + 1/36*a*g^3 "
          "- 1/72*d*g^4")
    q3 = ("1/12*a*b - 1/12*c*d^2 + 1/48*c^3*g - 1/12*b*d*g "
          "+ 1/18*a*c*g^2 - 1/24*c*d*g^3 - 1/144*b*g^4")
    q5 = ("1/12*b*c + 1/6*a*d - 1/12*d^2*g + 11/144*c^2*g^2 "
          "+ 1/36*a*g^3 - 1/72*d*g^4")
    assert tau[0][3, 5] == e6.p(p1)
    assert tau[0][1, 1] == e6.p("-1/3*a")
    assert tau[0][5, 5] == e6.p("-1/24*b*c*d - 1/48*b^2*g "
                                "+ 1/48*a*c^2*g - 1/48*b*c*g^3")
    assert tau[1][3, 5] == e6.p(p2)
    assert tau[1][5, 5] == e6.p("-1/24*c^2*d - 1/12*b*c*g - 1/48*c^2*g^3")
    assert tau[2][3, 5] == e6.p(p3)
    assert tau[2][5, 5] == e6.p(q3)
    assert tau[3][5, 5] == e6.p("1/12*a*c - 1/4*c*d*g - 1/12*b*g^2 "
                                "- 7/144*c*g^4")
    assert tau[4][5, 5] == e6.p(q5)
    assert tau[5] == mat(e6, [
        ["0", "0", "0", "0", "0", "1"],
        ["0", "0", "0", "0", "1", "1/6*g^2"],
        ["0", "0", "0", "1", "0", "0"],
        ["0", "0", "1", "1/6*g^2", "0", "1/4*c*g"],
        ["0", "1", "0", "0", "-1/2*g", "-1/2*d - 1/12*g^3"],
        ["1", "1/6*g^2", "0", "1/4*c*g", "-1/2*d - 1/12*g^3",
         "1/12*c^2 + 1/6*a*g - 1/6*d*g^2 - 1/72*g^5"]])


def test_deep_trace_form(e6):
    T = e6.tf.T
    zeta6 = "-1/36*g^5 - 1/2*d*g^2 + 2/3*a*g + 5/12*c^2"
    # first row lists the traces of the basis elements
    for j, z in enumerate(e6.tables.zeta):
        assert T[0, j] == z
    assert T[0, 5] == e6.p(zeta6)
    assert T[1, 4] == e6.p(zeta6)
    assert T[2, 3] == e6.p(zeta6)
    assert T[1, 1] == e6.p("-2*a + 2/3*d*g + 1/18*g^4")
    assert T[1, 3] == e6.p("2/3*c*d + 1/2*b*g + 2/9*c*g^3")
    assert T[1, 5] == e6.p("1/2*b*c + 2/3*a*d - 1/3*d^2*g "
                           "+ 11/36*c^2*g^2 + 1/6*a*g^3 - 1/9*d*g^4 "
                           "- 1/216*g^7")
    assert T[3, 3] == T[1, 5]
    assert T[2, 4] == e6.p("-3/2*b - 1/2*c*g^2")
    assert T[3, 4] == e6.p("1/2*a*c - 11/12*c*d*g - 1/3*b*g^2 "
                           "- 1/8*c*g^4")
    assert T[2, 5] == T[3, 4]
    assert T[4, 4] == e6.p("d^2 - 5/12*c^2*g - 1/3*a*g^2 + 1/3*d*g^3 "
                           "+ 1/72*g^6")
    assert T[3, 5] == e6.p("1/2*a*b - 1/3*c*d^2 + 25/144*c^3*g "
                           "- 5/12*b*d*g + 5/12*a*c*g^2 - 7/18*c*d*g^3 "
                           "- 5/72*b*g^4 - 1/36*c*g^6")
    assert T[4, 5] == e6.p("-3/8*c^2*d - 7/12*b*c*g - 2/3*a*d*g "
                           "+ 5/12*d^2*g^2 - 5/24*c^2*g^3 - 1/12*a*g^4 "
                           "+ 5/72*d*g^5 + 1/432*g^8")
    assert T[5, 5] == e6.p("5/144*c^4 - 5/12*b*c*d - 1/3*a*d^2 "
                           "- 1/8*b^2*g + 23/72*a*c^2*g + 1/6*d^3*g "
                           "+ 1/9*a^2*g^2 - 35/72*c^2*d*g^2 "
                           "- 17/72*b*c*g^3 - 5/18*a*d*g^3 + 1/8*d^2*g^4 "
                           "- 59/864*c^2*g^5 - 1/54*a*g^6 + 1/72*d*g^7 "
                           "+ 1/2592*g^10")


def test_deep_trace_matrix_definition(e6):
    assert e6.tf.T == e6.tables.T


def test_weighted_log_matrix_deep(e6):
    assert e6.sigma == weighted_log_matrix(e6)
    assert e6.sigma == e6.tables.P.scale(-12)
    assert e6.sigma[0, 0] == e6.p("12*u")
    assert e6.sigma[0, 5] == e6.p("2*g")
