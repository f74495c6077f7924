"""End-to-end acceptance checks for the whole pipeline."""

import random
import time
from fractions import Fraction

import pytest

from conftest import is_symmetric
from test_ci import k2_spec
from logdisc import ci, hyper
from logdisc.groebner import reduce_poly, remainder_coordinates
from logdisc.inertia import (DegeneratePointError, SymMatrixQ, critical_count,
                             euler_characteristics, inertia)
from logdisc.matrix import PolyMatrix, det_bareiss, discriminant
from logdisc.oracle import find_critical_points, grid_euler
from logdisc.parse import parse_poly
from logdisc.poly import Polynomial, VarTable, exact_divide, make_primitive


def mat(bundle, rows):
    return PolyMatrix(bundle.vt,
                      [[bundle.p(e) for e in row] for row in rows])


def eval_sym(pm, point):
    return SymMatrixQ.from_poly_matrix(pm, point)


def eval_product(a, b, point):
    """Evaluate two polynomial matrices at a point and multiply exactly."""
    av = [[e.evaluate(point).constant_value() for e in row]
          for row in a.entries]
    bv = [[e.evaluate(point).constant_value() for e in row]
          for row in b.entries]
    n = len(av)
    rows = [[sum(av[i][k] * bv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]
    return SymMatrixQ(tuple(tuple(r) for r in rows))


def test_criterion_01_tables_runtime(ex1):
    start = time.monotonic()
    vt = VarTable(("x1", "x2"), ("u", "d", "c", "b"))
    f0 = parse_poly("x1^3 + x2^3", vt)
    basis = [parse_poly(t, vt) for t in ("1", "x2", "x1", "x1*x2")]
    spec = hyper.DeformationSpec.build(f0, basis, ("u", "d", "c", "b"))
    tables = hyper.mul_tables(spec)
    elapsed = time.monotonic() - start
    assert tables.tau[0] == mat(ex1, [
        ["1", "0", "0", "0"],
        ["0", "-1/3*d", "0", "1/9*b*c"],
        ["0", "0", "-1/3*c", "1/9*b*d"],
        ["0", "1/9*b*c", "1/9*b*d", "1/9*d*c"]])
    assert tables.tau[1] == mat(ex1, [
        ["0", "1", "0", "0"],
        ["1", "0", "0", "1/9*b^2"],
        ["0", "0", "-1/3*b", "-1/3*c"],
        ["0", "1/9*b^2", "-1/3*c", "1/9*b*d"]])
    assert tables.tau[2] == mat(ex1, [
        ["0", "0", "1", "0"],
        ["0", "-1/3*b", "0", "-1/3*d"],
        ["1", "0", "0", "1/9*b^2"],
        ["0", "-1/3*d", "1/9*b^2", "1/9*b*c"]])
    assert tables.tau[3] == mat(ex1, [
        ["0", "0", "0", "1"],
        ["0", "0", "1", "0"],
        ["0", "1", "0", "0"],
        ["1", "0", "0", "1/9*b^2"]])
    assert elapsed < 1.0


def test_criterion_02_log_matrix(ex1):
    assert ex1.sigma == mat(ex1, [
        ["3*u", "2*d", "2*c", "b"],
        ["-2/3*d^2 + 1/9*b^2*c", "3*u + 1/9*b^3", "-b*d", "2*c"],
        ["-2/3*c^2 + 1/9*b^2*d", "-b*c", "3*u + 1/9*b^3", "2*d"],
        ["5/9*b*c*d", "-2/3*c^2 + 1/3*b^2*d", "-2/3*d^2 + 1/3*b^2*c",
         "3*u + 1/9*b^3"]])


def test_criterion_03_determinants(ex1):
    start = time.monotonic()
    det_bh = det_bareiss(ex1.tf.BH)
    disc = ex1.disc
    disc_u = discriminant(disc, "u")
    bif, maxwell = hyper.maxwell_bifurcation(ex1.tables, "u")
    elapsed = time.monotonic() - start
    inner = ex1.p("256*b^2*d^3 + 768*d^2*c^2 + 96*b^4*d*c - b^8 "
                  "+ 256*c^3*b^2")
    assert det_bh == inner * inner * Fraction(1, 9)
    assert disc == ex1.p(
        "8/3*b^2*c^4*d - 1/243*b^8*c*d + 8/3*d^4*c*b^2 "
        "+ 23/27*b^4*d^2*c^2 + 32*u*b*c^2*d^2 - 11/9*u*b^5*c*d "
        "- 30*u^2*b^2*d*c - 1/243*b^6*d^3 - 1/243*b^6*c^3 "
        "- 32/9*d^3*c^3 + 24*u^2*d^3 + 1/3*u^2*b^6 + 9*u^3*b^3 "
        "+ 1/243*u*b^9 - 20/9*u*c^3*b^3 - 20/9*u*b^3*d^3 + 24*c^3*u^2 "
        "+ 81*u^4 + 16/9*d^6 + 16/9*c^6")
    assert disc_u == ex1.p("27*(d - c)^2*(d^2 + d*c + c^2)^2") * inner ** 3
    target = ex1.p("(d - c)^2*(d^2 + d*c + c^2)^2")
    assert maxwell == target or maxwell == -target
    assert elapsed < 30.0


def test_criterion_04_deep_example_tables(e6):
    assert e6.tables.mu == 6
    zeta_expected = ["6", "1/3*g^2", "0", "5/6*c*g", "-2*d - 1/6*g^3",
                     "5/12*c^2 + 2/3*a*g - 1/2*d*g^2 - 1/36*g^5"]
    assert e6.tables.zeta == [e6.p(t) for t in zeta_expected]
    tau = e6.tables.tau
    assert tau[0][3, 5] == e6.p("1/12*a*b - 1/24*b*d*g + 1/72*a*c*g^2 "
                                "- 1/144*b*g^4")
    assert tau[1][3, 5] == e6.p("1/12*a*c - 1/24*c*d*g - 1/24*b*g^2 "
                                "- 1/144*c*g^4")
    assert tau[2][3, 5] == e6.p("1/12*b*c + 1/6*a*d - 1/12*d^2*g "
                                "+ 1/72*c^2*g^2 + 1/36*a*g^3 - 1/72*d*g^4")
    assert tau[2][5, 5] == e6.p("1/12*a*b - 1/12*c*d^2 + 1/48*c^3*g "
                                "- 1/12*b*d*g + 1/18*a*c*g^2 "
                                "- 1/24*c*d*g^3 - 1/144*b*g^4")
    assert tau[4][5, 5] == e6.p("1/12*b*c + 1/6*a*d - 1/12*d^2*g "
                                "+ 11/144*c^2*g^2 + 1/36*a*g^3 "
                                "- 1/72*d*g^4")
    assert tau[3][5, 5] == e6.p("1/12*a*c - 1/4*c*d*g - 1/12*b*g^2 "
                                "- 7/144*c*g^4")
    T = e6.tf.T
    zeta6 = e6.p(zeta_expected[5])
    assert T[0, 5] == zeta6 and T[1, 4] == zeta6 and T[2, 3] == zeta6
    assert T[1, 5] == e6.p("1/2*b*c + 2/3*a*d - 1/3*d^2*g "
                           "+ 11/36*c^2*g^2 + 1/6*a*g^3 - 1/9*d*g^4 "
                           "- 1/216*g^7")
    assert T[3, 3] == T[1, 5]
    assert T[4, 4] == e6.p("d^2 - 5/12*c^2*g - 1/3*a*g^2 + 1/3*d*g^3 "
                           "+ 1/72*g^6")
    assert T[5, 5] == e6.p("5/144*c^4 - 5/12*b*c*d - 1/3*a*d^2 "
                           "- 1/8*b^2*g + 23/72*a*c^2*g + 1/6*d^3*g "
                           "+ 1/9*a^2*g^2 - 35/72*c^2*d*g^2 "
                           "- 17/72*b*c*g^3 - 5/18*a*d*g^3 + 1/8*d^2*g^4 "
                           "- 59/864*c^2*g^5 - 1/54*a*g^6 + 1/72*d*g^7 "
                           "+ 1/2592*g^10")


def test_criterion_05_deep_example_euler(e6):
    # all four reference points carry zero signatures, so every region has
    # Euler characteristic 1; the grid oracle agrees (see the u = 1/10 case
    # below for a point where an oval is present and the values move)
    start = time.monotonic()
    base = {"b": Fraction(-2, 5), "c": Fraction(1, 10),
            "d": Fraction(1, 10), "g": Fraction(-1, 10)}
    for a in (Fraction(-9, 10), Fraction(0)):
        for u in (Fraction(-10), Fraction(17, 2)):
            point = dict(base, a=a, u=u)
            bh = eval_sym(e6.tf.BH, point)
            bhf = eval_sym(e6.tf.BHF, point)
            rep = euler_characteristics(bh, bhf, 2)
            assert (rep.BH.signature, rep.BHF.signature) == (0, 0)
            assert (rep.chi_ge, rep.chi_le, rep.chi_eq) == (1, 1, 1)
            g = grid_euler(e6.spec.F, point)
            assert g.stable
            assert (g.chi_ge, g.chi_le, g.chi_eq) == (1, 1, 1)
    # an oval of the zero set appears for small positive u
    point = dict(base, a=Fraction(-9, 10), u=Fraction(1, 10))
    rep = euler_characteristics(eval_sym(e6.tf.BH, point),
                                eval_sym(e6.tf.BHF, point), 2)
    assert (rep.chi_ge, rep.chi_le, rep.chi_eq) == (0, 2, 1)
    g = grid_euler(e6.spec.F, point)
    assert g.stable
    assert (g.chi_ge, g.chi_le, g.chi_eq) == (0, 2, 1)
    assert time.monotonic() - start < 60.0


def test_criterion_06_log_divisibility(ex1, e6, a2):
    for b in (ex1, e6, a2):
        sigma = b.sigma
        disc = b.disc
        grads = [disc.diff(name) for name in b.spec.params]
        for i in range(b.tables.mu):
            acc = b.p("0")
            for l in range(b.tables.mu):
                acc = acc + sigma[i, l] * grads[l]
            assert exact_divide(acc, disc) is not None


def test_criterion_07_weierstrass_euler_invariants(ex1, e6, a1, a2):
    for b in (ex1, e6, a1, a2):
        mu = b.tables.mu
        wu = b.ws.s_weights[0]
        disc = b.disc
        # quasihomogeneity of the discriminant
        widx = {name: w for name, w in zip(b.spec.params, b.ws.s_weights)}
        nx = b.vt.nx
        for m in disc.terms:
            wt = sum(widx[name] * m[b.vt.index(name)]
                     for name in b.spec.params)
            assert wt == mu * wu
        # the recast one-map family is +/-monic in u of degree mu
        spec = ci.hyper_to_ci(b.spec)
        tables = ci.ci_tables(spec, basis_hint=b.spec.monomials)
        detP = det_bareiss(tables.P)
        assert detP.degree_in("u") == mu
        origin = {name: Fraction(0) for name in spec.params[1:]}
        u_mono = b.p("u") ** mu
        at0 = detP.evaluate(origin)
        assert at0 == u_mono or at0 == -u_mono


def test_criterion_08_cross_pipeline_consistency(ex1):
    spec = ci.hyper_to_ci(ex1.spec)
    tables = ci.ci_tables(spec, basis_hint=ex1.spec.monomials)
    detP = det_bareiss(tables.P)
    assert ex1.disc == detP * 81


def _random_point(rng, names):
    return {n: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for n in names}


def _nondegenerate_samples(bundle, rng, count):
    sigma, T = bundle.sigma, bundle.tf.T
    bh, bhf = bundle.tf.BH, bundle.tf.BHF
    points = []
    while len(points) < count:
        point = _random_point(rng, bundle.spec.params)
        st = eval_product(sigma, T, point)
        if inertia(st).degenerate:
            continue
        if inertia(eval_sym(bh, point)).degenerate:
            continue
        if inertia(eval_sym(bhf, point)).degenerate:
            continue
        points.append(point)
    return points


def test_criterion_09_oracle_equivalence(ex1, e6):
    start = time.monotonic()
    rng = random.Random(20230817)
    stable_grids = 0
    total = 0
    for bundle, count in ((ex1, 12), (e6, 8)):
        for point in _nondegenerate_samples(bundle, rng, count):
            total += 1
            st = eval_product(bundle.sigma, bundle.tf.T, point)
            exact = critical_count(inertia(st))
            rep = find_critical_points(bundle.spec.F, point, bundle.tables.mu,
                                       seed=total)
            assert rep.signed_count == exact
            chi = euler_characteristics(eval_sym(bundle.tf.BH, point),
                                        eval_sym(bundle.tf.BHF, point), 2)
            g = grid_euler(bundle.spec.F, point)
            if g.stable:
                stable_grids += 1
                assert (g.chi_ge, g.chi_le, g.chi_eq) == \
                    (chi.chi_ge, chi.chi_le, chi.chi_eq)
    assert total >= 20
    assert stable_grids >= total // 2
    assert time.monotonic() - start < 300.0


def test_criterion_10_symmetry_suite(ex1, e6):
    rng = random.Random(7)
    for b in (ex1, e6):
        for t in b.tables.tau:
            assert is_symmetric(t)
        for m in (b.tf.T, b.sigma * b.tf.T, b.tf.BH, b.tf.BHF):
            assert is_symmetric(m)
        spec = ci.hyper_to_ci(b.spec)
        tables = ci.ci_tables(spec, basis_hint=b.spec.monomials)
        for w in tables.tau:
            assert is_symmetric(w)
        assert is_symmetric(tables.P * tables.T)
        for point in _nondegenerate_samples(b, rng, 3):
            s_h = inertia(eval_sym(b.tf.BH, point)).signature
            s_hf = inertia(eval_sym(b.tf.BHF, point)).signature
            assert (s_h + s_hf) % 2 == 0


@pytest.mark.parametrize("family", ["ex1", "a2", "e6", "k2"])
def test_criterion_11_connection_coefficients(request, family):
    # gm reads B_j off tau; reducing the Euler-field divergence with a
    # checked certificate is the independent witness
    if family == "k2":
        spec, hint = k2_spec(), None
    else:
        b = request.getfixturevalue(family)
        spec, hint = ci.hyper_to_ci(b.spec), b.spec.monomials
    tables = ci.ci_tables(spec, basis_hint=hint)
    ws = ci.ci_weights(spec)
    gm = ci.gm_coefficients(spec, tables, ws)
    assert gm.trM0 == sum(ws.f_weights)
    phis = tables.phi.polynomials()
    mu = tables.mu
    vt = spec.vt
    euler = [w * Polynomial.var(vt, x)
             for w, x in zip(ws.x_weights, vt.x_vars)]
    for j in range(mu):
        for i in range(mu):
            div = Polynomial.zero(vt)
            for p, x in enumerate(vt.x_vars):
                div = div + (phis[i] * phis[j] * euler[p]).diff(x)
            cert = reduce_poly(div, tables.gb)
            recon = cert.remainder
            for cof, g in zip(cert.cofactors, tables.gb.elements):
                recon = recon + cof * g
            assert recon == cert.scale * div
            coords = remainder_coordinates(cert, tables.phi)
            for l in range(mu):
                assert gm.B[j][i, l] == \
                    tables.tau[l][i, j] * gm.trM0 + coords[l]
