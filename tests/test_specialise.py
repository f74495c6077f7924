"""Point queries specialise first: the rational forms built from the tables
evaluated at a point equal the evaluated parametric forms, and no point
command takes a determinant of a parametric matrix except the Jacobian
minors that generate the minor ideal."""

import argparse
import contextlib
import functools
import io
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from logdisc import ci, cli, hyper, matrix
from logdisc.groebner import coordinates
from logdisc.inertia import (DegeneratePointError, SymMatrixQ, critical_count,
                             euler_characteristics, inertia)
from logdisc.matrix import mat_mul
from logdisc.parse import parse_poly
from logdisc.poly import VarTable

FIX = "fixtures"

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def params_text(point):
    return ",".join("%s=%s" % kv for kv in point.items())


def outcome(fn, *args):
    """fn(*args), or DegeneratePointError when it raises that."""
    try:
        return fn(*args)
    except DegeneratePointError:
        return DegeneratePointError


def triple(m):
    t = inertia(m)
    return {"n_plus": t.n_plus, "n_minus": t.n_minus, "n_zero": t.n_zero}


def scaled(rows, k):
    return SymMatrixQ([[k * e for e in row] for row in rows])


def at_point(tables, point, sign):
    """The algebra at the point and sign * c there, as the point commands
    form them."""
    args = argparse.Namespace(params=params_text(point))
    return cli._at_point(tables, args, sign)


def check_hypersurface(b, path, point):
    at, f = at_point(b.tables, point, -1)
    tau, T = at.tau, at.T
    form = ci.trace_form(tau, T, f)
    h = at.coordinates(hyper.hessian_determinant(b.spec.F.evaluate(point)))
    bh, bhf = hyper.hessian_forms(tau, T, f, h)
    # -P, evaluated from the parametric P, is multiplication by F there
    minus_P = [[-e for e in row] for row in b.tables.P.values(point)]
    assert form == mat_mul(minus_P, T)
    assert bhf == mat_mul(minus_P, bh)
    st0 = SymMatrixQ.from_poly_matrix(
        b.sigma * b.tables.T, point)
    bh0 = SymMatrixQ.from_poly_matrix(b.tf.BH, point)
    bhf0 = SymMatrixQ.from_poly_matrix(b.tf.BHF, point)
    # Sigma = -wF * P carries the factor wF into the F-forms
    assert (scaled(form, b.ws.wF), SymMatrixQ(bh), scaled(bhf, b.ws.wF)) \
        == (st0, bh0, bhf0)

    count = outcome(critical_count, inertia(st0))
    code, out = run_cli("count", path, "--params", params_text(point),
                        "--json")
    if count is DegeneratePointError:
        assert code == cli.EXIT_DEGENERATE
    else:
        assert code == 0
        assert json.loads(out) == {"mu": b.tables.mu, "inertia": triple(st0),
                                   "count": count}

    chi = outcome(euler_characteristics, bh0, bhf0, b.vt.nx)
    code, out = run_cli("euler", path, "--params", params_text(point),
                        "--json")
    if chi is DegeneratePointError:
        assert code == cli.EXIT_DEGENERATE
    else:
        assert code == 0
        doc = json.loads(out)
        assert doc["inertia"] == {"BH": triple(bh0), "BHF": triple(bhf0)}
        assert doc["chi"] == {"ge": chi.chi_ge, "le": chi.chi_le,
                              "eq": chi.chi_eq,
                              "sign_BH": chi.BH.signature,
                              "sign_BHF": chi.BHF.signature}


@settings(max_examples=15, deadline=None)
@given(rationals)
@example(Fraction(0))
def test_a1_point_forms_equal_parametric(a1, u):
    check_hypersurface(a1, f"{FIX}/a1.ls", {"u": u})


@settings(max_examples=20, deadline=None)
@given(rationals, rationals)
@example(Fraction(0), Fraction(0))
def test_a2_point_forms_equal_parametric(a2, u, b):
    check_hypersurface(a2, f"{FIX}/a2.ls", {"u": u, "b": b})


@settings(max_examples=20, deadline=None)
@given(rationals, rationals, rationals, rationals)
@example(Fraction(0), Fraction(0), Fraction(0), Fraction(0))
def test_example1_point_forms_equal_parametric(ex1, u, d, c, b):
    check_hypersurface(ex1, f"{FIX}/example1.ls",
                       {"u": u, "d": d, "c": c, "b": b})


def test_e6_point_forms_equal_parametric(e6):
    for values in ((-10, 3, Fraction(-2, 5), Fraction(1, 10),
                    Fraction(1, 10), Fraction(-1, 10)),
                   (Fraction(1, 2), -1, 2, Fraction(-3, 7), 1,
                    Fraction(5, 3))):
        point = dict(zip(e6.spec.params, map(Fraction, values)))
        check_hypersurface(e6, f"{FIX}/e6.ls", point)


PARABOLA_VT = VarTable(("x1", "x2"), ("u", "t1", "t2"))
PARABOLA = ci.CISpec(
    tuple(parse_poly(m, PARABOLA_VT)
          for m in ("x1^2 + x2^2 + t1*x1 - u", "x2 - x1^2 + t2")),
    ("u", "t1", "t2"))


def check_ci(tables, path, point):
    at, c = at_point(tables, point, 1)
    T = at.T
    form = ci.trace_form(at.tau, T, c)
    assert form == mat_mul(tables.P.values(point), T)
    pt0 = SymMatrixQ.from_poly_matrix(tables.P * tables.T, point)
    assert SymMatrixQ(form) == pt0
    count = outcome(critical_count, inertia(pt0))
    code, out = run_cli("ci-count", path, "--params", params_text(point),
                        "--json")
    if count is DegeneratePointError:
        assert code == cli.EXIT_DEGENERATE
    else:
        assert code == 0
        assert json.loads(out) == {"mu": tables.mu, "inertia": triple(pt0),
                                   "count": count}


@settings(max_examples=20, deadline=None)
@given(rationals, rationals, rationals)
@example(Fraction(3), Fraction(0), Fraction(1, 2))
def test_ci_parabola_point_form_equals_parametric(u, t1, t2):
    check_ci(ci.ci_tables(PARABOLA), f"{FIX}/ci_parabola.ls",
             {"u": u, "t1": t1, "t2": t2})


@settings(max_examples=20, deadline=None)
@given(rationals, rationals)
@example(Fraction(0), Fraction(0))
def test_recast_a2_point_form_equals_parametric(a2, u, b):
    tables = ci.ci_tables(ci.hyper_to_ci(a2.spec))
    check_ci(tables, f"{FIX}/a2.ls", {"u": u, "b": b})


def test_point_commands_take_no_parametric_determinant(monkeypatch):
    """Only the Jacobian minors that generate the minor ideal are
    parametric determinants; det Sigma, det P and the parametric Hessian
    are never taken by a point command."""
    calls = []
    real = matrix.det_bareiss

    def spy(m):
        nx = m.vt.nx
        parametric = any(any(mono[nx:]) for row in m.entries for e in row
                         for mono in e.terms)
        calls.append((sys._getframe(1).f_code.co_name, parametric))
        return real(m)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("logdisc")
                and getattr(mod, "det_bareiss", None) is real):
            monkeypatch.setattr(mod, "det_bareiss", spy)

    e6_point = "u=-10,a=3,b=-2/5,c=1/10,d=1/10,g=-1/10"
    for argv in (("count", f"{FIX}/e6.ls", "--params", e6_point),
                 ("euler", f"{FIX}/e6.ls", "--params", e6_point),
                 ("count", f"{FIX}/example1.ls", "--params",
                  "u=1,d=1,c=-1,b=2"),
                 ("euler", f"{FIX}/example1.ls", "--params",
                  "u=1,d=1,c=-1,b=2"),
                 ("oracle-check", f"{FIX}/a2.ls", "--params", "u=0,b=-3"),
                 ("ci-count", f"{FIX}/a2.ls", "--params", "u=0,b=-3"),
                 ("ci-count", f"{FIX}/ci_parabola.ls", "--params",
                  "u=3,t1=1,t2=2"),
                 ("oracle-check", f"{FIX}/ci_parabola.ls", "--params",
                  "u=3,t1=1,t2=2")):
        assert run_cli(*argv)[0] == 0, argv
    assert calls
    assert {name for name, parametric in calls if parametric} \
        <= {"minor_ideal"}

    calls.clear()
    code, out = run_cli("logfields", f"{FIX}/a1.ls")
    assert code == 0
    assert "det Sigma = 2*u" in out
    assert ("logfields", True) in calls


def test_point_commands_take_each_inertia_once(monkeypatch):
    """The printed triple, the signed count and chi share one inertia per
    form: the count form, B^H and B^HF."""
    calls = []

    def spy(m):
        calls.append(m)
        return inertia(m)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("logdisc")
                and getattr(mod, "inertia", None) is inertia):
            monkeypatch.setattr(mod, "inertia", spy)

    ex1 = (f"{FIX}/example1.ls", "--params", "u=1,d=1,c=-1,b=2", "--json")
    for argv, forms in ((("count",) + ex1, 1), (("ci-count",) + ex1, 1),
                        (("euler",) + ex1, 2), (("oracle-check",) + ex1, 3),
                        (("ci-count", f"{FIX}/ci_parabola.ls", "--params",
                          "u=3,t1=1,t2=2"), 1)):
        calls.clear()
        assert run_cli(*argv)[0] == 0, argv
        assert len(calls) == forms, argv


def test_point_commands_build_nothing_parametric(monkeypatch):
    """Point commands specialise the Groebner basis and form every trace
    form over Q: the parametric tau, zeta, T, P and first map's coordinates
    are never built, nor a weight system or Sigma. At the point each
    distinct product of basis monomials outside the basis takes one normal
    form, and the first map one more (the Hessian determinant one more for
    euler and a plane oracle-check)."""
    form_args = []
    unused = []
    real_form = ci.tau_form

    def form_spy(tau, coeffs):
        form_args.append([v for _, _, col in tau.pairs for _, v in col]
                         + [tau.zero] + list(coeffs))
        return real_form(tau, coeffs)

    monkeypatch.setattr(ci, "tau_form", form_spy)
    for name in ("sparse_tau", "tau", "zeta", "T", "P", "first_map_coords"):
        monkeypatch.setattr(ci.CITables, name, property(
            lambda self, name=name: unused.append(name)))
    for name in ("log_matrix", "derive_weights"):
        real = getattr(hyper, name)
        monkeypatch.setattr(hyper, name, lambda *a, name=name, real=real:
                            unused.append(name) or real(*a))

    reduced = []
    in_tau = []
    real_coordinates, real_constants = ci.coordinates, ci.structure_constants

    def coordinates_spy(p, gb, qb):
        assert gb.at is not None
        reduced.append((bool(in_tau), p))
        return real_coordinates(p, gb, qb)

    def constants_spy(gb, qb):
        in_tau.append(True)
        try:
            return real_constants(gb, qb)
        finally:
            in_tau.pop()

    monkeypatch.setattr(ci, "coordinates", coordinates_spy)
    monkeypatch.setattr(ci, "structure_constants", constants_spy)

    points = {"a2": "u=0,b=-3", "example1": "u=1,d=1,c=-1,b=2",
              "e6": "u=-10,a=3,b=-2/5,c=1/10,d=1/10,g=-1/10",
              "ci_parabola": "u=3,t1=1,t2=2"}
    for name, point in points.items():
        path = f"{FIX}/{name}.ls"
        monos = cli.LoadedSpec(cli.read_input_file(path)).algebra.phi.monomials
        nx = len(monos[0])
        products = {tuple(a + b for a, b in zip(mi, mj))
                    for i, mi in enumerate(monos) for mj in monos[i:]}
        outside = products - set(monos)
        commands = ("ci-count", "oracle-check")
        if name != "ci_parabola":
            commands += ("count", "euler")
        for command in commands:
            form_args.clear()
            reduced.clear()
            argv = (command, path, "--params", point)
            assert run_cli(*argv)[0] == 0, argv
            assert form_args, argv
            assert all(isinstance(e, (int, Fraction))
                       for args in form_args for e in args), argv
            forms = [p.lead_monomial()[:nx] for in_sc, p in reduced if in_sc]
            assert len(forms) == len(outside) and set(forms) == outside, argv
            hessian = command == "euler" or (command == "oracle-check"
                                              and name != "ci_parabola")
            assert len(reduced) - len(forms) == 1 + hessian, argv
    assert unused == []


FAMILY_FILES = [f"{FIX}/{name}.ls" for name in
                ("a1", "a2", "example1", "e6", "ci_k2", "ci_parabola")] + \
               [f"perfbench/families/{name}.ls" for name in
                ("a3", "a4", "a5", "a6", "d4", "d5", "k2")]


@functools.cache
def parametric(path):
    """One input file's loaded spec and, for a hypersurface, the
    coordinates h of its parametric Hessian determinant (else None)."""
    loaded = cli.LoadedSpec(cli.read_input_file(path))
    if loaded.kind != "hypersurface":
        return loaded, None
    algebra = loaded.algebra
    return loaded, coordinates(hyper.hessian_determinant(loaded.spec.F),
                               algebra.gb, algebra.phi)


@pytest.mark.parametrize("path", FAMILY_FILES)
@settings(max_examples=20, deadline=None)
@given(st.data())
def test_point_algebra_equals_evaluated_parametric(path, data):
    """tau, zeta, T, c and h from the Groebner basis specialised at a
    point equal the parametric ones evaluated there, entry by entry:
    specialising commutes with reduction when every lead is rational."""
    loaded, h = parametric(path)
    algebra = loaded.algebra
    vt = algebra.phi.vt
    point = {s: data.draw(rationals, label=s) for s in vt.s_vars}
    at_vt = vt.resolve(point)
    at = ci.PointTables(algebra, point)
    assert at.tau.dense() == [t.values(point) for t in algebra.tau]
    assert at.zeta == [z.value_at(at_vt) for z in algebra.zeta]
    assert at.T == algebra.T.values(point)
    assert at.first_map_coords == [e.value_at(at_vt)
                                   for e in algebra.first_map_coords]
    if h is not None:
        F = loaded.spec.F
        assert at.coordinates(hyper.hessian_determinant(F.evaluate(point))) \
            == [e.value_at(at_vt) for e in h]
        # the specialised basis also reduces the parametric Hessian
        assert at.coordinates(hyper.hessian_determinant(F)) \
            == [e.value_at(at_vt) for e in h]
