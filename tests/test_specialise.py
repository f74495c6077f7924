"""Point queries specialise first: the rational forms built from the tables
evaluated at a point equal the evaluated parametric forms, and no point
command takes a determinant of a parametric matrix except the Jacobian
minors that generate the minor ideal."""

import contextlib
import io
import json
import sys
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from logdisc import ci, cli, hyper, matrix
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


def check_hypersurface(b, path, point):
    tau, T, sigma = hyper.forms_at(b.tables.tau, b.logm.sigma, point)
    st_ = SymMatrixQ(mat_mul(sigma, T))
    bh, bhf = map(SymMatrixQ,
                  hyper.hessian_forms_at(b.spec, tau, T, sigma, point))
    st0 = SymMatrixQ.from_poly_matrix(
        b.logm.sigma * b.tables.T, point)
    bh0 = SymMatrixQ.from_poly_matrix(b.tf.BH, point)
    bhf0 = SymMatrixQ.from_poly_matrix(b.tf.BHF, point)
    assert (st_, bh, bhf) == (st0, bh0, bhf0)

    count = outcome(critical_count, st0)
    code, out = run_cli("count", path, "--params", params_text(point),
                        "--json")
    if count is DegeneratePointError:
        assert code == cli.EXIT_DEGENERATE
    else:
        assert code == 0
        assert json.loads(out) == {"mu": b.spec.mu, "inertia": triple(st0),
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
                              "eq": chi.chi_eq, "sign_BH": chi.sign_BH,
                              "sign_BHF": chi.sign_BHF}


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


def ci_tables_of(cspec):
    return ci.ci_tables(cspec, ci.minor_ideal(cspec))


PARABOLA_VT = VarTable(("x1", "x2"), ("u", "t1", "t2"))
PARABOLA = ci.CISpec(
    tuple(parse_poly(m, PARABOLA_VT)
          for m in ("x1^2 + x2^2 + t1*x1 - u", "x2 - x1^2 + t2")),
    ("u", "t1", "t2"))


def check_ci(tables, path, point):
    _, T, P = hyper.forms_at(tables.tau, tables.P, point)
    pt = SymMatrixQ(mat_mul(P, T))
    pt0 = SymMatrixQ.from_poly_matrix(tables.P * tables.T, point)
    assert pt == pt0
    count = outcome(critical_count, pt0)
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
    check_ci(ci_tables_of(PARABOLA), f"{FIX}/ci_parabola.ls",
             {"u": u, "t1": t1, "t2": t2})


@settings(max_examples=20, deadline=None)
@given(rationals, rationals)
@example(Fraction(0), Fraction(0))
def test_recast_a2_point_form_equals_parametric(a2, u, b):
    tables = ci_tables_of(ci.hyper_to_ci(a2.spec))
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
    assert ("discriminant", True) in calls
