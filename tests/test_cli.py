import json
import re
import shlex
import sys

import pytest

from logdisc import ci, groebner
from logdisc.cli import main

FIX = "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_discriminant_text(capsys):
    code, out, err = run(capsys, "discriminant", f"{FIX}/a1.ls")
    assert code == 0
    assert out.strip() == "2*u"


def test_tables_text(capsys):
    code, out, err = run(capsys, "tables", f"{FIX}/a2.ls")
    assert code == 0
    assert "mu = 2" in out
    assert "basis = 1, x" in out
    assert "tau^1" in out and "tau^2" in out


def test_tables_json_roundtrip(capsys):
    code, out, _ = run(capsys, "tables", f"{FIX}/example1.ls", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["mu"] == 4
    assert doc["basis"] == ["1", "x2", "x1", "x1*x2"]
    assert doc["tau"][3][0] == ["0", "0", "0", "1"]
    assert doc["zeta"] == ["4", "0", "0", "1/3*b^2"]
    # byte-identical re-serialization
    assert json.dumps(doc, indent=2) + "\n" == out


def test_logfields_json(capsys):
    code, out, _ = run(capsys, "logfields", f"{FIX}/example1.ls", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["Sigma"][0] == ["3*u", "2*d", "2*c", "b"]
    assert "81*u^4" in doc["detSigma"]


def test_maxwell_text(capsys):
    code, out, _ = run(capsys, "maxwell", f"{FIX}/example1.ls")
    assert code == 0
    assert "maxwell candidate = " in out


def test_traceforms_json(capsys):
    code, out, _ = run(capsys, "traceforms", f"{FIX}/example1.ls", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["BH"][0][0] == "8*b^2"
    assert len(doc["T"]) == 4


def test_count_and_euler(capsys):
    code, out, _ = run(capsys, "count", f"{FIX}/example1.ls",
                       "--params", "u=1,d=1,c=-1,b=2")
    assert code == 0
    assert "signed critical point count = " in out
    code, out, _ = run(capsys, "euler", f"{FIX}/example1.ls",
                       "--params", "u=1,d=1,c=-1,b=2", "--json")
    assert code == 0
    doc = json.loads(out)
    chi = doc["chi"]
    assert chi["ge"] + chi["le"] - chi["eq"] == 1


def test_euler_decimal_params_are_exact(capsys):
    code1, out1, _ = run(capsys, "count", f"{FIX}/example1.ls",
                         "--params", "u=0.5,d=1,c=-1,b=2", "--json")
    code2, out2, _ = run(capsys, "count", f"{FIX}/example1.ls",
                         "--params", "u=1/2,d=1,c=-1,b=2", "--json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_degenerate_point_exit_code(capsys):
    code, out, err = run(capsys, "euler", f"{FIX}/a1.ls", "--params", "u=0")
    assert code == 2
    assert "degenerate" in err


def test_missing_file_exit_code(capsys):
    code, out, err = run(capsys, "discriminant", f"{FIX}/no-such-file.ls")
    assert code == 1
    assert "error:" in err


def test_bad_params_exit_code(capsys):
    code, _, err = run(capsys, "count", f"{FIX}/a1.ls", "--params", "zz=1")
    assert code == 1
    code, _, err = run(capsys, "count", f"{FIX}/a1.ls", "--params", "u=x")
    assert code == 1
    code, _, err = run(capsys, "count", f"{FIX}/a1.ls")
    assert code == 1


def test_basis_override(capsys):
    code, out, _ = run(capsys, "tables", f"{FIX}/example1.ls", "--json",
                       "--basis", "1,x1,x2,x1*x2")
    assert code == 0
    doc = json.loads(out)
    assert doc["basis"] == ["1", "x1", "x2", "x1*x2"]


def test_basis_override_wrong_length(capsys):
    code, _, err = run(capsys, "tables", f"{FIX}/example1.ls",
                       "--basis", "1,x1")
    assert code == 1


def test_ci_commands(capsys):
    code, out, _ = run(capsys, "ci-discriminant", f"{FIX}/ci_k2.ls", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["mu"] == 4
    code, out, _ = run(capsys, "ci-tables", f"{FIX}/ci_k2.ls", "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["P"]) == 4


def test_ci_parabola_count_and_oracle(capsys):
    code, out, _ = run(capsys, "ci-count", f"{FIX}/ci_parabola.ls",
                       "--params", "u=3,t1=1,t2=2", "--json")
    assert code == 0
    assert json.loads(out)["count"] == -1
    code, out, _ = run(capsys, "oracle-check", f"{FIX}/ci_parabola.ls",
                       "--params", "u=3,t1=1,t2=2", "--json")
    assert code == 0
    assert json.loads(out)["oracle"]["agree"] is True


def test_ci_discriminant_of_recast_hypersurface(capsys):
    code, out, _ = run(capsys, "ci-discriminant", f"{FIX}/a2.ls", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["mu"] == 2


def test_gm_command(capsys):
    code, out, _ = run(capsys, "gm", f"{FIX}/a2.ls", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["gm"]["trM0"] == 3
    assert doc["gm"]["B"][0] == [["4", "0"], ["0", "5"]]
    assert doc["gm"]["B"][1] == [["0", "5"], ["-2*b", "0"]]


def test_oracle_check_command(capsys):
    code, out, _ = run(capsys, "oracle-check", f"{FIX}/a2.ls",
                       "--params", "u=0,b=-3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle"]["agree"] is True
    assert doc["oracle"]["chi_agree"] is True


def test_invalid_kind(tmp_path, capsys):
    bad = tmp_path / "bad.ls"
    bad.write_text("kind = nonsense\nx_vars = [x]\nparams = [u]\n")
    code, _, err = run(capsys, "discriminant", str(bad))
    assert code == 1
    assert "kind" in err


HYPERSURFACE_ONLY = ("tables", "logfields", "discriminant", "bifurcation",
                     "maxwell", "traceforms", "count", "euler")


@pytest.mark.parametrize("command", HYPERSURFACE_ONLY)
def test_hypersurface_commands_refuse_ci_input(capsys, command):
    code, _, err = run(capsys, command, f"{FIX}/ci_k2.ls",
                       "--params", "u=1,t1=2")
    assert code == 1
    assert "needs a hypersurface input" in err


def test_ci_tables_basis_hint_order(capsys):
    code, out, _ = run(capsys, "ci-tables", f"{FIX}/ci_k2.ls", "--json",
                       "--basis", "x2,1,x1,x2^2")
    assert code == 0
    assert json.loads(out)["basis"] == ["x2", "1", "x1", "x2^2"]
    code, _, err = run(capsys, "ci-tables", f"{FIX}/ci_k2.ls",
                       "--basis", "1,x1,x2,x1^2")
    assert code == 1
    assert "permutation" in err


def test_bifurcation_needs_no_weights(tmp_path, capsys):
    path = tmp_path / "nonqh.ls"
    path.write_text('x_vars = [x]\nparams = [u, a, b]\n'
                    'f0 = "x^4 + x^3"\nbasis = ["1", "x", "x^2"]\n')
    code, out, _ = run(capsys, "bifurcation", str(path), "--json")
    assert code == 0
    code, ci_out, _ = run(capsys, "ci-discriminant", str(path), "--json")
    assert code == 0
    assert json.loads(out)["detT"] == json.loads(ci_out)["detT"]
    for command in ("logfields", "traceforms"):
        code, _, err = run(capsys, command, str(path))
        assert code == 1
        assert "quasihomogeneous" in err


def test_one_buchberger_run_per_command(monkeypatch, capsys):
    calls = []
    real = groebner.buchberger

    def spy(ideal):
        calls.append(ideal)
        return real(ideal)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("logdisc")
                and getattr(mod, "buchberger", None) is real):
            monkeypatch.setattr(mod, "buchberger", spy)

    points = {"a2": "u=0,b=-3",
              "e6": "u=-10,a=3,b=-2/5,c=1/10,d=1/10,g=-1/10"}
    argvs = [("ci-tables", f"{FIX}/ci_k2.ls")]
    for name, point in points.items():
        path = f"{FIX}/{name}.ls"
        argvs += [("ci-tables", path), ("gm", path),
                  ("ci-discriminant", path),
                  ("ci-count", path, "--params", point)]
    for argv in argvs:
        calls.clear()
        code, _, _ = run(capsys, *argv)
        assert code == 0, argv
        assert len(calls) == 1, argv


@pytest.mark.parametrize("flag, value", [
    ("--ball", "0"), ("--ball", "-1"), ("--ball", "inf"),
    ("--resolution", "0"), ("--resolution", "-4")])
def test_oracle_options_refused(capsys, flag, value):
    code, out, err = run(capsys, "oracle-check", f"{FIX}/a2.ls",
                         "--params", "u=0,b=-3", flag, value)
    assert code == 1
    assert out == ""
    assert err.startswith("error: " + flag) and err.count("\n") == 1


def test_table_queries_never_build_P(monkeypatch, capsys):
    calls = []
    real = ci.multiplication_rows

    def spy(tau, coeffs):
        calls.append(len(tau))
        return real(tau, coeffs)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("logdisc")
                and getattr(mod, "multiplication_rows", None) is real):
            monkeypatch.setattr(mod, "multiplication_rows", spy)

    argvs = [("tables", f"{FIX}/e6.ls"), ("bifurcation", f"{FIX}/e6.ls"),
             ("gm", f"{FIX}/a2.ls"), ("gm", f"{FIX}/ci_k2.ls")]
    for argv in argvs:
        code, _, _ = run(capsys, *argv)
        assert code == 0, argv
        assert calls == [], argv
    # the spy sees the commands that do read P
    code, _, _ = run(capsys, "ci-tables", f"{FIX}/a2.ls")
    assert code == 0
    assert calls == [2]


def test_weights_keep_their_own_monomials_and_messages(tmp_path, capsys):
    """The hypersurface commands weigh f0 with its constant term; gm weighs
    the maps without their constant and parameter terms."""
    path = tmp_path / "const.ls"
    path.write_text('x_vars = [x]\nparams = [u, b]\n'
                    'f0 = "x^3 + 1"\nbasis = ["1", "x"]\n')
    code, _, err = run(capsys, "logfields", str(path))
    assert code == 1
    assert ("no positive integer weights make x^3 + 1 quasihomogeneous"
            in err)
    code, out, _ = run(capsys, "gm", str(path), "--json")
    assert code == 0
    doc = json.loads(out)["gm"]
    assert doc["x_weights"] == [1] and doc["f_weights"] == [3]
    path = tmp_path / "nonqh.ls"
    path.write_text('x_vars = [x]\nparams = [u, a, b]\n'
                    'f0 = "x^4 + x^3"\nbasis = ["1", "x", "x^2"]\n')
    code, _, err = run(capsys, "gm", str(path))
    assert code == 1
    assert "maps admit no common positive integer weight system" in err


# exact text output of each command, one fixture each
GOLDEN_TEXT = [
    (('tables', 'a2'),
     'mu = 2\n'
     'basis = 1, x\n'
     'tau^1:\n'
     '  [1, 0]\n'
     '  [0, -1/3*b]\n'
     'tau^2:\n'
     '  [0, 1]\n'
     '  [1, 0]\n'
     'zeta = 2, 0\n'),
    (('logfields', 'a2'),
     'Sigma:\n'
     '  [3*u, 2*b]\n'
     '  [-2/3*b^2, 3*u]\n'
     'det Sigma = 4/3*b^3 + 9*u^2\n'),
    (('discriminant', 'a2'),
     '4/3*b^3 + 9*u^2\n'),
    (('bifurcation', 'a2'),
     '-4/3*b\n'),
    (('maxwell', 'a2'),
     'det T = -4/3*b\n'
     'maxwell candidate = 1\n'),
    (('traceforms', 'a2'),
     'T:\n'
     '  [2, 0]\n'
     '  [0, -2/3*b]\n'
     'BH:\n'
     '  [0, -4*b]\n'
     '  [-4*b, 0]\n'
     'BHF:\n'
     '  [-8*b^2, -12*u*b]\n'
     '  [-12*u*b, 8/3*b^3]\n'),
    (('ci-discriminant', 'a2'),
     'det P = 4/27*b^3 + u^2\n'
     'det T = -4/3*b\n'),
    (('gm', 'a2'),
     'tr M0 = 3\n'
     'B_0:\n'
     '  [4, 0]\n'
     '  [0, 5]\n'
     'B_1:\n'
     '  [0, 5]\n'
     '  [-2*b, 0]\n'),
    (('ci-tables', 'ci_k2'),
     'mu = 4\n'
     'basis = 1, x2, x1, x2^2\n'
     'P:\n'
     '  [-u, 0, 1/2*t1, 2]\n'
     '  [0, -u, 0, 0]\n'
     '  [0, 0, -1/4*t1^2 - u, 1/2*t1]\n'
     '  [0, 0, 0, -u]\n'
     'T:\n'
     '  [4, 0, -1/2*t1, 0]\n'
     '  [0, 0, 0, 0]\n'
     '  [-1/2*t1, 0, 1/4*t1^2, 0]\n'
     '  [0, 0, 0, 0]\n'),
    (('count', 'a2', '--params', 'u=0,b=-3'),
     'signed critical point count = 0\n'),
    (('euler', 'a2', '--params', 'u=0,b=-3'),
     'chi(F>=0) = 2, chi(F<=0) = 2, chi(F=0) = 3\n'
     'sign BH = 0, sign BHF = -2\n'),
    (('oracle-check', 'a2', '--params', 'u=0,b=-3'),
     'numeric signed count = 0, exact signature = 0, agree = True\n'
     'grid chi = (2, 2, 3) stable=True, agree = True\n'),
    (('ci-count', 'ci_parabola', '--params', 'u=3,t1=1,t2=2'),
     'signed critical point count = -1\n'),
    (('oracle-check', 'ci_parabola', '--params', 'u=3,t1=1,t2=2'),
     'numeric signed count = -1, exact signature = -1, agree = True\n'),
]


@pytest.mark.parametrize("argv, expected", GOLDEN_TEXT,
                         ids=[" ".join(a[:2]) for a, _ in GOLDEN_TEXT])
def test_text_output(capsys, argv, expected):
    command, fixture, *rest = argv
    code, out, err = run(capsys, command, f"{FIX}/{fixture}.ls", *rest)
    assert code == 0
    assert err == ""
    assert out == expected


def test_readme_cli_examples():
    with open("README.md", encoding="utf-8") as fh:
        readme = fh.read()
    block = re.search(r"## CLI.*?```sh\n(.*?)```", readme, re.S).group(1)
    lines = [line.split("#")[0] for line in block.splitlines()]
    argvs = [shlex.split(line)[1:] for line in lines if line.strip()]
    assert len(argvs) >= 10
    for argv in argvs:
        assert main(argv) == 0, argv
