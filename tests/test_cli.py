import json
import sys

import pytest

from logdisc import groebner
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
