"""Each checker of the benchmark accepts the program's answer and rejects a
corrupted one: a flipped count, a perturbed determinant, a false flag.

Run from the repository root: ``python3 -m pytest perfbench/test_verify.py``.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from jobs import Job, freeze  # noqa: E402
from run import newton, run_job  # noqa: E402
from verify import CheckFailed, Checker  # noqa: E402


def _add(text, term):
    return "%s + %s" % (text, term)


def _flip(n):
    assert n != 0
    return -n


# (job, corruption of the parsed JSON answer)
CASES = [
    (Job("tables", "example1"),
     lambda o: o["tau"][1].__setitem__(2, [_add(e, "1") for e in o["tau"][1][2]])),
    (Job("ci-tables", "example1"),
     lambda o: o["P"][0].__setitem__(0, _add(o["P"][0][0], "b"))),
    (Job("gm", "example1"),
     lambda o: o["gm"]["B"][1][1].__setitem__(1, _add(o["gm"]["B"][1][1][1], "1"))),
    # same weight as det Sigma and no u^4 term: only the zero test sees it
    (Job("discriminant", "example1"),
     lambda o: o.__setitem__("detSigma", _add(o["detSigma"], "d^6"))),
    (Job("ci-discriminant", "a3"),
     lambda o: o.__setitem__("detP", _add(o["detP"], "b^6"))),
    (Job("bifurcation", "example1"),
     lambda o: o.__setitem__("detT", _add(o["detT"], "d^4"))),
    (Job("maxwell", "a3"),
     lambda o: o.__setitem__("maxwell", _add(o["maxwell"], "b^12"))),
    (Job("traceforms", "example1"),
     lambda o: o["BH"][0].__setitem__(0, _add(o["BH"][0][0], "100"))),
    (Job("count", "a2", freeze({"u": 3, "b": -3})),
     lambda o: o.__setitem__("count", _flip(o["count"]))),
    (Job("count", "example1", freeze({"u": 1, "d": 1, "c": -1, "b": 2})),
     lambda o: o.__setitem__("count", _flip(o["count"]))),
    (Job("euler", "a3", freeze({"u": 1, "a": 1, "b": -2})),
     lambda o: o["chi"].__setitem__("ge", o["chi"]["ge"] + 1)),
    (Job("ci-count", "k2", freeze({"u": 1, "t1": 1, "t2": 2})),
     lambda o: o.__setitem__("count", _flip(o["count"]))),
    (Job("oracle-check", "a2", freeze({"u": 0, "b": -3})),
     lambda o: o["oracle"].__setitem__("agree", False)),
]


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("job,corrupt", CASES, ids=[c[0].label() for c in CASES])
def test_checker_accepts_answer_and_rejects_corruption(job, corrupt):
    code, text, err = run_job(job.argv())
    assert code == 0, err
    ck = Checker(7, newton)
    # gm and traceforms are checked against the tables of their family
    tables = {"gm": "ci-tables", "traceforms": "tables"}.get(job.command)
    if tables is not None:
        table = Job(tables, job.family)
        ck.outputs[table] = json.loads(run_job(table.argv())[1])
    out = json.loads(text)
    ck.check(job, out)
    corrupt(out)
    with pytest.raises(CheckFailed):
        ck.check(job, out)
