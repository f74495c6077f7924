"""Benchmark of the logdisc CLI: three workloads, end-to-end and per-layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload symbolic|points|oracle \
        --seed N --seconds S --trace 0|1

Each job is one call of ``logdisc.cli.main`` in this process, one at a
time. A run builds its job list from the seed (screening points the
program refuses as degenerate), then runs as many whole passes over the
list as fit in ``--seconds`` by the mean pass time so far (at least one; a
pass is never cut), then checks every answer outside the timed region (see
``verify.py``). The last
line of standard output is one JSON object:

- ``--trace 0``: run_s (median pass wall time), job_p50_s (median job wall
  time), setup_s (median cold start of a fresh interpreter importing
  logdisc.cli) and peak_rss_mb (peak resident memory of this process after
  the passes, before the checks).
- ``--trace 1``: the per-layer metrics of ``tracing.LAYER_METRICS``, from
  spans recorded around logdisc's public functions. Spans, per-job times
  and the tracing summary go to ``perfbench/results/``.

A job whose exit status is not 0, whose answer fails its check, or whose
answer differs between passes counts as failed; a failed check also makes
``correct`` false.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs  # noqa: E402
from qpoly import QPoly, signature  # noqa: E402

WORKLOADS = ("symbolic", "points", "oracle")
SETUP_SAMPLES = 15
IMPORT_CLI = "import sys; sys.path.insert(0, 'src'); import logdisc.cli"
RESULTS = os.path.join("perfbench", "results")


def fail(message):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def measure_setup(samples):
    """Median wall time of fresh interpreters that import logdisc.cli."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", IMPORT_CLI],
                              capture_output=True, text=True)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail("importing logdisc.cli failed:\n" + proc.stderr)
    return statistics.median(times)


def run_job(argv):
    """One CLI command in this process: (exit status, stdout, stderr)."""
    import logdisc.cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = logdisc.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _lpoly(fam, q):
    from logdisc.poly import Polynomial, VarTable
    return Polynomial(VarTable(fam.x, fam.params), dict(q.terms))


def newton(fam, point, F, constraints, mu=None):
    """The program's Newton oracle on benchmark polynomials: the witness of
    the signed counts, called outside the timed region."""
    from logdisc.oracle import find_critical_points
    return find_critical_points(
        _lpoly(fam, F), point, fam.mu if mu is None else mu,
        constraints=[_lpoly(fam, g) for g in constraints])


class Inputs:
    """Builds the seeded job list; every program call made here is
    outside the timed region."""

    def __init__(self):
        self.screen = jobs.Screen(lambda argv: run_job(argv)[0])
        self._algebra = {}

    def trace_form(self, fam):
        """mu and the symbolic trace form T from ``ci-tables``."""
        if fam.name not in self._algebra:
            code, out, err = run_job(["ci-tables", fam.path, "--json"])
            if code != 0:
                fail("ci-tables %s failed: %s" % (fam.name, err))
            doc = json.loads(out)
            T = [[QPoly.parse(e, fam.names) for e in row] for row in doc["T"]]
            self._algebra[fam.name] = doc["mu"], T
        return self._algebra[fam.name]

    def all_real_at(self, fam, point):
        """Whether all mu critical points are real (by Hermite's theorem
        the signature of the trace form counts the real ones), or None
        where the trace form is singular."""
        mu, T = self.trace_form(fam)
        sig, nullity = signature([[e.value(point) for e in row] for row in T])
        return None if nullity else sig == mu

    def build(self, workload, seed):
        if workload == "symbolic":
            job_list = jobs.symbolic_jobs()
            # first calls fill the interpreter's caches; screening does this
            # for the other workloads (e6 jobs are left out: seconds each)
            for job in job_list:
                if job.family != "e6":
                    run_job(job.argv())
            return job_list
        if workload == "points":
            return jobs.points_jobs(seed, self.screen)
        return jobs.oracle_jobs(seed, self.screen, self.all_real_at)


def run_passes(job_list, seconds, tracer):
    """Whole passes while another one of mean length fits in ``seconds``;
    returns per pass (wall time, per-job wall times, per-job (code, stdout,
    stderr))."""
    passes = []
    t_start = time.perf_counter()
    while True:
        times, results = [], []
        t0 = time.perf_counter()
        for i, job in enumerate(job_list):
            argv = job.argv()
            if tracer is not None:
                tracer.job = len(passes) * len(job_list) + i
            tj = time.perf_counter()
            results.append(run_job(argv))
            times.append(time.perf_counter() - tj)
        passes.append((time.perf_counter() - t0, times, results))
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def check_passes(job_list, passes, seed):
    """(attempted, failed, wrong answers, messages, stable grids disagreeing with the exact chi)."""
    from verify import CheckFailed, Checker
    checker = Checker(seed, newton)
    first = passes[0][2]
    verdict = {}
    for job, (code, out, err) in zip(job_list, first):
        if code == 0:
            checker.outputs[job] = json.loads(out)
        else:
            verdict[job] = ("exit", "exit status %d: %s" % (code, err.strip()))
    for job in job_list:
        if job in verdict:
            continue
        try:
            checker.check(job, checker.outputs[job])
        except CheckFailed as exc:
            verdict[job] = ("wrong", str(exc))
        except Exception:   # a checker crash must not hide the other jobs
            verdict[job] = ("wrong", traceback.format_exc())
    attempted = failed = wrong = 0
    messages = []
    for _, _, results in passes:
        for job, res, ref in zip(job_list, results, first):
            attempted += 1
            bad = verdict.get(job)
            if bad is None and res[:2] != ref[:2]:
                bad = ("wrong", "answer differs between passes")
            if bad is not None:
                failed += 1
                wrong += bad[0] == "wrong"
                messages.append("%s: %s" % (job.label(), bad[1]))
    return attempted, failed, wrong, messages, checker.chi_disagree


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "logdisc", "cli.py")):
        fail("run from the root of a logdisc checkout (src/logdisc missing)")
    sys.path.insert(0, os.path.abspath("src"))

    setup_s = None if args.trace else measure_setup(SETUP_SAMPLES)
    import logdisc.cli  # noqa: F401  (imported before timing starts)

    t0 = time.perf_counter()
    inputs = Inputs()
    job_list = inputs.build(args.workload, args.seed)
    build_s = time.perf_counter() - t0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        passes = run_passes(job_list, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    t0 = time.perf_counter()
    attempted, failed, wrong, messages, chi_disagree = check_passes(
        job_list, passes, args.seed)
    check_s = time.perf_counter() - t0
    for m in messages[:20]:
        print("FAILED " + m, file=sys.stderr)

    run_s = statistics.median(p[0] for p in passes)
    job_times = [t for p in passes for t in p[1]]
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "jobs_per_pass": len(job_list),
        "screened_out": inputs.screen.skipped, "build_s": build_s,
        "check_s": check_s, "run_s": run_s,
        "pass_s": [p[0] for p in passes],
        "jobs": [{"job": j.label(), "s": [p[1][i] for p in passes]}
                 for i, j in enumerate(job_list)],
        "attempted": attempted, "failed": failed,
        "chi_disagree": chi_disagree,
    }
    if tracer is not None:
        from tracing import layer_metrics
        metrics = layer_metrics(tracer, len(passes))
        mains = {}
        for name, dur, _, job, _ in tracer.self_times():
            if name == "cli.main":
                mains[job] = dur
        summary["residual_s"] = [t - mains[k] for k, t in enumerate(job_times)]
    else:
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "job_p50_s": {"value": statistics.median(job_times), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, "%s-seed%d-trace%d" % (args.workload,
                                                         args.seed, args.trace))
    summary["metrics"] = metrics
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    if tracer is not None:
        tracer.dump(stem + "-spans.json", summary)

    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
