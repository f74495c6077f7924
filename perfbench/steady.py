"""Steadiness study: run one workload once per seed and report, for each
end-to-end metric, the median, the quartiles and the spread (distance
between the quartiles as a share of the median), plus the failed share and
each run's wall time.

    python3 perfbench/steady.py --workload points --seeds 1-10 --seconds 30

Run from the root of a checkout. Each run's JSON line is appended to
``perfbench/results/steady-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args()
    os.makedirs(os.path.join("perfbench", "results"), exist_ok=True)
    log = os.path.join("perfbench", "results",
                       "steady-%s.jsonl" % args.workload)
    runs = []
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"], capture_output=True, text=True, check=True)
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        doc["seed"] = seed
        doc["wall_s"] = time.perf_counter() - t0
        runs.append(doc)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(doc) + "\n")
        print("seed %d (%.1f s): %s" % (seed, doc["wall_s"], {
            k: round(v["value"], 4) for k, v in doc["metrics"].items()}),
            flush=True)
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        print("%-12s median %.4f  q1 %.4f  q3 %.4f  spread %.3f"
              % (name, med, q1, q3, (q3 - q1) / med))
    shares = {r["failed"] / r["attempted"] for r in runs}
    print("failed share per run: %s; correct in all runs: %s"
          % (sorted(shares), all(r["correct"] for r in runs)))


if __name__ == "__main__":
    main()
