"""Print the job list a seed gives, one CLI command a line.

    python3 perfbench/points.py --workload points --seed 7

Run from the root of a checkout. Points are screened through the program
exactly as in a benchmark run; the number screened out goes to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.abspath("src"))

from run import WORKLOADS, Inputs  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    inputs = Inputs()
    for job in inputs.build(args.workload, args.seed):
        print("logdisc " + " ".join(job.argv()))
    print("screened out: %d" % inputs.screen.skipped, file=sys.stderr)


if __name__ == "__main__":
    main()
