#!/usr/bin/env python3
"""Run every simulation study and write plot-ready CSVs plus summaries.

Desk scale finishes in a few minutes; full scale matches the replication
counts of the original studies and can take hours.

    python3 scripts/run_all_experiments.py --outdir results --scale desk
"""
import argparse
import os
import sys

from pwafit.cli import main as cli_main

SCALES = {
    "desk": {"compare_reps": 20, "mu_reps": 6, "ecdf_fits": 200, "coverage_reps": 200},
    "full": {"compare_reps": 100, "mu_reps": 20, "ecdf_fits": 1000, "coverage_reps": 1000},
}


def run(argv):
    print("+ pwafit " + " ".join(argv), flush=True)
    code = cli_main(argv)
    if code != 0:
        sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--scale", choices=sorted(SCALES), default="desk")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    n = SCALES[args.scale]
    seed = str(args.seed)
    # `pwafit compare` writes into an existing directory only
    os.makedirs(args.outdir, exist_ok=True)

    for preset in ("broken-stick-200", "planes-d2"):
        run(
            [
                "compare", "--preset", preset, "--reps", str(n["compare_reps"]),
                "--pool", "10", "--seed", seed,
                "--out", f"{args.outdir}/compare_{preset}.csv",
            ]
        )
    run(
        ["experiment", "mu-sweep", "--reps", str(n["mu_reps"]), "--pool", "5",
         "--seed", seed, "--outdir", args.outdir]
    )
    run(
        ["experiment", "restart-ecdf", "--reps", str(n["ecdf_fits"]),
         "--seed", seed, "--outdir", args.outdir]
    )
    run(
        ["experiment", "coverage", "--reps", str(n["coverage_reps"]), "--pool", "10",
         "--seed", seed, "--outdir", args.outdir]
    )
    run(
        ["experiment", "three-planes", "--pool", "10", "--seed", seed,
         "--outdir", args.outdir]
    )
    print(f"done; outputs in {args.outdir}/")


if __name__ == "__main__":
    main()
