"""Command-line front end: simulate, fit, ci, compare, and experiment runners.

Exit codes: 0 success, 2 usage/input error, 3 numerical failure.  Every
primary output file gets a sibling ``<name>.manifest.json`` recording the
command, configuration, seed, library version, and wall-clock timings.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time

from . import __version__
from .experiments import compare_methods, coverage_study, mu_sweep, restart_ecdf, three_planes
from .inference import confidence_intervals, line_parameters, plugin_covariance
from .model import model_from_json_dict, model_to_json_dict
from .optimizer import FitConfig, fit_pool
from .simulate import dataset_from_csv, dataset_to_csv, generate, preset, preset_names

SCHEMA = "pwafit/v1"

_EXPERIMENTS = ("mu-sweep", "restart-ecdf", "coverage", "three-planes")


def _write_json(path, obj) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _write_manifest(out_path, command: str, args: dict, timings: dict, outputs: list) -> None:
    _write_json(
        f"{out_path}.manifest.json",
        {
            "schema": SCHEMA,
            "command": command,
            "args": args,
            "seed": args.get("seed"),
            "version": __version__,
            "timings": timings,
            "outputs": outputs,
        },
    )


def _write_table(path, rows: list[dict]) -> None:
    with open(path, "w", newline="\n") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    try:
        scenario = preset(args.preset, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    data = generate(scenario)
    dataset_to_csv(data, args.out)
    _write_manifest(
        args.out,
        "simulate",
        {"preset": args.preset, "seed": args.seed, "n": scenario.n, "noise_sd": scenario.noise_sd},
        {"total_s": time.perf_counter() - t0},
        [args.out],
    )
    return 0


def _fit_config(args) -> FitConfig:
    return FitConfig(
        mu_target=args.mu,
        tolerance=args.tol,
        restarts_pool=args.pool,
        seed=args.seed,
    )


def _fit_result_json(res, config: FitConfig, prox: str) -> dict:
    return {
        "schema": SCHEMA,
        "model": model_to_json_dict(res.model),
        "theta_hat": [float(v) for v in res.theta_hat],
        "objective_value": res.objective_value,
        "empirical_norm": res.empirical_norm,
        "anneal_trace": [[mu, obj, steps] for mu, obj, steps in res.anneal_trace],
        "restarts_used": res.restarts_used,
        "converged": res.converged,
        "config": {
            "mu": config.mu_target,
            "tol": config.tolerance,
            "pool": config.restarts_pool,
            "seed": config.seed,
            "prox": prox,
        },
    }


def _cmd_fit(args) -> int:
    t0 = time.perf_counter()
    try:
        data = dataset_from_csv(args.infile)
        config = _fit_config(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        res = fit_pool(data, args.k1, args.k2, args.prox, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    outputs = [args.out]
    _write_json(args.out, _fit_result_json(res, config, args.prox))
    if args.fitted_csv:
        fitted = res.model.evaluate(data.X)
        with open(args.fitted_csv, "w", newline="\n") as fh:
            fh.write(",".join([f"x{i + 1}" for i in range(data.d)] + ["y", "fitted"]) + "\n")
            for row, y, f in zip(data.X, data.Y, fitted):
                fh.write(",".join(repr(float(v)) for v in [*row, y, f]) + "\n")
        outputs.append(args.fitted_csv)
    _write_manifest(
        args.out,
        "fit",
        {
            "in": args.infile,
            "k1": args.k1,
            "k2": args.k2,
            "prox": args.prox,
            "mu": args.mu,
            "tol": args.tol,
            "pool": args.pool,
            "seed": args.seed,
        },
        {"total_s": time.perf_counter() - t0},
        outputs,
    )
    if not res.converged:
        print("warning: fit did not converge; best incumbent written", file=sys.stderr)
        return 3
    return 0


def _cmd_ci(args) -> int:
    t0 = time.perf_counter()
    try:
        data = dataset_from_csv(args.infile)
        with open(args.fit) as fh:
            fit_obj = json.load(fh)
        model = model_from_json_dict(fit_obj["model"])
        theta = line_parameters(model)
        if not 0.0 < args.level < 1.0:
            raise ValueError("level must be in (0, 1)")
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        cov = plugin_covariance(model, data)
        ci = confidence_intervals(theta, cov, args.level)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _write_json(
        args.out,
        {
            "schema": SCHEMA,
            "level": args.level,
            "lower": ci.lower.tolist(),
            "upper": ci.upper.tolist(),
            "sigma2_hat": cov.sigma2_hat,
            "segment_counts": cov.segment_counts.tolist(),
            "V": cov.V.tolist(),
            "W": cov.W.tolist(),
            "C": cov.C.tolist(),
        },
    )
    _write_manifest(
        args.out,
        "ci",
        {"in": args.infile, "fit": args.fit, "level": args.level, "seed": None},
        {"total_s": time.perf_counter() - t0},
        [args.out],
    )
    return 0


def _cmd_compare(args) -> int:
    t0 = time.perf_counter()
    try:
        rows = compare_methods(
            args.preset, reps=args.reps, mu=args.mu, pool=args.pool, seed=args.seed
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_table(args.out, rows)
    _write_manifest(
        args.out,
        "compare",
        {"preset": args.preset, "reps": args.reps, "mu": args.mu, "pool": args.pool, "seed": args.seed},
        {"total_s": time.perf_counter() - t0},
        [args.out],
    )
    return 0


def _cmd_experiment(args) -> int:
    t0 = time.perf_counter()
    import os

    os.makedirs(args.outdir, exist_ok=True)
    name = args.name
    base = os.path.join(args.outdir, name.replace("-", "_"))
    outputs = []
    if name == "mu-sweep":
        rows = mu_sweep(reps=args.reps, pool=args.pool, seed=args.seed)
        _write_table(f"{base}.csv", rows)
        summary = {"schema": SCHEMA, "experiment": name, "rows": rows}
        outputs.append(f"{base}.csv")
    elif name == "restart-ecdf":
        result = restart_ecdf(n_fits=args.reps, seed=args.seed)
        devs = sorted(result["deviations"])
        rows = [
            {"deviation": dev, "ecdf": (i + 1) / len(devs)} for i, dev in enumerate(devs)
        ]
        _write_table(f"{base}.csv", rows)
        summary = {"schema": SCHEMA, "experiment": name, **result}
        outputs.append(f"{base}.csv")
    elif name == "coverage":
        result = coverage_study(reps=args.reps, pool=args.pool, seed=args.seed)
        rows = [
            {"parameter": param, "coverage": covg, "length_mean": length}
            for param, covg, length in zip(
                result["parameters"], result["coverage"], result["length_mean"]
            )
        ]
        _write_table(f"{base}.csv", rows)
        summary = {"schema": SCHEMA, "experiment": name, **result}
        outputs.append(f"{base}.csv")
    elif name == "three-planes":
        summary = {"schema": SCHEMA, "experiment": name, **three_planes(pool=args.pool, seed=args.seed)}
    else:
        print(f"error: unknown experiment {name!r}", file=sys.stderr)
        return 2
    _write_json(f"{base}_summary.json", summary)
    outputs.append(f"{base}_summary.json")
    _write_manifest(
        f"{base}_summary.json",
        "experiment",
        {"name": name, "reps": args.reps, "pool": args.pool, "seed": args.seed},
        {"total_s": time.perf_counter() - t0},
        outputs,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pwafit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pwafit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a preset dataset as CSV")
    p_sim.add_argument("--preset", required=True, help=f"one of: {', '.join(preset_names())}")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit a PWA model to CSV data")
    p_fit.add_argument("--in", dest="infile", required=True)
    p_fit.add_argument("--k1", type=int, required=True)
    p_fit.add_argument("--k2", type=int, default=0)
    p_fit.add_argument("--prox", choices=["entropy", "sqerr"], default="sqerr")
    p_fit.add_argument("--mu", type=float, default=0.1)
    p_fit.add_argument("--tol", type=float, default=1e-5)
    p_fit.add_argument("--pool", type=int, default=10)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--out", required=True)
    p_fit.add_argument("--fitted-csv", default=None)
    p_fit.set_defaults(func=_cmd_fit)

    p_ci = sub.add_parser("ci", help="confidence intervals for a two-piece fit")
    p_ci.add_argument("--in", dest="infile", required=True)
    p_ci.add_argument("--fit", required=True)
    p_ci.add_argument("--level", type=float, default=0.95)
    p_ci.add_argument("--out", required=True)
    p_ci.set_defaults(func=_cmd_ci)

    p_cmp = sub.add_parser("compare", help="smoothed fit vs Nelder-Mead on a preset")
    p_cmp.add_argument("--preset", required=True)
    p_cmp.add_argument("--reps", type=int, default=100)
    p_cmp.add_argument("--mu", type=float, default=0.1)
    p_cmp.add_argument("--pool", type=int, default=10)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--out", required=True)
    p_cmp.set_defaults(func=_cmd_compare)

    p_exp = sub.add_parser("experiment", help="run a named simulation study")
    p_exp.add_argument("name", choices=_EXPERIMENTS)
    p_exp.add_argument("--reps", type=int, default=100)
    p_exp.add_argument("--pool", type=int, default=10)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--outdir", required=True)
    p_exp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.func(args)


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
