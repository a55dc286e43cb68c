"""Command-line front end: simulate, fit, ci, compare, and experiment runners.

Exit codes: 0 success, 2 usage/input error, 3 numerical failure.  Every
primary output file gets a sibling ``<name>.manifest.json`` recording the
command, configuration, seed, library version, and wall-clock timings.
Timings go to the manifest only, so a primary output depends on nothing
but its inputs and seed.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time

from . import __version__
from .experiments import compare_methods, coverage_study, mu_sweep, restart_ecdf, three_planes
from .inference import confidence_intervals, line_parameters, plugin_covariance
from .model import model_from_json_dict, model_to_json_dict
from .optimizer import FitConfig, fit_pool
from .simulate import dataset_from_csv, dataset_to_csv, generate, preset, preset_names

SCHEMA = "pwafit/v1"

# each study and the options it takes besides --seed and --outdir: restart-ecdf
# runs --reps single fits, three-planes one pool
_EXPERIMENTS = {
    "mu-sweep": ("--reps", "--pool"),
    "restart-ecdf": ("--reps",),
    "coverage": ("--reps", "--pool"),
    "three-planes": ("--pool",),
}


def _finite_or_null(obj):
    """``obj`` with each non-finite float replaced by ``None`` (JSON ``null``)."""
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _write_json(path, obj) -> None:
    """Strict JSON: a non-finite float is written as ``null``."""
    with open(path, "w", newline="\n") as fh:
        json.dump(_finite_or_null(obj), fh, indent=2, allow_nan=False)
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


def _move_times(rows: list[dict], key: str) -> dict:
    """Take the ``time_mean_s`` column out of a study's rows, for the manifest."""
    return {"time_mean_s": {str(row[key]): row.pop("time_mean_s") for row in rows}}


def _write_table(path, rows: list[dict]) -> None:
    with open(path, "w", newline="\n") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _at_least(low: int):
    """``type=`` for an integer option whose smallest valid value is ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return value

    return parse


def _between(low: float, high: float, what: str):
    """``type=`` for a float option strictly between ``low`` and ``high``."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
        if not low < value < high:
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value

    return parse


_count = _at_least(1)  # --k1, --pool and --reps
_seed = _at_least(0)
_positive = _between(0.0, math.inf, "positive and finite")  # --mu and --tol


# Each command does its work and returns ``(exit code, outputs, timings)``;
# ``main`` writes the manifest of ``outputs[0]`` with ``timings`` next to the
# total, and turns input errors into exit 2.


def _cmd_simulate(args):
    data = generate(preset(args.preset, seed=args.seed))
    dataset_to_csv(data, args.out)
    return 0, [args.out], {}


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


def _cmd_fit(args):
    data = dataset_from_csv(args.infile)
    config = FitConfig(
        mu_target=args.mu,
        tolerance=args.tol,
        restarts_pool=args.pool,
        seed=args.seed,
    )
    res = fit_pool(data, args.k1, args.k2, args.prox, config)
    outputs = [args.out]
    _write_json(args.out, _fit_result_json(res, config, args.prox))
    if args.fitted_csv:
        names = [f"x{i + 1}" for i in range(data.d)] + ["y", "fitted"]
        columns = zip(data.X, data.Y, res.model.evaluate(data.X))
        rows = [dict(zip(names, map(float, [*x, y, f]))) for x, y, f in columns]
        _write_table(args.fitted_csv, rows)
        outputs.append(args.fitted_csv)
    if not res.converged:
        print("warning: fit did not converge; best incumbent written", file=sys.stderr)
        return 3, outputs, {}
    return 0, outputs, {}


def _cmd_ci(args):
    data = dataset_from_csv(args.infile)
    with open(args.fit) as fh:
        fit_obj = json.load(fh)
    model_obj = fit_obj["model"] if isinstance(fit_obj, dict) else None
    if not isinstance(model_obj, dict):
        raise ValueError("the fit JSON must be an object whose 'model' entry is an object")
    model = model_from_json_dict(model_obj)
    theta = line_parameters(model)
    if model.d != data.d:
        raise ValueError(f"the fit has dimension {model.d}, but the data have dimension {data.d}")
    try:
        cov = plugin_covariance(model, data)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3, [], {}
    ci = confidence_intervals(theta, cov, args.level)
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
    return 0, [args.out], {}


def _cmd_compare(args):
    rows = compare_methods(
        args.preset, reps=args.reps, mu=args.mu, pool=args.pool, seed=args.seed
    )
    timings = _move_times(rows, "method")
    _write_table(args.out, rows)
    return 0, [args.out], timings


def _cmd_experiment(args):
    os.makedirs(args.outdir, exist_ok=True)
    name = args.name
    base = os.path.join(args.outdir, name.replace("-", "_"))
    rows, timings = None, {}
    if name == "mu-sweep":
        rows = mu_sweep(reps=args.reps, pool=args.pool, seed=args.seed)
        timings = _move_times(rows, "e")
        result = {"rows": rows}
    elif name == "restart-ecdf":
        result = restart_ecdf(n_fits=args.reps, seed=args.seed)
        devs = sorted(result["deviations"])
        rows = [
            {"deviation": dev, "ecdf": (i + 1) / len(devs)} for i, dev in enumerate(devs)
        ]
    elif name == "coverage":
        result = coverage_study(reps=args.reps, pool=args.pool, seed=args.seed)
        rows = [
            {"parameter": param, "coverage": covg, "length_mean": length}
            for param, covg, length in zip(
                result["parameters"], result["coverage"], result["length_mean"]
            )
        ]
    else:
        result = three_planes(pool=args.pool, seed=args.seed)
    outputs = [f"{base}_summary.json"]
    _write_json(outputs[0], {"schema": SCHEMA, "experiment": name, **result})
    if rows is not None:
        _write_table(f"{base}.csv", rows)
        outputs.append(f"{base}.csv")
    return 0, outputs, timings


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pwafit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pwafit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a preset dataset as CSV")
    p_sim.add_argument("--preset", required=True, help=f"one of: {', '.join(preset_names())}")
    p_sim.add_argument("--seed", type=_seed, default=0)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit a PWA model to CSV data")
    p_fit.add_argument("--in", dest="infile", required=True)
    p_fit.add_argument("--k1", type=_count, required=True)
    p_fit.add_argument("--k2", type=_at_least(0), default=0)
    p_fit.add_argument("--prox", choices=["entropy", "sqerr"], default="sqerr")
    p_fit.add_argument("--mu", type=_positive, default=0.1)
    p_fit.add_argument("--tol", type=_positive, default=1e-5)
    p_fit.add_argument("--pool", type=_count, default=10)
    p_fit.add_argument("--seed", type=_seed, default=0)
    p_fit.add_argument("--out", required=True)
    p_fit.add_argument("--fitted-csv", default=None)
    p_fit.set_defaults(func=_cmd_fit)

    p_ci = sub.add_parser("ci", help="confidence intervals for a two-piece fit")
    p_ci.add_argument("--in", dest="infile", required=True)
    p_ci.add_argument("--fit", required=True)
    p_ci.add_argument("--level", type=_between(0.0, 1.0, "in (0, 1)"), default=0.95)
    p_ci.add_argument("--out", required=True)
    p_ci.set_defaults(func=_cmd_ci)

    p_cmp = sub.add_parser("compare", help="smoothed fit vs Nelder-Mead on a preset")
    p_cmp.add_argument("--preset", required=True)
    p_cmp.add_argument("--reps", type=_count, default=100)
    p_cmp.add_argument("--mu", type=_positive, default=0.1)
    p_cmp.add_argument("--pool", type=_count, default=10)
    p_cmp.add_argument("--seed", type=_seed, default=0)
    p_cmp.add_argument("--out", required=True)
    p_cmp.set_defaults(func=_cmd_compare)

    p_exp = sub.add_parser("experiment", help="run a named simulation study")
    studies = p_exp.add_subparsers(dest="name", required=True, metavar="name")
    for name, options in _EXPERIMENTS.items():
        p_study = studies.add_parser(name, help=f"takes {', '.join(options)}")
        if "--reps" in options:
            p_study.add_argument("--reps", type=_count, default=100)
        if "--pool" in options:
            p_study.add_argument("--pool", type=_count, default=10)
        p_study.add_argument("--seed", type=_seed, default=0)
        p_study.add_argument("--outdir", required=True)
    p_exp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    t0 = time.perf_counter()
    try:
        # a missing output directory would otherwise surface only after the work
        for path in (vars(args).get("out"), vars(args).get("fitted_csv")):
            if path and not os.path.isdir(os.path.dirname(path) or os.curdir):
                raise FileNotFoundError(f"no such directory for output: {path}")
        code, outputs, timings = args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: missing key {exc} in input", file=sys.stderr)
        return 2
    if outputs:
        recorded = {key: value for key, value in vars(args).items() if key != "func"}
        timings = {"total_s": time.perf_counter() - t0, **timings}
        _write_manifest(outputs[0], args.command, recorded, timings, outputs)
    return code


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
