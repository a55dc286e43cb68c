"""The three benchmark workloads: set-up, one operation, and its checks.

Each workload has a system part that a user of pwafit pays for (``setup``
and ``op``) and a checker part that the benchmark adds (``truths`` and
``check``).  Only the system part is timed.  Every library call in a system
part is looked up through its module at call time, so the tracer can wrap it.
"""
from __future__ import annotations

import importlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

# An op fails when its fitted empirical norm exceeds the true model's norm on
# the same data by more than this.  Every preset used here has noise variance
# 0.01; good fits land within about +-0.0006 of the truth (the positive side
# is the smoothing bias at mu=0.1), while a fit stuck on the wrong kink is
# worse by well over 0.002.
EXCESS_BOUND = 0.002

# The empirical norm in the CLI's fit JSON must match the library's value for
# the JSON model to this relative error (JSON floats round-trip exactly).
CLI_NORM_RTOL = 1e-12

MODULES = ("simulate", "model", "smoothing", "objective", "optimizer", "inference", "cli")


def derive_seed(seed: int, i: int) -> int:
    """Seed of item ``i`` of a run with benchmark seed ``seed``."""
    return int(seed) * 1_000_003 + int(i)


def load_pwafit(root: Path) -> SimpleNamespace:
    """Import pwafit from ``root/src``; exit with code 2 when it is not there."""
    src = root / "src"
    if not (src / "pwafit" / "__init__.py").is_file():
        print(f"error: no pwafit sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("pwafit")
    if Path(pkg.__file__).resolve().parent != (src / "pwafit").resolve():
        print(f"error: imported pwafit from {pkg.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    mods = {name: importlib.import_module(f"pwafit.{name}") for name in MODULES}
    return SimpleNamespace(pkg=pkg, **mods)


@dataclass
class Case:
    """One generated dataset and what the checker knows about it."""

    data_seed: int
    data: object = None  # Dataset, held in memory by library workloads
    csv: str | None = None  # CSV path, for the CLI workload
    truth: object = None  # true PwaModel
    true_norm: float = math.nan


@dataclass
class Outcome:
    """What one op produced; ``check`` turns it into a list of problems."""

    empirical_norm: float = math.nan
    converged: bool = False
    exit_code: int = 0
    result: object = None  # FitResult, for library workloads
    ci: object = None  # ConfidenceIntervals, for stick-ci
    out_path: Path | None = None  # `pwafit fit --out` file, for the CLI workload


class Workload:
    name = ""
    n_cases = 1  # datasets generated in set-up; op i uses case i mod n_cases

    def setup(self, pw, seed: int, workdir: Path) -> list[Case]:
        raise NotImplementedError

    def truths(self, pw, cases: list[Case]) -> None:
        for case in cases:
            case.true_norm = pw.objective.empirical_norm(case.truth, case.data)

    def op(self, pw, case: Case, fit_seed: int, workdir: Path) -> Outcome:
        raise NotImplementedError

    def check(self, pw, case: Case, out: Outcome) -> list[str]:
        problems = []
        if out.exit_code != 0:
            problems.append(f"exit code {out.exit_code}")
        if not out.converged:
            problems.append("fit did not converge")
        excess = out.empirical_norm - case.true_norm
        if not excess <= EXCESS_BOUND:
            problems.append(f"excess empirical norm {excess:.6g} > {EXCESS_BOUND}")
        return problems


class _LibraryWorkload(Workload):
    preset = ""
    k1 = k2 = 0
    prox = ""
    mu = 0.0

    def setup(self, pw, seed, workdir):
        cases = []
        for j in range(self.n_cases):
            ds = derive_seed(seed, j)
            scenario = pw.simulate.preset(self.preset, seed=ds)
            cases.append(Case(ds, data=pw.simulate.generate(scenario), truth=scenario.model))
        return cases

    def op(self, pw, case, fit_seed, workdir):
        config = pw.optimizer.FitConfig(mu_target=self.mu, restarts_pool=10, seed=fit_seed)
        res = pw.optimizer.fit_pool(case.data, self.k1, self.k2, self.prox, config)
        return Outcome(empirical_norm=res.empirical_norm, converged=res.converged, result=res)


class StickCi(_LibraryWorkload):
    """One coverage-study replication: two-line fit, covariance, intervals."""

    name = "stick-ci"
    n_cases = 96
    preset = "broken-stick-200"
    k1, k2, prox, mu = 2, 0, "sqerr", 0.01

    def op(self, pw, case, fit_seed, workdir):
        out = super().op(pw, case, fit_seed, workdir)
        cov = pw.inference.plugin_covariance(out.result.model, case.data)
        out.ci = pw.inference.confidence_intervals(out.result, cov, level=0.95)
        return out

    def check(self, pw, case, out):
        problems = super().check(pw, case, out)
        lo, hi = np.asarray(out.ci.lower), np.asarray(out.ci.upper)
        theta = pw.inference.line_parameters(out.result.model)
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            problems.append("non-finite confidence interval")
        elif not np.all((lo <= theta) & (theta <= hi)):
            problems.append("interval does not bracket line_parameters estimate")
        return problems


class StickEntropy(_LibraryWorkload):
    """The stick-ci fit on the same datasets through the entropy prox."""

    name = "stick-entropy"
    n_cases = 96
    preset = "broken-stick-200"
    k1, k2, prox, mu = 2, 0, "entropy", 0.01


class PlanesD4Cli(Workload):
    """`pwafit fit` on a planes-d4 CSV, called in-process through cli.main."""

    name = "planes-d4-cli"
    n_cases = 8
    preset = "planes-d4"

    def setup(self, pw, seed, workdir):
        cases = []
        for j in range(self.n_cases):
            ds = derive_seed(seed, j)
            csv = str(workdir / f"planes-{j}.csv")
            rc = pw.cli.main(["simulate", "--preset", self.preset, "--seed", str(ds), "--out", csv])
            if rc != 0:
                raise RuntimeError(f"pwafit simulate exited with {rc}")
            cases.append(Case(ds, csv=csv))
        return cases

    def truths(self, pw, cases):
        for case in cases:
            scenario = pw.simulate.preset(self.preset, seed=case.data_seed)
            case.truth = scenario.model
            case.data = pw.simulate.generate(scenario)
        super().truths(pw, cases)

    def op(self, pw, case, fit_seed, workdir):
        out_path = workdir / "fit.json"
        for stale in (out_path, Path(f"{out_path}.manifest.json")):
            stale.unlink(missing_ok=True)
        argv = ["fit", "--in", case.csv, "--k1", "2", "--pool", "10", "--mu", "0.1",
                "--seed", str(fit_seed), "--out", str(out_path)]
        return Outcome(exit_code=pw.cli.main(argv), out_path=out_path)

    def check(self, pw, case, out):
        # the CLI's outputs are read here, outside the timed op
        if not out.out_path.exists():
            return [f"exit code {out.exit_code}", "no fit JSON written"]
        with open(out.out_path) as fh:
            fit_json = json.load(fh)
        out.empirical_norm = float(fit_json["empirical_norm"])
        out.converged = bool(fit_json["converged"])
        problems = super().check(pw, case, out)
        if not Path(f"{out.out_path}.manifest.json").exists():
            problems.append("no manifest written")
        model = pw.model.model_from_json_dict(fit_json["model"])
        lib_norm = pw.objective.empirical_norm(model, case.data)
        if not abs(lib_norm - out.empirical_norm) <= CLI_NORM_RTOL * abs(lib_norm):
            problems.append(f"CLI empirical_norm {out.empirical_norm!r} != library {lib_norm!r}")
        return problems


WORKLOADS = {w.name: w for w in (StickCi(), PlanesD4Cli(), StickEntropy())}
