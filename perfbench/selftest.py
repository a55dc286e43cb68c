#!/usr/bin/env python3
"""Self-test of the benchmark: op 0 of each workload passes its checks, the
checks flag deliberately wrong outputs, and the tracer counts exactly.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Exits 0 when every expectation holds.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

from tracer import POINTS, Tracer, fingerprint, layer_metrics
from workloads import WORKLOADS, derive_seed, load_pwafit

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


class Expectations:
    def __init__(self):
        self.failed = []

    def __call__(self, cond, what):
        print(f"{'ok  ' if cond else 'FAIL'} {what}", flush=True)
        if not cond:
            self.failed.append(what)


def flagged(problems, fragment):
    return any(fragment in p for p in problems)


def shifted(pw, model, by=0.3):
    """The same model with part1's intercepts moved up: a deliberately wrong fit."""
    coeffs = model.part1.coeffs.copy()
    coeffs[:, -1] += by
    return pw.model.PwaModel(pw.model.MaxAffine(coeffs), model.part2)


def check_library_workload(pw, wl, case, out, expect):
    name = wl.name
    bad_model = shifted(pw, out.result.model)
    bad_res = dataclasses.replace(
        out.result,
        model=bad_model,
        theta_hat=pw.model.pack(bad_model),
        empirical_norm=pw.objective.empirical_norm(bad_model, case.data),
    )
    bad = dataclasses.replace(out, result=bad_res, empirical_norm=bad_res.empirical_norm)
    if out.ci is not None:
        cov = pw.inference.plugin_covariance(bad_model, case.data)
        bad.ci = pw.inference.confidence_intervals(bad_res, cov, level=0.95)
    expect(flagged(wl.check(pw, case, bad), "excess empirical norm"),
           f"{name}: a wrong model is flagged by the excess-norm bound")
    unconverged = dataclasses.replace(out, converged=False)
    expect(flagged(wl.check(pw, case, unconverged), "did not converge"),
           f"{name}: an unconverged fit is flagged")


def check_stick_intervals(pw, wl, case, out, expect):
    cov = pw.inference.plugin_covariance(out.result.model, case.data)
    # the pack layout (a1, a2, b1, b2) is not the line_parameters layout (a1, b1, a2, b2)
    misplaced = pw.inference.confidence_intervals(out.result.theta_hat[:4], cov, level=0.95)
    expect(flagged(wl.check(pw, case, dataclasses.replace(out, ci=misplaced)), "does not bracket"),
           "stick-ci: intervals centred on the pack layout are flagged")
    lower = out.ci.lower.copy()
    lower[0] = float("nan")
    nonfinite = dataclasses.replace(out.ci, lower=lower)
    expect(flagged(wl.check(pw, case, dataclasses.replace(out, ci=nonfinite)), "non-finite"),
           "stick-ci: a non-finite interval is flagged")


def check_cli_workload(pw, wl, case, out, workdir, expect):
    fit_json = json.loads(out.out_path.read_text())
    fit_json["model"]["coeffs1"][0][-1] += 0.3
    out.out_path.write_text(json.dumps(fit_json))
    expect(flagged(wl.check(pw, case, out), "!= library"),
           "planes-d4-cli: a fit JSON whose model disagrees with its norm is flagged")
    fit_json["empirical_norm"] += 0.01
    out.out_path.write_text(json.dumps(fit_json))
    expect(flagged(wl.check(pw, case, out), "excess empirical norm"),
           "planes-d4-cli: a fit JSON with a poor norm is flagged")
    missing = dataclasses.replace(case, csv=str(workdir / "missing.csv"))
    bad = wl.op(pw, missing, 0, workdir)
    expect(bad.exit_code == 2 and flagged(wl.check(pw, missing, bad), "exit code 2"),
           "planes-d4-cli: a non-zero CLI exit is flagged")


def main() -> int:
    pw = load_pwafit(ROOT)
    originals = (pw.optimizer.fit, pw.model.MaxAffine.piece_values)
    expect = Expectations()
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench_work"))
    try:
        for name, wl in WORKLOADS.items():
            wl_dir = workdir / name
            wl_dir.mkdir()
            cases = wl.setup(pw, SEED, wl_dir)
            wl.truths(pw, cases)
            case = cases[0]
            tracer = Tracer(pw)
            with tracer.tracing(0):
                out = wl.op(pw, case, derive_seed(SEED, 0), wl_dir)
            problems = wl.check(pw, case, out)
            expect(not problems, f"{name}: op 0 passes its checks {problems or ''}")
            metrics = layer_metrics(tracer, [0], 0.0)
            expect(metrics["optimizer.fit.calls"] == 10, f"{name}: 10 pool members traced")
            expect((metrics["smoothing.project_simplex.calls"] == 0) == (name == "stick-entropy"),
                   f"{name}: project_simplex is called only by the sqerr workloads")
            if out.result is not None:
                check_library_workload(pw, wl, case, out, expect)
            if name == "stick-ci":
                again = Tracer(pw)
                with again.tracing(0):
                    out2 = wl.op(pw, case, derive_seed(SEED, 0), wl_dir)
                expect(fingerprint(tracer, [0], [out.empirical_norm])
                       == fingerprint(again, [0], [out2.empirical_norm]),
                       "stick-ci: op 0 repeats its fingerprint exactly")
                expect(abs(metrics["smoothing.batch_per_eval"] - 4.0) < 0.1,
                       "stick-ci: about four smoothing batches per objective evaluation")
                check_stick_intervals(pw, wl, case, out, expect)
            if name == "planes-d4-cli":
                check_cli_workload(pw, wl, case, out, wl_dir, expect)

        # a traced name that no longer exists is skipped and reads as 0 calls
        gone = SimpleNamespace(**vars(pw))
        gone.optimizer = SimpleNamespace(
            **{k: v for k, v in vars(pw.optimizer).items() if k != "_bfgs"}
        )
        tracer = Tracer(gone)
        with tracer.tracing(0):
            wrapped = len(tracer._saved)
        expect(wrapped == len(POINTS) - 1 and layer_metrics(tracer, [0], 0.0)["optimizer.bfgs_stages"] == 0,
               "a removed traced name is skipped and reports 0 calls")
        expect((pw.optimizer.fit, pw.model.MaxAffine.piece_values) == originals,
               "uninstall restores the traced functions")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(expect.failed)} expectation(s) failed")
    return 1 if expect.failed else 0


if __name__ == "__main__":
    sys.exit(main())
