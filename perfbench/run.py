#!/usr/bin/env python3
"""pwafit benchmark: time fits end to end, or trace them layer by layer.

    python3 perfbench/run.py --workload stick-ci --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; pwafit is imported from ``src/``.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Earlier lines record the machine, the
fingerprint of op 0 and extra figures.  See ``perfbench/NOTES.md``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3  # set-up is measured this many times; setup_s is the median

_IMPORT_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import pwafit, pwafit.cli\n"
    "print(time.perf_counter() - t)\n"
    "print(pwafit.__file__)\n"
)


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_import_s() -> float:
    """Seconds a fresh interpreter takes to import pwafit from ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run(
        [sys.executable, "-c", _IMPORT_CODE],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    seconds, path = res.stdout.split("\n")[:2]
    if Path(path).resolve().parent != (ROOT / "src" / "pwafit").resolve():
        raise RuntimeError(f"child imported pwafit from {path}")
    return float(seconds)


def blas_info(np) -> dict:
    """BLAS library name, version and thread count as numpy reports them."""
    import ctypes
    import glob

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def machine_info(pw) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pwafit": pw.pkg.__version__,
        "blas": blas_info(np),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    t_start = time.perf_counter()
    nproc = len(os.sched_getaffinity(0))
    # one process, and BLAS may use no more threads than there are cores;
    # set before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(nproc))

    from workloads import WORKLOADS, derive_seed, load_pwafit

    args = parse_args(argv, WORKLOADS)
    pw = load_pwafit(ROOT)
    import_s = [time.perf_counter() - t_start]

    from tracer import SETUP_OP, Tracer, fingerprint, layer_metrics

    wl = WORKLOADS[args.workload]
    tracer = Tracer(pw)
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=ROOT / ".perfbench_work"))
    try:
        # set-up: import plus data generation, SETUP_REPS times; the first
        # import is this process's own, the others are fresh interpreters
        setup_s = []
        for rep in range(SETUP_REPS):
            if rep > 0:
                import_s.append(child_import_s())
            repdir = workdir / f"setup{rep}"
            repdir.mkdir()
            traced = args.trace and rep == SETUP_REPS - 1
            t = time.perf_counter()
            with tracer.tracing(SETUP_OP) if traced else nullcontext():
                cases = wl.setup(pw, args.seed, repdir)
            setup_s.append(import_s[rep] + time.perf_counter() - t)
        wl.truths(pw, cases)

        attempted = failed = 0
        ratios, excess = [], []

        def run_op(i, traced):
            """Run, time and check op ``i``; return its seconds and fitted norm."""
            nonlocal attempted, failed
            case = cases[i % len(cases)]
            attempted += 1
            norm = math.nan
            t = time.perf_counter()
            try:
                with tracer.tracing(i) if traced else nullcontext():
                    out = wl.op(pw, case, derive_seed(args.seed, i), workdir)
                dt = time.perf_counter() - t
                problems = wl.check(pw, case, out)
                norm = out.empirical_norm
            except Exception:
                dt = time.perf_counter() - t
                problems = [traceback.format_exc()]
            if problems:
                failed += 1
                print(f"op {i} failed: {'; '.join(problems)}", file=sys.stderr)
            if math.isfinite(norm):
                ratios.append(norm / case.true_norm)
                excess.append(norm - case.true_norm)
            return dt, norm

        # op 0 runs traced and untimed: it warms up and gives the fingerprint
        _, norm0 = run_op(0, traced=True)
        fp = fingerprint(tracer, [0], [norm0])
        durations, traced_durations = [], []
        deadline = time.perf_counter() + args.seconds
        i = 1
        while i == 1 or time.perf_counter() < deadline:
            durations.append(run_op(i, traced=False)[0])
            if args.trace:
                traced_durations.append(run_op(i, traced=True)[0])
            i += 1
        timed_ops = list(range(1, i))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if not ratios:
            raise RuntimeError("no op produced a fitted model")
        p50 = statistics.median(durations)
        info = {
            "ops_timed": len(durations),
            "op_s.samples": durations,
            "fail_frac": failed / attempted,
            "excess_norm.mean": statistics.fmean(excess) if excess else None,
            "setup_s.samples": setup_s,
            "import_s.samples": import_s,
            "wall_s": time.perf_counter() - t_start,
        }
        if len(durations) >= 100:  # at least 10 samples beyond the 90th percentile
            info["op_s.p90"] = statistics.quantiles(durations, n=10)[-1]
        if args.trace:
            overhead = statistics.median(traced_durations) - p50
            metrics = layer_metrics(tracer, timed_ops, overhead)
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.save(out_dir / f"trace-{wl.name}.npz")
        else:
            metrics = {
                "op_s.p50": p50,
                "ops_per_s": len(durations) / sum(durations),
                "setup_s": statistics.median(setup_s),
                "ok_frac": 1.0 - failed / attempted,
                "norm_ratio.mean": statistics.fmean(ratios),
                "peak_rss_mb": peak_rss_mb,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    print(json.dumps({"machine": machine_info(pw)}))
    print(json.dumps({"fingerprint": {"workload": wl.name, "seed": args.seed, **fp}}))
    print(json.dumps({"info": info}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
