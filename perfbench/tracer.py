"""Spans around pwafit's cross-module entry points, and the per-layer metrics.

The tracer replaces each traced function at the place its caller looks it up
(``pwafit.optimizer.least_squares`` rather than ``pwafit.objective``'s own
name, because the optimizer imported it by name) and restores the originals
on ``uninstall``.  A traced name that no longer exists is skipped, so a later
change that removes it reads as 0 calls.  Spans are kept in flat arrays in
memory and written out with ``save``.
"""
from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

from workloads import MODULES as LAYERS

# (span name, module, attribute looked up by the caller).  The layer of a
# span is the part of its name before the first dot.
POINTS = (
    ("simulate.generate", "simulate", "generate"),
    ("simulate.generate", "cli", "generate"),
    ("simulate.dataset_to_csv", "cli", "dataset_to_csv"),
    ("simulate.dataset_from_csv", "cli", "dataset_from_csv"),
    ("cli.simulate", "cli", "_cmd_simulate"),
    ("cli.fit", "cli", "_cmd_fit"),
    ("optimizer.fit_pool", "optimizer", "fit_pool"),
    ("optimizer.fit_pool", "cli", "fit_pool"),
    ("optimizer.fit", "optimizer", "fit"),
    ("optimizer.bfgs", "optimizer", "_bfgs"),
    ("objective.least_squares", "optimizer", "least_squares"),
    ("objective.least_squares_gradient", "optimizer", "least_squares_gradient"),
    ("objective.empirical_norm", "optimizer", "empirical_norm"),
    ("smoothing.batch", "objective", "_batch_values_weights"),
    ("smoothing.batch", "inference", "_batch_values_weights"),
    ("smoothing.project_simplex", "smoothing", "project_simplex"),
    ("model.unpack", "optimizer", "unpack"),
    ("model.piece_values", "model", "MaxAffine.piece_values"),
    ("inference.plugin_covariance", "inference", "plugin_covariance"),
    ("inference.confidence_intervals", "inference", "confidence_intervals"),
)

SETUP_OP = -1


class Tracer:
    def __init__(self, pw):
        self.pw = pw
        self.names = sorted({name for name, _, _ in POINTS})
        self.start = array("d")
        self.end = array("d")
        self.name = array("h")
        self.parent = array("q")
        self.op = array("q")
        self.op_id = SETUP_OP
        self.fits = []  # (op id, restarts_used, converged, BFGS steps) per optimizer.fit call
        self.bfgs_steps = {}  # op id -> BFGS steps over all stages, failed attempts included
        self._stack = []
        self._saved = []

    def _wrap(self, span_name, fn):
        nid = self.names.index(span_name)
        start, end, name, parent, op, stack = (
            self.start, self.end, self.name, self.parent, self.op, self._stack
        )
        clock = time.perf_counter
        collect = {"optimizer.fit": self._collect_fit, "optimizer.bfgs": self._collect_bfgs}.get(
            span_name
        )

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if collect is not None:
                collect(out)
            return out

        return traced

    def _collect_bfgs(self, out):
        # _bfgs returns (x, f, status, steps, history)
        self.bfgs_steps[self.op_id] = self.bfgs_steps.get(self.op_id, 0) + int(out[3])

    def _collect_fit(self, res):
        steps = sum(int(s) for _, _, s in res.anneal_trace)
        self.fits.append((self.op_id, res.restarts_used, bool(res.converged), steps))

    def install(self):
        for span_name, module, attr in POINTS:
            owner = getattr(self.pw, module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf, None)
            if fn is None:
                continue
            self._saved.append((owner, leaf, fn))
            setattr(owner, leaf, self._wrap(span_name, fn))

    def uninstall(self):
        while self._saved:
            owner, leaf, fn = self._saved.pop()
            setattr(owner, leaf, fn)

    @contextmanager
    def tracing(self, op_id):
        self.op_id = op_id
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def arrays(self):
        start = np.array(self.start, dtype=float)
        end = np.array(self.end, dtype=float)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return {
            "name": np.array(self.name, dtype=np.int16),
            "start": start,
            "end": end,
            "parent": parent,
            "op": np.array(self.op, dtype=np.int64),
            "dur": dur,
            "self": dur - child,
        }

    def save(self, path):
        a = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            **{k: a[k] for k in ("name", "start", "end", "parent", "op")},
        )

    def totals(self, ops):
        """Per span name over the given op ids: calls, seconds and self seconds."""
        a = self.arrays()
        mask = np.isin(a["op"], list(ops))
        out = {}
        for nid, span_name in enumerate(self.names):
            sel = mask & (a["name"] == nid)
            out[span_name] = (
                int(sel.sum()), float(a["dur"][sel].sum()), float(a["self"][sel].sum())
            )
        return out

    def fit_counts(self, ops):
        ops = set(ops)
        rows = [f for f in self.fits if f[0] in ops]
        return {
            "fits": len(rows),
            "restarts": sum(r for _, r, _, _ in rows),
            "converged": sum(c for _, _, c, _ in rows),
            "bfgs_steps": sum(s for _, _, _, s in rows),
            "bfgs_steps_all": sum(self.bfgs_steps.get(op, 0) for op in ops),
        }


def _ratio(num, den):
    return num / den if den else 0.0


def fingerprint(tracer, ops, norms):
    """Exact work counts and the empirical-norm sum of the given ops."""
    t = tracer.totals(ops)
    f = tracer.fit_counts(ops)
    return {
        "ops": len(ops),
        "empirical_norm_sum": f"{sum(norms):.12g}",
        "objective.evals": t["objective.least_squares"][0],
        "optimizer.bfgs_steps": f["bfgs_steps"],
        "optimizer.restarts": f["restarts"],
        "smoothing.project_simplex.calls": t["smoothing.project_simplex"][0],
    }


def layer_metrics(tracer, ops, overhead_s):
    """Per-layer metrics, per op over ``ops``.

    ``simulate.generate.s`` and ``simulate.dataset_to_csv.s`` are the
    exception: they are seconds in the traced set-up.
    """
    n = max(len(ops), 1)
    t = tracer.totals(ops)
    setup = tracer.totals([SETUP_OP])
    f = tracer.fit_counts(ops)

    def calls(name):
        return t[name][0]

    def secs(name):
        return t[name][1]

    evals = calls("objective.least_squares")
    eval_s = secs("objective.least_squares") + secs("objective.least_squares_gradient")
    m = {
        "objective.evals": evals / n,
        "objective.grad_evals": calls("objective.least_squares_gradient") / n,
        "objective.s": (eval_s + secs("objective.empirical_norm")) / n,
        "objective.us_per_eval": 1e6 * _ratio(eval_s, evals),
        "smoothing.batch.calls": calls("smoothing.batch") / n,
        "smoothing.batch.s": secs("smoothing.batch") / n,
        "smoothing.batch_per_eval": _ratio(calls("smoothing.batch"), evals),
        "smoothing.project_simplex.calls": calls("smoothing.project_simplex") / n,
        "smoothing.project_simplex.s": secs("smoothing.project_simplex") / n,
        "smoothing.project_simplex.us_per_call": 1e6
        * _ratio(secs("smoothing.project_simplex"), calls("smoothing.project_simplex")),
        "model.unpack.calls": calls("model.unpack") / n,
        "model.unpack.s": secs("model.unpack") / n,
        "model.piece_values.calls": calls("model.piece_values") / n,
        "model.piece_values.s": secs("model.piece_values") / n,
        "optimizer.fit.calls": calls("optimizer.fit") / n,
        "optimizer.fit.s": secs("optimizer.fit") / n,
        "optimizer.attempts": (f["fits"] + f["restarts"]) / n,
        "optimizer.restarts": f["restarts"] / n,
        "optimizer.converged_frac": _ratio(f["converged"], f["fits"]),
        "optimizer.bfgs_stages": calls("optimizer.bfgs") / n,
        "optimizer.bfgs_steps": f["bfgs_steps"] / n,
        "optimizer.bfgs_steps_all": f["bfgs_steps_all"] / n,
        "optimizer.evals_per_step": _ratio(evals, f["bfgs_steps_all"]),
        "inference.plugin_covariance.s": secs("inference.plugin_covariance") / n,
        "inference.confidence_intervals.s": secs("inference.confidence_intervals") / n,
        "simulate.generate.s": setup["simulate.generate"][1],
        "simulate.dataset_to_csv.s": setup["simulate.dataset_to_csv"][1],
        "simulate.dataset_from_csv.s": secs("simulate.dataset_from_csv") / n,
        "cli.fit.s": secs("cli.fit") / n,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v[2] for k, v in t.items() if k.split(".")[0] == layer) / n
    m["trace.overhead_s"] = overhead_s
    return m
