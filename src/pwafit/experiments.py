"""Drivers for the simulation studies: method comparison, smoothing-parameter
sweep, restart success, confidence-interval coverage, and the three-plane fit.

Each driver returns plain dict/list structures so the CLI can dump them to
CSV/JSON and tests can assert on them directly.
"""
from __future__ import annotations

import dataclasses
import itertools
import time

import numpy as np

from .inference import confidence_intervals, line_parameters, plugin_covariance
from .model import convex_model, param_distance
from .objective import Dataset
from .optimizer import FitConfig, fit, fit_pool
from .simulate import Scenario, generate, preset

__all__ = [
    "compare_methods",
    "mu_sweep",
    "restart_ecdf",
    "coverage_study",
    "three_planes",
    "THREE_PLANE_MODEL",
]

# Fixed three-plane convex model in two dimensions; every piece attains the
# max on part of the [-1, 1]^2 box.
THREE_PLANE_MODEL = convex_model(
    np.array([[1.0, 0.2, 0.0], [-0.8, 0.5, 0.1], [0.1, -1.0, 0.05]])
)


# Settings the studies share or fix; the data sizes and noise levels are
# those of each study's preset.
_PROX = "sqerr"
_MU_EXPONENTS = tuple(round(0.1 * i, 1) for i in range(1, 11))  # mu = n^-e
_ECDF_MU = 0.1
_ECDF_THRESHOLD = 0.1  # a fit with a smaller deviation counts as a success
_COVERAGE_MU = 0.01
_COVERAGE_LEVEL = 0.95
_THREE_PLANES_N = 1000
_THREE_PLANES_MU = 0.1


def _rep_seed(seed: int, rep: int) -> int:
    return int(seed) * 1_000_003 + rep


def compare_methods(
    preset_name: str,
    reps: int = 100,
    mu: float = 0.1,
    pool: int = 10,
    seed: int = 0,
) -> list[dict]:
    """Mean empirical norm and wall time of the smoothed fit vs Nelder-Mead
    on freshly generated datasets from a preset."""
    base = preset(preset_name, seed=seed)
    k1 = base.model.k1
    # a one-piece part2 is affine, so k2 = 0 fits the same class
    k2 = base.model.k2 if base.model.k2 > 1 else 0
    stats = {"smoothed": ([], []), "nelder-mead": ([], [])}
    import scipy.optimize  # Nelder-Mead's deferred import, loaded before any timer starts
    for rep in range(reps):
        rep_seed = _rep_seed(seed, rep)
        data = generate(dataclasses.replace(base, seed=rep_seed))
        cfg = FitConfig(mu_target=mu, restarts_pool=pool, seed=rep_seed)
        for method in ("smoothed", "nelder-mead"):
            t0 = time.perf_counter()
            res = fit_pool(data, k1, k2, _PROX, cfg, method="anneal" if method == "smoothed" else method)
            elapsed = time.perf_counter() - t0
            stats[method][0].append(res.empirical_norm)
            stats[method][1].append(elapsed)
    return [
        {
            "method": method,
            "R_mean": float(np.mean(Rs)),
            "time_mean_s": float(np.mean(ts)),
            "reps": reps,
        }
        for method, (Rs, ts) in stats.items()
    ]


def mu_sweep(reps: int = 10, pool: int = 5, seed: int = 0) -> list[dict]:
    """Mean parameter deviation and fit time as ``mu = n^-e`` shrinks.

    Each replication reuses one dataset across all exponents so the trend
    reflects the smoothing level, not sampling noise.
    """
    study = preset("mu-study")
    truth, n = study.model, study.n
    deviations = {e: [] for e in _MU_EXPONENTS}
    times = {e: [] for e in _MU_EXPONENTS}
    for rep in range(reps):
        rep_seed = _rep_seed(seed, rep)
        data = generate(preset("mu-study", seed=rep_seed))
        for e in _MU_EXPONENTS:
            cfg = FitConfig(mu_target=float(n) ** (-e), restarts_pool=pool, seed=rep_seed)
            t0 = time.perf_counter()
            res = fit_pool(data, truth.k1, 0, _PROX, cfg)
            times[e].append(time.perf_counter() - t0)
            deviations[e].append(param_distance(res.model, truth))
    return [
        {
            "e": e,
            "mu": float(n) ** (-e),
            "deviation_mean": float(np.mean(deviations[e])),
            "time_mean_s": float(np.mean(times[e])),
            "reps": reps,
        }
        for e in _MU_EXPONENTS
    ]


def restart_ecdf(n_fits: int = 200, seed: int = 0) -> dict:
    """Deviation of single fits (no pooling) on the broken-stick scenario."""
    truth = preset("broken-stick-200").model
    deviations = []
    for i in range(n_fits):
        rep_seed = _rep_seed(seed, i)
        data = generate(preset("broken-stick-200", seed=rep_seed))
        cfg = FitConfig(mu_target=_ECDF_MU, restarts_pool=1, seed=rep_seed)
        res = fit(data, truth.k1, 0, _PROX, cfg)
        deviations.append(param_distance(res.model, truth))
    deviations = np.asarray(deviations)
    return {
        "deviations": deviations.tolist(),
        "threshold": _ECDF_THRESHOLD,
        "success_fraction": float(np.mean(deviations < _ECDF_THRESHOLD)),
        "n_fits": n_fits,
    }


def _match_to_truth(est_theta: np.ndarray, true_theta: np.ndarray, block: int) -> np.ndarray:
    """Permutation of estimated line blocks best matching the truth."""
    k = est_theta.size // block
    blocks = est_theta.reshape(k, block)
    best_perm = min(
        itertools.permutations(range(k)),
        key=lambda perm: float(
            np.linalg.norm(blocks[list(perm)].ravel() - true_theta)
        ),
    )
    return np.array(best_perm)


def coverage_study(reps: int = 200, pool: int = 10, seed: int = 0) -> dict:
    """Coverage probabilities and mean lengths of the plug-in confidence
    intervals for the two-line model.

    Reps whose intervals cannot be computed are counted in ``failures``
    and left out of every summary, which are means over the other reps.
    """
    truth = preset("broken-stick-200").model
    true_theta = line_parameters(truth)
    p = true_theta.size
    block = p // 2
    covered, lengths = [], []
    failures = 0
    for rep in range(reps):
        rep_seed = _rep_seed(seed, rep)
        data = generate(preset("broken-stick-200", seed=rep_seed))
        cfg = FitConfig(mu_target=_COVERAGE_MU, restarts_pool=pool, seed=rep_seed)
        res = fit_pool(data, 2, 0, _PROX, cfg)
        try:
            cov = plugin_covariance(res.model, data)
            ci = confidence_intervals(res, cov, level=_COVERAGE_LEVEL)
        except ValueError:
            failures += 1
            continue
        est_theta = line_parameters(res.model)
        perm = _match_to_truth(est_theta, true_theta, block)
        idx = np.concatenate([np.arange(block) + j * block for j in perm])
        lower, upper = ci.lower[idx], ci.upper[idx]
        covered.append((lower <= true_theta) & (true_theta <= upper))
        lengths.append(upper - lower)
    covered = np.reshape(covered, (-1, p))
    lengths = np.reshape(lengths, (-1, p))
    return {
        "parameters": ["a1", "b1", "a2", "b2"] if block == 2 else [f"p{i}" for i in range(p)],
        "coverage": np.mean(covered, axis=0).tolist(),
        "simultaneous_coverage": float(np.mean(covered.all(axis=1))),
        "length_mean": np.mean(lengths, axis=0).tolist(),
        "reps": reps,
        "failures": failures,
        "level": _COVERAGE_LEVEL,
    }


def three_planes(pool: int = 10, seed: int = 0) -> dict:
    """Fit a three-piece convex model to data from the fixed three-plane PWA."""
    truth = THREE_PLANE_MODEL
    data = generate(Scenario(truth, n=_THREE_PLANES_N, noise_sd=0.1, seed=_rep_seed(seed, 0)))
    cfg = FitConfig(mu_target=_THREE_PLANES_MU, restarts_pool=pool, seed=seed)
    res = fit_pool(data, 3, 0, _PROX, cfg)
    return {
        "empirical_norm": res.empirical_norm,
        "deviation": param_distance(res.model, truth),
        "converged": res.converged,
        "n": _THREE_PLANES_N,
    }
