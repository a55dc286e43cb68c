"""Annealed quasi-Newton fitting of piecewise-affine regression models.

The target smoothing level ``mu`` is reached by halving from an initial
value above one; each stage's BFGS run is warm-started from the previous
optimum.  Non-convergence or numerical trouble restarts the whole
schedule from a fresh random initial point.  A gradient-free Nelder-Mead
baseline on the unsmoothed criterion is provided for comparisons.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .model import PwaModel, pack, unpack
from .objective import Dataset, SmoothedLeastSquares, empirical_norm, least_squares
from .smoothing import Prox, SmoothingSpec

__all__ = [
    "FitConfig",
    "FitResult",
    "anneal_schedule",
    "fit",
    "fit_pool",
    "nelder_mead_fit",
]

_BOX_LIMIT = 1e4  # parameters beyond this magnitude count as a numerical runaway


@dataclass(frozen=True)
class FitConfig:
    mu_target: float = 0.1
    tolerance: float = 1e-5
    init_radius: float = 1.0
    max_newton_steps: int = 200
    max_restarts: int = 50
    restarts_pool: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        for value in (self.mu_target, self.tolerance, self.init_radius):
            if not np.isfinite(value) or value <= 0:
                raise ValueError(
                    "mu_target, tolerance and init_radius must be positive and finite"
                )
        if self.max_newton_steps < 1 or self.max_restarts < 0 or self.restarts_pool < 1:
            raise ValueError("invalid iteration/restart configuration")


@dataclass
class FitResult:
    theta_hat: np.ndarray
    model: PwaModel
    objective_value: float
    empirical_norm: float
    anneal_trace: list[tuple[float, float, int]] = field(default_factory=list)
    restarts_used: int = 0
    converged: bool = True


def anneal_schedule(mu: float) -> list[float]:
    """Stage values ``2^(m0-m) * mu`` for ``m = 0..m0``, ending at ``mu``.

    ``m0`` is the smallest integer with ``2^m0 * mu > 1``.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    m0 = 0
    while (2.0**m0) * mu <= 1.0:
        m0 += 1
    return [(2.0 ** (m0 - m)) * mu for m in range(m0 + 1)]


def _bfgs(objective, x0, tol, max_steps):
    """Minimize with a self-contained BFGS (inverse-Hessian update, Armijo
    backtracking).

    ``objective.value(x)`` returns the objective at ``x``;
    ``objective.gradient()`` returns the gradient at the point of the last
    ``value`` call, so gradients are formed only at accepted points.
    Returns ``(x, f, status, steps, history)`` with status one of
    ``"converged"``, ``"maxiter"``, ``"instability"``.  ``history`` is the
    sequence of accepted objective values (non-increasing).
    """
    x = np.array(x0, dtype=float)
    f = objective.value(x)
    g = objective.gradient()
    history = [f]
    if not (np.isfinite(f) and np.all(np.isfinite(g))):
        return x, f, "instability", 0, history
    n = x.size
    H = np.eye(n)
    for step in range(1, max_steps + 1):
        if np.max(np.abs(g)) < tol:
            return x, f, "converged", step - 1, history
        p = -H @ g
        gp = float(g @ p)
        if not np.isfinite(gp) or gp >= 0.0:
            H = np.eye(n)
            p = -g
            gp = -float(g @ g)
        t = 1.0
        accepted = False
        for _ in range(60):
            xn = x + t * p
            fn = objective.value(xn)
            if np.isfinite(fn) and fn <= f + 1e-4 * t * gp:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            # no descent possible along p; a near-zero gradient means we are done
            if np.max(np.abs(g)) < math.sqrt(tol):
                return x, f, "converged", step, history
            return x, f, "instability", step, history
        gn = objective.gradient()
        if np.max(np.abs(xn)) > _BOX_LIMIT or not np.all(np.isfinite(gn)):
            return xn, fn, "instability", step, history
        s = t * p
        y = gn - g
        sy = float(s @ y)
        if sy > 1e-12 * (np.linalg.norm(s) * np.linalg.norm(y) + 1e-300):
            rho = 1.0 / sy
            Hy = H @ y
            # BFGS inverse update: H <- (I - rho s y')H(I - rho y s') + rho s s'
            H = H - rho * (np.outer(s, Hy) + np.outer(Hy, s)) + rho * (
                rho * float(y @ Hy) + 1.0
            ) * np.outer(s, s)
        history.append(fn)
        if max(np.max(np.abs(gn)), np.max(np.abs(s))) < tol:
            return xn, fn, "converged", step, history
        x, f, g = xn, fn, gn
    return x, f, "maxiter", max_steps, history


def _default_rng(seed: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), int(index))))


def _free_size(data: Dataset, k1: int, k2: int) -> int:
    """Length of the optimized vector; ``k2 = 0`` pins part2 to the zero
    part and leaves it out."""
    if k1 < 1 or k2 < 0:
        raise ValueError("k1 must be >= 1 and k2 >= 0")
    return (k1 + k2) * (data.d + 1)


def _make_result(data, k1, k2, spec, v_free, trace, restarts, converged) -> FitResult:
    v = np.asarray(v_free, dtype=float)
    full = np.concatenate([v, np.zeros(data.d + 1)]) if k2 == 0 else v
    model = unpack(full, k1, max(k2, 1), data.d).normalize()
    return FitResult(
        theta_hat=pack(model),
        model=model,
        objective_value=least_squares(model, spec, data),
        empirical_norm=empirical_norm(model, data),
        anneal_trace=list(trace),
        restarts_used=restarts,
        converged=converged,
    )


def fit(
    data: Dataset,
    k1: int,
    k2: int,
    prox: Prox | str,
    config: FitConfig,
    rng: np.random.Generator | None = None,
) -> FitResult:
    """Annealed quasi-Newton least-squares fit.

    On non-convergence or numerical failure the whole annealing schedule
    restarts from a fresh random point, up to ``config.max_restarts``
    times; if all attempts fail the best incumbent is returned with
    ``converged=False``.
    """
    spec = SmoothingSpec(prox, config.mu_target)
    n_free = _free_size(data, k1, k2)
    if rng is None:
        rng = _default_rng(config.seed)
    stages = anneal_schedule(config.mu_target)
    r = config.init_radius
    best: FitResult | None = None
    for attempt in range(config.max_restarts + 1):
        v = rng.uniform(-r, r, n_free)
        trace: list[tuple[float, float, int]] = []
        failed = False
        for mu_m in stages:
            objective = SmoothedLeastSquares(data.X, data.Y, k1, k2, spec.prox, mu_m)
            v_new, f_new, status, steps, _ = _bfgs(
                objective, v, config.tolerance, config.max_newton_steps
            )
            if status != "converged":
                failed = True
                v = v_new if np.all(np.isfinite(v_new)) else v
                break
            v = v_new
            trace.append((mu_m, f_new, steps))
        if not failed:
            return _make_result(data, k1, k2, spec, v, trace, attempt, True)
        if np.all(np.isfinite(v)) and np.max(np.abs(v)) <= _BOX_LIMIT:
            candidate = _make_result(data, k1, k2, spec, v, trace, attempt, False)
            if best is None or candidate.empirical_norm < best.empirical_norm:
                best = candidate
    if best is None:
        zero = np.zeros(n_free)
        best = _make_result(data, k1, k2, spec, zero, [], config.max_restarts, False)
    best.restarts_used = config.max_restarts
    return best


def fit_pool(
    data: Dataset,
    k1: int,
    k2: int,
    prox: Prox | str,
    config: FitConfig,
    method: str = "anneal",
) -> FitResult:
    """Best-of-pool fit: run ``restarts_pool`` independent fits and keep the
    one with the smallest empirical norm.

    Pool members use seeds derived from ``config.seed``; a pool of one is
    identical to a single :func:`fit`.
    """
    results = []
    for i in range(config.restarts_pool):
        rng = _default_rng(config.seed, i)
        if method == "anneal":
            results.append(fit(data, k1, k2, prox, config, rng=rng))
        elif method == "nelder-mead":
            results.append(nelder_mead_fit(data, k1, k2, config, rng=rng))
        else:
            raise ValueError(f"unknown method {method!r}")
    converged = [res for res in results if res.converged]
    candidates = converged if converged else results
    return min(candidates, key=lambda res: res.empirical_norm)


def nelder_mead_fit(
    data: Dataset,
    k1: int,
    k2: int,
    config: FitConfig,
    rng: np.random.Generator | None = None,
) -> FitResult:
    """Gradient-free baseline: Nelder-Mead on the unsmoothed criterion."""
    n_free = _free_size(data, k1, k2)
    if rng is None:
        rng = _default_rng(config.seed)
    r = config.init_radius
    x0 = rng.uniform(-r, r, n_free)
    simplex = np.vstack([x0, x0 + 0.1 * r * np.eye(n_free)])
    # the unsmoothed criterion is the mu = 0 case of the kernel
    objective = SmoothedLeastSquares(data.X, data.Y, k1, k2, Prox.SQUARED_ERROR, 0.0)
    res = minimize(
        objective.value,
        x0,
        method="Nelder-Mead",
        options={
            "initial_simplex": simplex,
            "maxiter": 400 * n_free,
            "maxfev": 400 * n_free,
            "xatol": config.tolerance,
            "fatol": config.tolerance**2,
        },
    )
    return _make_result(data, k1, k2, None, res.x, [], 0, bool(res.success))
