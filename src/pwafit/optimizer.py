"""Annealed quasi-Newton fitting of piecewise-affine regression models.

The target smoothing level ``mu`` is reached by halving from an initial
value above one; each stage's BFGS run is warm-started from the previous
stage's optimum and the inverse Hessian its run ended with.  Non-convergence
or numerical trouble restarts the whole schedule from a fresh random initial
point and the identity.  The members of a pool run in
lockstep: one BFGS engine holds their stacked state and evaluates their
points together, one kernel ``evaluate`` call per round.  A gradient-free
Nelder-Mead baseline on the unsmoothed criterion is available through
``fit_pool(..., method="nelder-mead")`` for comparisons.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import PwaModel, pack, unpack
from .objective import _UNSMOOTHED, Dataset, SmoothedLeastSquares
from .smoothing import Prox, SmoothingSpec

__all__ = [
    "FitConfig",
    "FitResult",
    "anneal_schedule",
    "fit",
    "fit_pool",
]

_BOX_LIMIT = 1e4  # parameters beyond this magnitude count as a numerical runaway
_INIT_RADIUS = 1.0  # random initial points are uniform on [-r, r]^m
_MAX_NEWTON_STEPS = 200  # BFGS steps per anneal stage
_MAX_RESTARTS = 50  # fresh attempts after the first one fails


@dataclass(frozen=True)
class FitConfig:
    mu_target: float = 0.1
    tolerance: float = 1e-5
    restarts_pool: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        for value in (self.mu_target, self.tolerance):
            if not np.isfinite(value) or value <= 0:
                raise ValueError("mu_target and tolerance must be positive and finite")
        for name, kind, least in (("seed", "non-negative", 0), ("restarts_pool", "positive", 1)):
            value = getattr(self, name)
            # a bool is an int to Python, but not a seed or a pool size
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
                raise ValueError(f"{name} must be a {kind} integer, got {value!r}")


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
    if not 0 < mu < math.inf:
        raise ValueError(f"mu must be positive and finite, got {mu!r}")
    # ldexp scales by a power of two exactly, and 2^m0 itself may overflow
    m0 = 0
    while math.ldexp(mu, m0) <= 1.0:
        m0 += 1
    return [math.ldexp(mu, m0 - m) for m in range(m0 + 1)]


_MAX_BACKTRACKS = 60


class _LockstepBfgs:
    """BFGS runs of several members advanced in lockstep (inverse-Hessian
    update, Armijo backtracking).

    Each round every running member submits one point: its start point or
    its next Armijo trial.  One ``evaluate(members, points)`` call per round
    returns the values and gradients of the whole ``(len(members), m)``
    stack; the gradient of a rejected trial goes unused.  A start is step
    0: a zero step to the start point, accepted whatever its value, through
    the same accept path as every other step; its zero step takes no
    update, so a run starts from the identity or from the inverse Hessian
    the member's last run ended with.  Every member keeps its own iterate,
    inverse Hessian, Armijo step, step count and status, so it takes exactly
    the steps it would take alone.

    One stop test ends a run at its current step, in the scalar loop's
    order: converged if ``max|g|`` and ``max|s|`` are below ``tol``, else
    maxiter at ``max_steps``, else converged if ``max|g| < tol``.  ``t``
    starts at 1 and only halves; after ``_MAX_BACKTRACKS`` rejections the
    run ends converged if ``max|g| < sqrt(tol)``, else in instability, as it
    does on a non-finite value or gradient or a step out of the box.

    The state holds one row per running member, in member order; a member
    whose run ended and that is not started again leaves it next round.
    """

    _ROW_STATE = ("ids", "x", "g", "p", "H", "f", "gp", "t", "step", "alive")

    def __init__(self, members: int, size: int, tol: float, max_steps: int):
        self.tol, self.max_steps = tol, max_steps
        self.ids = np.arange(members)
        self.x = np.zeros((members, size))
        self.g = np.zeros((members, size))
        self.p = np.zeros((members, size))
        self.H = np.zeros((members, size, size))
        self.f = np.zeros(members)
        self.gp = np.zeros(members)
        self.t = np.ones(members)
        self.step = np.zeros(members, dtype=int)
        self.alive = np.zeros(members, dtype=bool)
        self._ended: list[tuple[int, np.ndarray, float, str, int]] = []

    @property
    def running(self) -> bool:
        return bool(_count(self.alive))

    def start(self, i: int, x0: np.ndarray, keep_H: bool = False) -> None:
        """Begin a run of member ``i`` from ``x0``, with the identity as its
        inverse Hessian or, with ``keep_H``, the one its last run ended with;
        ``i`` must still hold a row, so a member is started again in the
        round its run ended."""
        row = int(np.searchsorted(self.ids, i))
        # the start is step 0: a zero step to x0 (t > 0, and x0 + t * -0.0 is
        # x0 bit for bit)
        self.x[row], self.p[row] = x0, -0.0
        if not keep_H:
            self.H[row] = np.eye(self.x.shape[1])
        self.step[row] = 0
        self.alive[row] = True

    def round(self, evaluate) -> list[tuple[int, np.ndarray, float, str, int]]:
        """Advance every running member by one evaluation.

        Returns the runs that ended, as ``(member, x, f, status, steps)`` with
        status one of ``"converged"``, ``"maxiter"``, ``"instability"``.
        """
        if _count(self.alive) < self.ids.size:
            keep = self.alive
            for name in self._ROW_STATE:
                setattr(self, name, getattr(self, name)[keep])
        self._ended = []
        tp = self.t[:, None] * self.p
        trial = self.x + tp
        ft, G = evaluate(self.ids, trial)
        armijo = np.isfinite(ft) & (ft <= self.f + 1e-4 * self.t * self.gp)
        accepted = (self.step == 0) | armijo
        n_acc = _count(accepted)
        if n_acc < accepted.size:
            self._reject((~accepted).nonzero()[0])
        if n_acc == accepted.size:
            self._accept(slice(None), trial, tp, ft, G)
        elif n_acc:
            rows = accepted.nonzero()[0]
            self._accept(rows, trial[rows], tp[rows], ft[rows], G[rows])
        return self._ended

    def _end(self, rows, status: str) -> None:
        for row in np.arange(self.ids.size)[rows]:
            member, x, f = int(self.ids[row]), self.x[row].copy(), float(self.f[row])
            self._ended.append((member, x, f, status, int(self.step[row])))
        self.alive[rows] = False

    def _accept(self, rows, xn, s, fn, gn) -> None:
        """Accepted trial points ``xn``, reached by steps ``s``, and start
        points: the runaway test, the inverse-Hessian update, the stop test
        and, for a run that goes on, the next direction with a unit step.  A
        start's zero step takes no update."""
        gmax = np.maximum.reduce(np.abs(gn), axis=1)
        absx = np.abs(xn)
        # only a start can have a non-finite value (the Armijo test rejects
        # one), and a start is not held to the box
        if not (
            math.isfinite(np.add.reduce(fn))
            and np.maximum.reduce(gmax) < np.inf
            and np.maximum.reduce(absx, axis=None) <= _BOX_LIMIT
        ):
            out = (np.maximum.reduce(absx, axis=1) > _BOX_LIMIT) & (self.step[rows] > 0)
            bad = ~(np.isfinite(fn) & (gmax < np.inf)) | out
            worse = _sub(rows, bad)
            self.x[worse], self.f[worse] = xn[bad], fn[bad]
            self._end(worse, "instability")
            ok = ~bad
            rows, fn, gn, xn, s, gmax = _sub(rows, ok), fn[ok], gn[ok], xn[ok], s[ok], gmax[ok]
        H = self.H[rows]
        y = gn - self.g[rows]
        # s'y, s's and y'y in one stacked product
        sy, ss, yy = _dots(np.concatenate([s, s, y]), np.concatenate([y, s, y])).reshape(3, -1)
        update = sy > 1e-12 * (np.sqrt(ss) * np.sqrt(yy) + 1e-300)
        n_up = _count(update)
        if n_up:
            if n_up == update.size:
                Hu, su, yu, rho = H, s, y, 1.0 / sy
            else:
                Hu, su, yu, rho = H[update], s[update], y[update], 1.0 / sy[update]
            Hy = (Hu @ yu[:, :, None])[:, :, 0]
            c = rho * (rho * _dots(yu, Hy) + 1.0)
            sHy = su[:, :, None] * Hy[:, None, :]
            # H <- (I - rho s y')H(I - rho y s') + rho s s'
            Hu = (
                Hu
                - rho[:, None, None] * (sHy + sHy.transpose(0, 2, 1))
                + c[:, None, None] * (su[:, :, None] * su[:, None, :])
            )
            if n_up == update.size:
                H = Hu
            else:
                H[update] = Hu
            self.H[rows] = H
        self.x[rows], self.f[rows], self.g[rows] = xn, fn, gn
        # the scalar loop's order: a small gradient and step, the step
        # limit, a small gradient
        conv = gmax < self.tol
        smax = np.maximum.reduce(np.abs(s), axis=1)
        maxed = (self.step[rows] >= self.max_steps) & ~(conv & (smax < self.tol))
        conv &= ~maxed
        stop = conv | maxed
        if _count(stop):
            self._end(_sub(rows, conv), "converged")
            self._end(_sub(rows, maxed), "maxiter")
            go = ~stop
            rows, gn, H = _sub(rows, go), gn[go], H[go]
        self.step[rows] += 1
        # the quasi-Newton direction, or steepest descent if it is not a
        # descent direction
        p = (-H @ gn[:, :, None])[:, :, 0]
        gp = _dots(gn, p)
        reset = ~np.isfinite(gp) | (gp >= 0.0)
        if _count(reset):
            self.H[_sub(rows, reset)] = np.eye(self.x.shape[1])
            p[reset] = -gn[reset]
            gp[reset] = -_dots(gn[reset], gn[reset])
        self.p[rows], self.gp[rows], self.t[rows] = p, gp, 1.0

    def _reject(self, rows) -> None:
        """Rejected trial points: halve the step, or give up after the last
        (after ``k`` rejections ``t`` is exactly ``2^-k``)."""
        t = self.t[rows] * 0.5
        self.t[rows] = t
        out = t <= 0.5**_MAX_BACKTRACKS
        if _count(out):
            # no descent possible along p; a near-zero gradient means we are done
            ro = rows[out]
            flat = np.maximum.reduce(np.abs(self.g[ro]), axis=1) < math.sqrt(self.tol)
            self._end(ro[flat], "converged")
            self._end(ro[~flat], "instability")


_count = np.count_nonzero


def _sub(rows, mask: np.ndarray):
    """The rows of ``rows`` (a slice over all rows, or an index array) where
    ``mask`` holds."""
    if _count(mask) == mask.size:
        return rows
    return mask.nonzero()[0] if isinstance(rows, slice) else rows[mask]


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products, each summed as ``a[i] @ b[i]`` sums it."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _default_rng(seed: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), int(index))))


def _make_result(kernel, spec, v_free, trace, restarts, converged) -> FitResult:
    v = np.asarray(v_free, dtype=float)
    full = np.concatenate([v, np.zeros(kernel.d + 1)]) if kernel.k2 == 0 else v
    model = unpack(full, kernel.k1, max(kernel.k2, 1), kernel.d).normalize()
    theta = pack(model)
    free = theta[: kernel.size]  # k2 = 0 leaves the pinned zero part out
    return FitResult(
        theta_hat=theta,
        model=model,
        objective_value=kernel.value(free, spec.mu),
        empirical_norm=kernel.value(free, 0.0),
        anneal_trace=list(trace),
        restarts_used=restarts,
        converged=converged,
    )


@dataclass
class _Member:
    """Anneal state of one pool member: its rng, attempt, stage, the start
    point of its current stage and its best failed attempt."""

    rng: np.random.Generator
    attempt: int = 0
    stage: int = 0
    v: np.ndarray | None = None
    trace: list[tuple[float, float, int]] = field(default_factory=list)
    best: FitResult | None = None
    result: FitResult | None = None


def _anneal(
    data: Dataset,
    k1: int,
    k2: int,
    spec: SmoothingSpec,
    config: FitConfig,
    rngs: list[np.random.Generator],
) -> list[FitResult]:
    """Annealed fits of a pool, one member per rng, run in lockstep.

    Each member anneals ``mu`` down the schedule of ``spec.mu`` and restarts
    the schedule from a fresh draw of its own rng on failure; its stage runs
    share one BFGS engine and one kernel ``evaluate`` call per round with the
    other members, at whatever stage each member is.  Member ``i``'s result
    is the one a pool of one with rng ``rngs[i]`` gives.
    """
    kernel = SmoothedLeastSquares(data.X, data.Y, k1, k2, spec.prox)
    stages = anneal_schedule(spec.mu)
    bfgs = _LockstepBfgs(len(rngs), kernel.size, config.tolerance, _MAX_NEWTON_STEPS)
    members = [_Member(rng) for rng in rngs]
    mu = np.empty(len(rngs))

    def begin_attempt(i: int) -> None:
        m = members[i]
        m.v, m.trace, m.stage = m.rng.uniform(-_INIT_RADIUS, _INIT_RADIUS, kernel.size), [], 0
        begin_stage(i)

    def begin_stage(i: int) -> None:
        mu[i] = stages[members[i].stage]
        # a later stage's minimum lies close to the last one's, and so does
        # its curvature
        bfgs.start(i, members[i].v, keep_H=members[i].stage > 0)

    for i in range(len(members)):
        begin_attempt(i)
    while bfgs.running:
        for i, x, f, status, steps in bfgs.round(lambda idx, pts: kernel.evaluate(pts, mu[idx])):
            m = members[i]
            if status == "converged":
                m.v = x
                m.trace.append((stages[m.stage], f, steps))
                m.stage += 1
                if m.stage < len(stages):
                    begin_stage(i)
                else:
                    m.result = _make_result(kernel, spec, x, m.trace, m.attempt, True)
                continue
            v = x if np.all(np.isfinite(x)) else m.v
            if np.all(np.isfinite(v)) and np.max(np.abs(v)) <= _BOX_LIMIT:
                # a failed attempt is returned only once every attempt failed
                candidate = _make_result(kernel, spec, v, m.trace, _MAX_RESTARTS, False)
                if m.best is None or candidate.empirical_norm < m.best.empirical_norm:
                    m.best = candidate
            m.attempt += 1
            if m.attempt <= _MAX_RESTARTS:
                begin_attempt(i)
                continue
            if m.best is None:
                zero = np.zeros(kernel.size)
                m.best = _make_result(kernel, spec, zero, [], _MAX_RESTARTS, False)
            m.result = m.best
    return [m.result for m in members]


def fit(data: Dataset, k1: int, k2: int, prox: Prox | str, config: FitConfig) -> FitResult:
    """Annealed quasi-Newton least-squares fit: member 0 of :func:`fit_pool`.

    ``mu`` is halved from above one down to ``config.mu_target``, each stage
    a BFGS run of at most 200 steps warm-started at the previous optimum with
    the inverse Hessian the previous run ended with.  On non-convergence or
    numerical failure the whole schedule restarts from a fresh random point
    and the identity, up to 50 times; if all attempts fail the best
    incumbent is returned with ``converged=False``.
    """
    spec = SmoothingSpec(prox, config.mu_target)
    return _anneal(data, k1, k2, spec, config, [_default_rng(config.seed)])[0]


def fit_pool(
    data: Dataset,
    k1: int,
    k2: int,
    prox: Prox | str,
    config: FitConfig,
    method: str = "anneal",
) -> FitResult:
    """Best-of-pool fit: ``restarts_pool`` independent fits, keeping the
    converged one with the smallest empirical norm (the smallest overall if
    none converged).

    Member ``i`` draws from ``SeedSequence((config.seed, i))``.  The annealed
    members run in lockstep, each with its own rng stream, Armijo steps and
    restarts, so each member's numbers are those of a pool of one with its
    rng, and a pool of one is a single :func:`fit`.  ``method="nelder-mead"``
    fits each member by the gradient-free baseline instead.
    """
    rngs = [_default_rng(config.seed, i) for i in range(config.restarts_pool)]
    if method == "anneal":
        results = _anneal(data, k1, k2, SmoothingSpec(prox, config.mu_target), config, rngs)
    elif method == "nelder-mead":
        results = [_nelder_mead(data, k1, k2, config, rng) for rng in rngs]
    else:
        raise ValueError(f"unknown method {method!r}")
    converged = [res for res in results if res.converged]
    candidates = converged if converged else results
    return min(candidates, key=lambda res: res.empirical_norm)


def _nelder_mead(
    data: Dataset, k1: int, k2: int, config: FitConfig, rng: np.random.Generator
) -> FitResult:
    """Gradient-free baseline: Nelder-Mead on the unsmoothed criterion."""
    from scipy.optimize import minimize  # deferred: the smoothed fit needs no scipy

    objective = SmoothedLeastSquares(data.X, data.Y, k1, k2, _UNSMOOTHED.prox)
    n_free = objective.size
    x0 = rng.uniform(-_INIT_RADIUS, _INIT_RADIUS, n_free)
    simplex = np.vstack([x0, x0 + 0.1 * _INIT_RADIUS * np.eye(n_free)])
    res = minimize(
        lambda v: objective.value(v, _UNSMOOTHED.mu),
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
    return _make_result(objective, _UNSMOOTHED, res.x, [], 0, bool(res.success))
