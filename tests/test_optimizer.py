import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from pwafit import objective, optimizer
from pwafit.model import convex_model
from pwafit.objective import Dataset, empirical_norm
from pwafit.optimizer import (
    FitConfig,
    anneal_schedule,
    fit,
    fit_pool,
)
from pwafit.objective import SmoothedLeastSquares
from pwafit.optimizer import _LockstepBfgs, _anneal, _default_rng
from pwafit.smoothing import SmoothingSpec
from pwafit.inference import hinge_fit_1d
from pwafit.simulate import Scenario, generate, preset


def test_anneal_schedule_examples():
    assert anneal_schedule(0.1) == [1.6, 0.8, 0.4, 0.2, 0.1]
    assert anneal_schedule(2.0) == [2.0]
    assert anneal_schedule(0.5) == [2.0, 1.0, 0.5]
    # the smallest subnormal needs m0 = 1075, past where 2.0**m0 overflows
    tiny = anneal_schedule(5e-324)
    assert len(tiny) == 1076 and tiny[-1] == 5e-324 and 1.0 < tiny[0] <= 2.0
    for mu in (0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            anneal_schedule(mu)


def test_config_validation():
    bad = [
        {"mu_target": 0.0},
        {"tolerance": -1.0},
        {"restarts_pool": 0},
        {"mu_target": np.nan},
        {"mu_target": np.inf},
        {"tolerance": np.nan},
        {"tolerance": np.inf},
        # not integers: a float, even a whole one, or a bool
        {"seed": 1.5},
        {"seed": 1.0},
        {"seed": True},
        {"restarts_pool": 2.5},
        {"restarts_pool": True},
        {"restarts_pool": np.float64(2.0)},
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            FitConfig(**kwargs)
    cfg = FitConfig(seed=np.int64(3), restarts_pool=np.int32(2))
    assert (cfg.seed, cfg.restarts_pool) == (3, 2)


def test_config_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        FitConfig(seed=-1)
    assert FitConfig(seed=0).seed == 0


class QuadraticStack:
    """Member i minimizes 0.5 x'A_i x - b_i'x."""

    def __init__(self, A, b):
        self.A, self.b = np.asarray(A), np.asarray(b)

    def evaluate(self, members, X):
        Ax = (self.A[members] @ X[:, :, None])[..., 0]
        f = 0.5 * np.sum(X * Ax, axis=1) - np.sum(self.b[members] * X, axis=1)
        return f, Ax - self.b[members]


class Counted:
    """``problem`` with a count of the evaluations of each member."""

    def __init__(self, problem, members):
        self.problem, self.evals = problem, np.zeros(members, dtype=int)

    def evaluate(self, members, X):
        np.add.at(self.evals, members, 1)
        return self.problem.evaluate(members, X)


def run_bfgs(objective, X0, tol, max_steps, accepted=None, X1=None):
    """Run one BFGS member per row of X0 to its end; (x, f, status, steps)
    each.  ``accepted[i]`` gets member i's value after each of its rounds.
    With ``X1``, member i starts again from ``X1[i]`` in the round its first
    run ended, keeping its inverse Hessian, and both runs are returned."""
    bfgs = _LockstepBfgs(len(X0), X0.shape[1], tol, max_steps)
    for i, x0 in enumerate(X0):
        bfgs.start(i, x0)
    runs = [[] for _ in X0]
    while bfgs.running:
        for i, *res in bfgs.round(objective.evaluate):
            runs[i].append(tuple(res))
            if X1 is not None and len(runs[i]) == 1:
                bfgs.start(i, X1[i], keep_H=True)
        if accepted is not None:
            for i, f in zip(bfgs.ids, bfgs.f):
                accepted[i].append(f)
    return runs if X1 is not None else [run for run, in runs]


def test_bfgs_on_quadratic():
    A = np.array([[3.0, 1.0], [1.0, 2.0]])
    b = np.array([1.0, -1.0])
    target = np.linalg.solve(A, b)
    history = [[]]
    [(x, f, status, steps)] = run_bfgs(
        QuadraticStack([A], [b]), np.array([[5.0, -7.0]]), 1e-8, 100, history
    )
    history = history[0]
    assert status == "converged" and history[-1] == f
    assert np.allclose(x, target, atol=1e-6)
    assert len(history) > steps > 1
    assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))


def test_lockstep_bfgs_members_equal_solo_runs():
    # an ill-conditioned and a round quadratic converge at different step
    # counts; each stacked member must take exactly its solo run
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    A = np.stack([Q @ np.diag([50.0, 5.0, 1.0, 0.2]) @ Q.T, np.eye(4) + 0.1])
    b = rng.standard_normal((2, 4))
    X0 = rng.uniform(-3, 3, (2, 4))
    stacked = run_bfgs(QuadraticStack(A, b), X0, 1e-8, 200)
    assert stacked[0][3] != stacked[1][3]
    for i, (x, f, status, steps) in enumerate(stacked):
        solo = QuadraticStack(A[i : i + 1], b[i : i + 1])
        [(x1, f1, status1, steps1)] = run_bfgs(solo, X0[i : i + 1], 1e-8, 200)
        assert status == status1 == "converged"
        assert np.array_equal(x, x1) and f == f1 and steps == steps1
        assert np.allclose(x, np.linalg.solve(A[i], b[i]), atol=1e-6)


def reference_bfgs(evaluate, x0, tol, max_steps, H0=None):
    """The scalar BFGS loop (inverse-Hessian update, Armijo backtracking)
    that every member of the lockstep engine must reproduce bit for bit;
    ``evaluate(x)`` gives the value and gradient at ``x``.  The inverse
    Hessian starts at ``H0`` (the identity by default); the run's end is
    returned with it, as ``(x, f, status, steps, H)``."""
    x = np.array(x0, dtype=float)
    H = np.eye(x.size) if H0 is None else np.array(H0)
    f, g = evaluate(x)
    if not (np.isfinite(f) and np.all(np.isfinite(g))):
        return x, f, "instability", 0, H
    for step in range(1, max_steps + 1):
        if np.max(np.abs(g)) < tol:
            return x, f, "converged", step - 1, H
        p = -H @ g
        gp = float(g @ p)
        if not np.isfinite(gp) or gp >= 0.0:
            H = np.eye(x.size)
            p = -g
            gp = -float(g @ g)
        t = 1.0
        for _ in range(60):
            xn = x + t * p
            fn, gn = evaluate(xn)
            if np.isfinite(fn) and fn <= f + 1e-4 * t * gp:
                break
            t *= 0.5
        else:
            if np.max(np.abs(g)) < np.sqrt(tol):
                return x, f, "converged", step, H
            return x, f, "instability", step, H
        if np.max(np.abs(xn)) > 1e4 or not np.all(np.isfinite(gn)):
            return xn, fn, "instability", step, H
        s = t * p
        y = gn - g
        sy = float(s @ y)
        if sy > 1e-12 * (np.linalg.norm(s) * np.linalg.norm(y) + 1e-300):
            rho = 1.0 / sy
            Hy = H @ y
            H = H - rho * (np.outer(s, Hy) + np.outer(Hy, s)) + rho * (
                rho * float(y @ Hy) + 1.0
            ) * np.outer(s, s)
        if max(np.max(np.abs(gn)), np.max(np.abs(s))) < tol:
            return xn, fn, "converged", step, H
        x, f, g = xn, fn, gn
    return x, f, "maxiter", max_steps, H


class QuarticStack:
    """Member i: 0.5 x'A_i x - b_i'x + a_i sum(x^4), with a gradient that is
    off by c_i times the reversed x, NaN beyond radius r_i and an infinite
    value beyond 2 r_i, so that BFGS takes most ways out of a run."""

    def __init__(self, rng, members, m):
        A = []
        for _ in range(members):
            Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
            signs = rng.choice([1.0, -1.0], m, p=[0.8, 0.2])
            A.append(Q @ np.diag(np.geomspace(1, 10 ** rng.uniform(0, 4), m) * signs) @ Q.T)
        self.A, self.b = np.array(A), rng.standard_normal((members, m))
        self.a = rng.uniform(0, 0.5, members) * (rng.random(members) < 0.7)
        self.c = rng.uniform(-3, 3, members) * (rng.random(members) < 0.5)
        self.r = 10 ** rng.uniform(0, 3, members)

    def evaluate(self, i, X):
        Ax = (self.A[i] @ X[:, :, None])[:, :, 0]
        F = 0.5 * np.sum(X * Ax, axis=1) - np.sum(self.b[i] * X, axis=1)
        F = F + self.a[i] * np.sum(X**4, axis=1)
        F[np.sum(X * X, axis=1) > 4 * self.r[i] ** 2] = np.inf
        G = Ax - self.b[i] + 4 * self.a[i, None] * X**3 + self.c[i, None] * X[:, ::-1]
        G[np.sum(X * X, axis=1) > self.r[i] ** 2] = np.nan
        return F, G


class Cliff:
    """f = 0 at member i's start point X0_i, -1 at other points within
    max-norm distance w_i of it and 1 everywhere else; the gradient is G_i
    at X0_i and G_away_i (by default G_i) everywhere else."""

    def __init__(self, X0, G, w, G_away=None):
        self.X0, self.G, self.w = X0, G, w
        self.G_away = G if G_away is None else G_away

    def evaluate(self, members, X):
        dist = np.max(np.abs(X - self.X0[members]), axis=1)
        F = np.where(dist == 0.0, 0.0, np.where(dist <= self.w[members], -1.0, 1.0))
        return F, np.where((dist == 0.0)[:, None], self.G[members], self.G_away[members])


@pytest.mark.parametrize("start_H", ["identity", "negated identity"])
def test_lockstep_bfgs_matches_scalar_reference(start_H, monkeypatch):
    # stacks of 2-5 members; a negated start matrix sends every first step
    # through the reset to steepest descent.  Every member starts a second
    # run, from another member's start point, in the round its first run
    # ends, and keeps the inverse Hessian that run ended with.
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(12):
        P, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        X0 = rng.uniform(-3, 3, (P, m)) * 10 ** rng.uniform(-1, 3)
        cases.append((QuarticStack(rng, P, m), X0, 10 ** rng.uniform(-9, -4),
                      int(rng.integers(3, 60))))
        rng.integers(1, P + 1)  # a spare draw keeps the cases drawn after it
    # Armijo steps that run out: after the last backtrack a gradient below
    # sqrt(tol) counts as converged, a larger one as instability; the third
    # member's step is accepted at the 60th and last trial, t = 2^-59
    X0 = np.vstack([rng.uniform(-1, 1, (2, 4)), np.zeros(4)])
    G = np.array([1e-6, 1e-2, 1e-2])[:, None] * np.ones(4)
    cliff = Cliff(X0, G, np.array([0.0, 0.0, 1.5 * 2.0**-59 * 1e-2]))
    cases.append((cliff, X0, 1e-8, 20))
    # linear, unbounded below: unit steps run the iterate past the box
    linear = QuarticStack(rng, 2, 3)
    linear.A[:], linear.a[:], linear.c[:], linear.r[:] = 0.0, 0.0, 0.0, np.inf
    linear.b *= 3e3
    cases.append((linear, rng.uniform(-1, 1, (2, 3)), 1e-8, 50))
    # start outcomes: a start at the minimizer (b = A x0 exactly, so g = 0)
    # converges at step 0; inside the box, a quartic term of 1e301 sum(x^4)
    # overflows a start value while its gradient is finite; a start beyond
    # the box is not held to it, so the linear member takes one step from
    # there and ends then.  The first two also run without the third, which
    # sends every start of its round through the runaway test's full check.
    starts = QuarticStack(rng, 3, 3)
    starts.A[:] = [np.diag([2.0, 4.0, 8.0]), np.diag([2.0, 4.0, 8.0]), np.zeros((3, 3))]
    starts.b[:] = [[1.0, -5.0, 24.0], [1.0, -5.0, 24.0], [1.0, -1.0, 1.0]]
    starts.a[:], starts.c[:], starts.r[:] = [0.0, 1e301, 0.0], 0.0, np.inf
    X0 = np.array([[0.5, -1.25, 3.0], [100.0, 100.0, 100.0], [2e4, -2e4, 2e4]])
    cases += [(starts, X0[:2], 1e-8, 20), (starts, X0, 1e-8, 20)]
    # the step limit against convergence: from the identity, the second
    # member's gradient and step both fall below tol at step 8, which
    # converges even when 8 is the last step allowed; the third member's
    # gradient falls below tol at step 7 with a larger step, which converges
    # only if an 8th step is allowed
    last = QuarticStack(rng, 3, 3)
    last.A[:], last.b[:] = np.diag([1.0, 2.0, 4.0]), [1.0, -5.0, 24.0]
    last.a[:], last.c[:], last.r[:] = 0.0, 0.0, np.inf
    X0 = np.array([[0.5, -1.25, 3.0], [1.0, 1.0, 1.0], [-2.0, 0.0, 2.0]])
    cases += [(last, X0, 1e-8, 8), (last, X0, 1e-8, 7)]
    # three ways to end in one round, the 61st: the first member's trials
    # all fail, so its backtracks are spent with a gradient below sqrt(tol);
    # the other two accept their last trial, t = 2^-59 (from 0, so that the
    # step does not vanish in rounding), as step 1 of at most one, and the
    # gradient there is below tol for the second (the stop test) and not
    # for the third (the step limit)
    X0 = np.zeros((3, 4))
    X0[0] = 1.0
    G = np.array([1e-6, 1e-2, 1e-2])[:, None] * np.ones(4)
    w = np.array([0.0, 1.0, 1.0]) * 1.5 * 2.0**-59 * 1e-2
    G_away = np.array([1e-6, 1e-9, 1e-2])[:, None] * np.ones(4)
    same_round = len(cases)
    cases.append((Cliff(X0, G, w, G_away), X0, 1e-8, 1))
    if start_H == "negated identity":
        eye = np.eye
        monkeypatch.setattr(np, "eye", lambda n, *a, **k: -eye(n, *a, **k))
    statuses, at_limit, first_ends = set(), set(), []
    with np.errstate(all="ignore"):
        for c, (problem, X0, tol, max_steps) in enumerate(cases):
            counted = Counted(problem, len(X0))
            X1 = X0[::-1]
            stacked = run_bfgs(counted, X0, tol, max_steps, X1=X1)
            for i, runs in enumerate(stacked):
                points = []

                def evaluate(x, i=i):
                    points.append(x)
                    F, G = problem.evaluate(np.array([i]), x[None])
                    return F[0], G[0]

                H = None
                for run, (x0, (x, f, status, steps)) in enumerate(
                    zip((X0[i], X1[i]), runs, strict=True)
                ):
                    *want, H = reference_bfgs(evaluate, x0, tol, max_steps, H0=H)
                    assert np.array_equal(x, want[0])
                    assert f == want[1] or (np.isnan(f) and np.isnan(want[1]))
                    assert (status, steps) == tuple(want[2:])
                    statuses.add(status)
                    if steps == max_steps:
                        at_limit.add(status)
                    if (c, run) == (same_round, 0):
                        # the member evaluates once a round from round 1,
                        # so its run ended in the round of its last point
                        first_ends.append((len(points), status))
                # no member evaluates a point more often than it would alone
                assert counted.evals[i] == len(points)
    # each way out of a run is taken (from a negated start, only a member
    # that starts at its minimizer converges)
    expected = {"converged", "maxiter", "instability"} if start_H == "identity" else set()
    assert statuses >= expected | {"maxiter", "instability"}
    # a run can converge on its last allowed step
    assert at_limit >= ({"converged"} if start_H == "identity" else set()) | {"maxiter"}
    assert first_ends == [(61, "converged"), (61, "converged"), (61, "maxiter")]


class Walled:
    """Member i minimizes 0.5 x'A_i x - b_i'x inside radius r_i; beyond it
    the value is inf and the gradient holds inf and NaN, set by index so
    that the problem itself raises no warning."""

    def __init__(self, A, b, r):
        self.A, self.b, self.r = A, b, r

    def evaluate(self, members, X):
        Ax = (self.A[members] @ X[:, :, None])[:, :, 0]
        F = 0.5 * np.sum(X * Ax, axis=1) - np.sum(self.b[members] * X, axis=1)
        G = Ax - self.b[members]
        wall = np.sum(X * X, axis=1) > self.r[members] ** 2
        F[wall] = np.inf
        G[wall, 0] = np.inf
        G[wall, 1:] = np.nan
        return F, G


def test_lockstep_rejected_non_finite_trials_stay_silent():
    # members 0 and 2 have their minimizers at radius 20, beyond a wall at
    # radius 12, and keep trying points past it in rounds in which other
    # members accept finite ones; the rejected trials' inf and NaN
    # gradients must not reach the update arithmetic, which would warn,
    # nor move any member off its solo run
    rng = np.random.default_rng(5)
    A = []
    for _ in range(4):
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        A.append(Q @ np.diag(np.geomspace(1, 30, 3)) @ Q.T)
    A = np.array(A)
    xstar = rng.standard_normal((4, 3))
    xstar *= (np.array([20.0, 5.0, 20.0, 5.0]) / np.linalg.norm(xstar, axis=1))[:, None]
    problem = Walled(A, (A @ xstar[:, :, None])[:, :, 0], np.array([12.0, np.inf, 12.0, np.inf]))
    X0 = rng.uniform(-3, 3, (4, 3))
    bfgs = _LockstepBfgs(4, 3, 1e-8, 60)
    for i, x0 in enumerate(X0):
        bfgs.start(i, x0)
    runs, mixed, values = {}, 0, []

    def evaluate(members, X):
        F, G = problem.evaluate(members, X)
        values.append(F)
        return F, G

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        while bfgs.running:
            for i, *res in bfgs.round(evaluate):
                runs[i] = tuple(res)
            # the rows are those of the round: a finite trial whose value the
            # member now holds was accepted
            F = values[-1]
            mixed += bool(np.any(np.isinf(F)) and np.any(np.isfinite(F) & (bfgs.f == F)))
        for i in range(4):
            solo = SimpleNamespace(
                evaluate=lambda members, X, i=i: problem.evaluate(np.full_like(members, i), X)
            )
            [(x, f, status, steps)] = run_bfgs(solo, X0[i : i + 1], 1e-8, 60)
            assert runs[i][0].tobytes() == x.tobytes()
            assert runs[i][1:] == (f, status, steps)
    assert mixed >= 1
    assert {runs[i][2] for i in (1, 3)} == {"converged"}
    assert {runs[i][2] for i in (0, 2)} <= {"maxiter", "instability"}


def test_lockstep_round_without_an_accept_writes_only_t():
    # every minimizer lies far beyond a wall at radius 2, so after the
    # starts each member's unit trial and its first halvings carry inf
    # values and inf and NaN gradients; a round in which no member accepts
    # must halve every t exactly, write nothing else and raise no warning
    rng = np.random.default_rng(7)
    A = np.stack([np.eye(3), np.diag([1.0, 2.0, 4.0]), np.diag([3.0, 1.0, 0.5])])
    problem = Walled(A, rng.uniform(50, 100, (3, 3)), np.full(3, 2.0))
    bfgs = _LockstepBfgs(3, 3, 1e-8, 60)
    for i, x0 in enumerate(rng.uniform(-1, 1, (3, 3))):
        bfgs.start(i, x0)
    values = []

    def evaluate(members, X):
        F, G = problem.evaluate(members, X)
        values.append(F)
        return F, G

    silent = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bfgs.round(evaluate) == []  # the starts
        while True:
            before = {name: getattr(bfgs, name).tobytes() for name in bfgs._ROW_STATE}
            t = bfgs.t.copy()
            ended = bfgs.round(evaluate)
            if not np.all(np.isinf(values[-1])):
                break
            assert ended == [] and np.array_equal(bfgs.t, t / 2)
            for name in set(bfgs._ROW_STATE) - {"t"}:
                assert getattr(bfgs, name).tobytes() == before[name], name
            silent += 1
    assert silent >= 3


# (preset, prox, k2, BFGS steps per stage, pool, pool split over several
# kernel calls): with 2 restarts and seed 1, some members converge at once,
# some after a restart, and at least one exhausts its restarts
INDEPENDENCE_CASES = [
    ("broken-stick-200", "sqerr", 0, 26, 6, False),
    ("broken-stick-200", "entropy", 1, 30, 6, False),
    ("broken-stick-500", "sqerr", 1, 28, 5, True),
    ("broken-stick-500", "entropy", 0, 34, 5, True),
]


@pytest.mark.parametrize("name,prox,k2,steps,pool,split", INDEPENDENCE_CASES)
def test_lockstep_members_equal_their_solo_fits(
    name, prox, k2, steps, pool, split, monkeypatch
):
    data = generate(preset(name, seed=1))
    kernel = SmoothedLeastSquares(data.X, data.Y, 2, k2, prox)
    assert (kernel._members_per_call < pool) == split
    monkeypatch.setattr(optimizer, "_MAX_NEWTON_STEPS", steps)
    monkeypatch.setattr(optimizer, "_MAX_RESTARTS", 2)
    cfg = FitConfig(mu_target=0.1, restarts_pool=pool, seed=1)
    spec = SmoothingSpec(prox, 0.1)
    rngs = [_default_rng(1, i) for i in range(pool)]
    pooled = _anneal(data, 2, k2, spec, cfg, rngs)
    outcomes = {(res.converged, res.restarts_used > 0) for res in pooled}
    assert outcomes == {(True, False), (True, True), (False, True)}
    for i, res in enumerate(pooled):
        solo = _anneal(data, 2, k2, spec, cfg, [_default_rng(1, i)])[0]
        assert np.array_equal(res.theta_hat, solo.theta_hat)
        assert res.anneal_trace == solo.anneal_trace
        assert res.objective_value == solo.objective_value
        assert (res.restarts_used, res.converged) == (solo.restarts_used, solo.converged)
        if not res.converged:
            assert res.restarts_used == 2 and np.isfinite(res.empirical_norm)


def test_a_fresh_attempt_starts_from_the_identity(monkeypatch):
    # this member's first attempt ends at the step limit of its first stage,
    # and its second attempt converges; that attempt must be the fit of an
    # rng that skips the first start draw, keeping nothing of the failed
    # attempt's inverse Hessian
    data = generate(preset("broken-stick-200", seed=1))
    monkeypatch.setattr(optimizer, "_MAX_NEWTON_STEPS", 26)
    monkeypatch.setattr(optimizer, "_MAX_RESTARTS", 2)
    cfg = FitConfig(mu_target=0.1, seed=1)
    spec = SmoothingSpec("sqerr", 0.1)
    [retried] = _anneal(data, 2, 0, spec, cfg, [_default_rng(1, 1)])
    assert retried.converged and retried.restarts_used == 1
    rng = _default_rng(1, 1)
    rng.uniform(-optimizer._INIT_RADIUS, optimizer._INIT_RADIUS, 4)  # k2 = 0: 4 free parameters
    [fresh] = _anneal(data, 2, 0, spec, cfg, [rng])
    assert fresh.converged and fresh.restarts_used == 0
    assert np.array_equal(retried.theta_hat, fresh.theta_hat)
    assert retried.anneal_trace == fresh.anneal_trace


@pytest.mark.parametrize(
    "name,seed,k2,prox,pool",
    [("broken-stick-200", 7, 0, "sqerr", 10), ("planes-d2", 3, 1, "entropy", 4)],
)
def test_stacking_never_moves_a_number(name, seed, k2, prox, pool, monkeypatch):
    # the default cap stacks the whole pool in one kernel call; one member,
    # three members (a short last call) or any number per call give the
    # same fitted bytes
    data = generate(preset(name, seed=seed))
    cfg = FitConfig(mu_target=0.1, restarts_pool=pool, seed=seed)
    assert SmoothedLeastSquares(data.X, data.Y, 2, k2, prox)._members_per_call >= pool

    def outcome():
        res = fit_pool(data, 2, k2, prox, cfg)
        return (res.theta_hat.tobytes(), repr(res.empirical_norm), repr(res.objective_value),
                res.anneal_trace, res.restarts_used)

    want = outcome()
    for cap in (1, 3 * (2 + k2) * data.n, 2**40):
        monkeypatch.setattr(objective, "_STACK_PIECE_VALUES", cap)
        assert outcome() == want


def test_recovers_single_plane_noiselessly():
    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, (50, 2))
    truth = np.array([0.8, -0.4, 0.25])
    Y = X @ truth[:2] + truth[2]
    data = Dataset(X, Y)
    res = fit(data, 1, 0, "sqerr", FitConfig(mu_target=0.1, seed=1))
    assert res.converged
    Xaug = np.column_stack([X, np.ones(50)])
    ols, *_ = np.linalg.lstsq(Xaug, Y, rcond=None)
    est = np.concatenate([res.model.part1.coeffs[0, :2], res.model.part1.coeffs[0, 2:]])
    assert np.linalg.norm(est - ols) < 1e-4
    assert res.empirical_norm < 1e-8


def test_broken_stick_matches_hinge_oracle():
    data = generate(preset("broken-stick-200", seed=3))
    cfg = FitConfig(mu_target=0.1, restarts_pool=5, seed=3)
    res = fit_pool(data, 2, 0, "sqerr", cfg)
    assert res.converged
    hinge = hinge_fit_1d(data, grid=1000)
    r_hinge = float(np.mean((data.Y - hinge.evaluate(data.X[:, 0])) ** 2))
    # the smoothed fit minimizes the mu-smoothed criterion, so its raw
    # residual norm sits slightly above the exact grid-search optimum
    assert res.empirical_norm <= 1.25 * r_hinge + 1e-6
    assert res.empirical_norm >= 0.98 * r_hinge


def test_pool_of_one_equals_single_fit():
    data = generate(preset("broken-stick-200", seed=4))
    cfg = FitConfig(mu_target=0.1, restarts_pool=1, seed=4)
    single = fit(data, 2, 0, "sqerr", cfg)
    pooled = fit_pool(data, 2, 0, "sqerr", cfg)
    assert np.array_equal(single.theta_hat, pooled.theta_hat)
    assert single.empirical_norm == pooled.empirical_norm


def test_fit_is_deterministic():
    data = generate(preset("broken-stick-200", seed=5))
    cfg = FitConfig(mu_target=0.1, restarts_pool=2, seed=5)
    a = fit_pool(data, 2, 0, "sqerr", cfg)
    b = fit_pool(data, 2, 0, "sqerr", cfg)
    assert np.array_equal(a.theta_hat, b.theta_hat)
    assert a.anneal_trace == b.anneal_trace


def test_result_model_is_normalized():
    data = generate(preset("broken-stick-500", seed=6))
    cfg = FitConfig(mu_target=0.1, restarts_pool=2, seed=6)
    res = fit_pool(data, 3, 2, "sqerr", cfg)
    assert res.model.normalized
    assert np.all(res.model.part2.coeffs[0] == 0.0)


def test_anneal_trace_halves_to_target():
    data = generate(preset("broken-stick-200", seed=7))
    res = fit(data, 2, 0, "sqerr", FitConfig(mu_target=0.1, seed=7))
    assert res.converged
    mus = [mu for mu, _, _ in res.anneal_trace]
    assert mus == anneal_schedule(0.1)
    assert mus[-1] == 0.1


def test_entropy_prox_also_fits():
    data = generate(preset("broken-stick-200", seed=8))
    cfg = FitConfig(mu_target=0.1, restarts_pool=3, seed=8)
    res = fit_pool(data, 2, 0, "entropy", cfg)
    assert res.converged
    assert res.empirical_norm < 4 * 0.1**2


def test_nelder_mead_recovers_single_plane():
    rng = np.random.default_rng(9)
    X = rng.uniform(-1, 1, (40, 1))
    Y = X[:, 0] * 1.2 - 0.3
    data = Dataset(X, Y)
    res = fit_pool(data, 1, 0, "sqerr", FitConfig(restarts_pool=1, seed=9), method="nelder-mead")
    assert res.empirical_norm < 1e-6
    assert res.anneal_trace == []


def test_nelder_mead_via_pool():
    truth = convex_model([[-0.6, 0.0], [0.9, 0.15]])
    data = generate(Scenario(truth, n=100, noise_sd=0.05, seed=10))
    cfg = FitConfig(restarts_pool=3, seed=10)
    res = fit_pool(data, 2, 0, "sqerr", cfg, method="nelder-mead")
    assert res.empirical_norm < 4 * 0.05**2


def test_invalid_inputs_rejected():
    data = generate(preset("broken-stick-200", seed=11))
    cfg = FitConfig(seed=11)
    with pytest.raises(ValueError):
        fit(data, 0, 0, "sqerr", cfg)
    with pytest.raises(ValueError):
        fit_pool(data, 2, 0, "sqerr", cfg, method="gradient-descent")


def test_unconverged_fit_reports_best_incumbent(monkeypatch):
    # a single BFGS step cannot converge; all restarts fail and the best
    # incumbent comes back flagged
    data = generate(preset("broken-stick-200", seed=12))
    monkeypatch.setattr(optimizer, "_MAX_NEWTON_STEPS", 1)
    monkeypatch.setattr(optimizer, "_MAX_RESTARTS", 2)
    cfg = FitConfig(mu_target=0.1, seed=12)
    res = fit(data, 2, 0, "sqerr", cfg)
    assert not res.converged
    assert res.restarts_used == 2
    assert np.isfinite(res.empirical_norm)


def test_no_usable_incumbent_falls_back_to_zero_model(monkeypatch):
    # with a box this small every first step is a runaway and every start
    # lies outside the box, so no attempt leaves an incumbent
    data = generate(preset("broken-stick-200", seed=7))
    monkeypatch.setattr(optimizer, "_BOX_LIMIT", 1e-3)
    monkeypatch.setattr(optimizer, "_MAX_RESTARTS", 1)
    res = fit_pool(data, 2, 0, "sqerr", FitConfig(restarts_pool=1, seed=3))
    assert not res.converged
    assert np.array_equal(res.theta_hat, np.zeros(6))
    assert res.restarts_used == 1 and res.anneal_trace == []
    assert res.empirical_norm == pytest.approx(np.mean(data.Y**2), rel=1e-12)


@pytest.mark.parametrize("prox", ["sqerr", "entropy"])
def test_subnormal_mu_target_fits_without_error_or_warning(prox, monkeypatch):
    # the last stages' weights saturate to one-hot: no error, no numpy
    # warning, and sqerr's first attempt converges to a finite objective
    data = generate(preset("broken-stick-200", seed=7))
    monkeypatch.setattr(optimizer, "_MAX_RESTARTS", 0)
    cfg = FitConfig(mu_target=1e-320, restarts_pool=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = fit(data, 2, 0, prox, cfg)
    assert np.isfinite(res.empirical_norm)
    if prox == "sqerr":
        assert res.converged and np.isfinite(res.objective_value)
        assert res.restarts_used == 0 and res.anneal_trace[-1][0] == 1e-320


# Fitted numbers of fit_pool recorded once each anneal stage started from the
# inverse Hessian its member's previous stage ended with, two-piece sqerr
# smoothing took its closed form and the gradient its piece-major products
# (x86_64, numpy 2.4 with OpenBLAS 0.3.31 running its SkylakeX kernel).  A
# refactor of the fit path must reproduce them bit for bit; another BLAS
# kernel or libm build may round differently: under OPENBLAS_CORETYPE=Haswell
# these pins move in their last digits, so the CI step "Bit references under
# a second BLAS kernel" deselects every *_numbers_are_pinned test.
PINNED_FITS = [
    (
        ("broken-stick-200", 7, 2, 0, "sqerr", 0.01, 10),
        "0.010704188353869297",
        [(1.28, 0.012049454958756988, 25), (0.64, 0.01100049219850429, 8),
         (0.32, 0.010630992967945875, 4), (0.16, 0.010651551159046306, 4),
         (0.08, 0.010682979623792752, 2), (0.04, 0.010697536255660264, 2),
         (0.02, 0.010697967683306135, 3), (0.01, 0.010697968210090449, 1)],
    ),
    (
        ("broken-stick-200", 7, 2, 0, "entropy", 0.01, 10),
        "0.010745941792482385",
        [(1.28, 0.01234508751216375, 34), (0.64, 0.011794445125875814, 9),
         (0.32, 0.011135592526418363, 9), (0.16, 0.010705043964587775, 4),
         (0.08, 0.010628945356532445, 4), (0.04, 0.01066682148024598, 2),
         (0.02, 0.01069054746949881, 3), (0.01, 0.01069724277013924, 2)],
    ),
    (
        ("planes-d2", 3, 2, 1, "sqerr", 0.1, 2),
        "0.01126707967028736",
        [(1.6, 0.016419240057298376, 22), (0.8, 0.012313224257594305, 7),
         (0.4, 0.010792100466058446, 5), (0.2, 0.010668252024693892, 4),
         (0.1, 0.010654678870025953, 3)],
    ),
    # n = 10^4, where the kernel products run through BLAS
    (
        ("planes-d4", 3, 2, 0, "sqerr", 0.1, 2),
        "0.010550260277177176",
        [(1.6, 0.01584813700702427, 26), (0.8, 0.011489537523532522, 9),
         (0.4, 0.010226578427935264, 6), (0.2, 0.009991842283859848, 3),
         (0.1, 0.009951670099521342, 2)],
    ),
]


@pytest.mark.parametrize(
    "case,norm_repr,trace", PINNED_FITS, ids=[f"{c[0]}-{c[4]}" for c, _, _ in PINNED_FITS]
)
def test_fit_pool_numbers_are_pinned(case, norm_repr, trace):
    name, seed, k1, k2, prox, mu, pool = case
    data = generate(preset(name, seed=seed))
    res = fit_pool(data, k1, k2, prox, FitConfig(mu_target=mu, restarts_pool=pool, seed=seed))
    assert repr(res.empirical_norm) == norm_repr
    assert res.anneal_trace == trace


# Nelder-Mead numbers recorded while its objective still rebuilt a model per
# evaluation (same platform and SkylakeX kernel as above); the mu = 0 kernel
# must reproduce them.  These two also hold under OPENBLAS_CORETYPE=Haswell,
# but the CI step under that kernel deselects them with the other pins.
@pytest.mark.parametrize(
    "name,seed,k2,pool,norm_repr",
    [
        ("broken-stick-200", 7, 0, 3, "0.010697967683770874"),
        ("planes-d2", 3, 1, 2, "0.010654901904977278"),
    ],
)
def test_nelder_mead_numbers_are_pinned(name, seed, k2, pool, norm_repr):
    data = generate(preset(name, seed=seed))
    cfg = FitConfig(restarts_pool=pool, seed=seed)
    res = fit_pool(data, 2, k2, "sqerr", cfg, method="nelder-mead")
    assert repr(empirical_norm(res.model, data)) == norm_repr
