import numpy as np
import pytest

from pwafit.model import convex_model
from pwafit.objective import Dataset, empirical_norm
from pwafit.optimizer import (
    FitConfig,
    anneal_schedule,
    fit,
    fit_pool,
    nelder_mead_fit,
)
from pwafit.optimizer import _bfgs
from pwafit.inference import hinge_fit_1d
from pwafit.simulate import Scenario, generate, preset


def test_anneal_schedule_examples():
    assert anneal_schedule(0.1) == [1.6, 0.8, 0.4, 0.2, 0.1]
    assert anneal_schedule(2.0) == [2.0]
    assert anneal_schedule(0.5) == [2.0, 1.0, 0.5]
    with pytest.raises(ValueError):
        anneal_schedule(0.0)


def test_config_validation():
    bad = [
        {"mu_target": 0.0},
        {"tolerance": -1.0},
        {"restarts_pool": 0},
        {"mu_target": np.nan},
        {"mu_target": np.inf},
        {"tolerance": np.nan},
        {"tolerance": np.inf},
        {"init_radius": np.nan},
        {"init_radius": np.inf},
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            FitConfig(**kwargs)


def test_bfgs_on_quadratic():
    A = np.array([[3.0, 1.0], [1.0, 2.0]])
    b = np.array([1.0, -1.0])
    target = np.linalg.solve(A, b)

    class Quadratic:
        def value(self, x):
            self.x = x
            return 0.5 * x @ A @ x - b @ x

        def gradient(self):
            return A @ self.x - b

    x, f, status, steps, history = _bfgs(Quadratic(), np.array([5.0, -7.0]), 1e-8, 100)
    assert status == "converged"
    assert np.allclose(x, target, atol=1e-6)
    assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))


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
    res = nelder_mead_fit(data, 1, 0, FitConfig(seed=9))
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


def test_unconverged_fit_reports_best_incumbent():
    # a single BFGS step cannot converge; all restarts fail and the best
    # incumbent comes back flagged
    data = generate(preset("broken-stick-200", seed=12))
    cfg = FitConfig(mu_target=0.1, max_newton_steps=1, max_restarts=2, seed=12)
    res = fit(data, 2, 0, "sqerr", cfg)
    assert not res.converged
    assert res.restarts_used == 2
    assert np.isfinite(res.empirical_norm)


# Fitted numbers of fit_pool recorded before the objective became one
# flat-array kernel (x86_64, numpy 2.4 with OpenBLAS 0.3.31).  A refactor of
# the fit path must reproduce them bit for bit; another BLAS or libm build
# may round differently.
PINNED_FITS = [
    (
        ("broken-stick-200", 7, 2, 0, "sqerr", 0.01, 10),
        "0.01070421619805118",
        [(1.28, 0.012049454958756986, 25), (0.64, 0.011000492368613573, 14),
         (0.32, 0.010630992974733975, 12), (0.16, 0.01065155123259471, 13),
         (0.08, 0.010682979524073967, 13), (0.04, 0.010697536092258599, 13),
         (0.02, 0.010697967701503911, 12), (0.01, 0.01069796768960182, 12)],
    ),
    (
        ("broken-stick-200", 7, 2, 0, "entropy", 0.01, 10),
        "0.010745947378352076",
        [(1.28, 0.012345087730861936, 31), (0.64, 0.011794445066642432, 17),
         (0.32, 0.011135592540378703, 15), (0.16, 0.010705043966974555, 13),
         (0.08, 0.010628945374602737, 12), (0.04, 0.010666820824972341, 13),
         (0.02, 0.010690547526466459, 12), (0.01, 0.010697242686863838, 12)],
    ),
    (
        ("planes-d2", 3, 2, 1, "sqerr", 0.1, 2),
        "0.01126706226436056",
        [(1.6, 0.016419240069821643, 35), (0.8, 0.012313224263900246, 14),
         (0.4, 0.010792100464343334, 14), (0.2, 0.010668252314700675, 13),
         (0.1, 0.01065467948265263, 10)],
    ),
    # n = 10^4, where the kernel products run through BLAS; recorded with the
    # (n, k) kernel, before the piece values became piece-major
    (
        ("planes-d4", 3, 2, 0, "sqerr", 0.1, 2),
        "0.010550290408073619",
        [(1.6, 0.0158481370117119, 33), (0.8, 0.01148953749489831, 17),
         (0.4, 0.010226578067342394, 13), (0.2, 0.00999184271001675, 7),
         (0.1, 0.009951669709474897, 13)],
    ),
]


@pytest.mark.parametrize("case,norm_repr,trace", PINNED_FITS, ids=lambda c: str(c)[:40])
def test_fit_pool_numbers_are_pinned(case, norm_repr, trace):
    name, seed, k1, k2, prox, mu, pool = case
    data = generate(preset(name, seed=seed))
    res = fit_pool(data, k1, k2, prox, FitConfig(mu_target=mu, restarts_pool=pool, seed=seed))
    assert repr(res.empirical_norm) == norm_repr
    assert res.anneal_trace == trace


# Nelder-Mead numbers recorded while its objective still rebuilt a model per
# evaluation (same platform as above); the mu = 0 kernel must reproduce them.
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
