"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line with the measured quantity so a
full run reads as a checklist.  The statistical checks run at desk scale
(tens to hundreds of replications); expect a few minutes of wall time.
"""
import filecmp
import json
import time

import numpy as np

from pwafit.cli import main as cli_main
from pwafit.experiments import coverage_study, mu_sweep, restart_ecdf
from pwafit.inference import Hinge1D, Hinge2D, hinge_fit_1d, plugin_covariance, smoothed_covariance
from pwafit.model import MaxAffine, PwaModel, convex_model, pack, unpack
from pwafit.objective import Dataset, least_squares, least_squares_gradient
from pwafit.optimizer import FitConfig, fit_pool
from pwafit.simulate import Scenario, generate, preset
from pwafit.smoothing import Prox, SmoothingSpec, project_simplex, rho_max, smooth_max


def report(capsys, num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[criterion {num:2d}] {status} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_smoothing_bounds(capsys):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = -np.inf
    violations = 0
    for _ in range(1000):
        k = int(rng.integers(1, 6))
        d = int(rng.integers(1, 5))
        f = MaxAffine(rng.uniform(-1, 1, (k, d + 1)))
        X = rng.uniform(-2, 2, (100, d))
        exact = f.evaluate(X)
        for prox in Prox:
            for mu in (1.0, 0.1, 0.01, 1e-4):
                vals, _ = smooth_max(f.piece_values(X), prox, mu)
                gap = exact - vals
                bound = mu * rho_max(prox, k)
                excess = max(float((-gap).max()), float((gap - bound).max()))
                worst = max(worst, excess)
                if excess > 1e-10:
                    violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 10.0
    report(
        capsys, 1, "smoothing sandwich bounds", ok,
        f"0 <= f - f_mu <= mu*rho_max on 1000 instances x 100 points, "
        f"worst excess {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_gradient_correctness(capsys):
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst = 0.0
    h = 1e-6
    for rep in range(200):
        mu = float(rng.choice([0.01, 0.1, 1.0]))
        prox = Prox.ENTROPY if rep % 2 == 0 else Prox.SQUARED_ERROR
        spec = SmoothingSpec(prox, mu)
        k, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        if rep < 100:
            coeffs = rng.uniform(-1, 1, (k, d + 1))
            x = rng.uniform(-2, 2, d)
            # Danskin: the weights combined with (x, 1), in pack layout
            _, W = smooth_max(MaxAffine(coeffs).piece_values(x[None, :]), prox, mu)
            g = np.concatenate([np.outer(W[0], x).ravel(), W[0]])
            v0 = np.concatenate([coeffs[:, :d].ravel(), coeffs[:, d]])

            def value(v):
                m = np.column_stack([v[: k * d].reshape(k, d), v[k * d :]])
                return float(smooth_max(MaxAffine(m).piece_values(x[None, :]), prox, mu)[0][0])
        else:
            k2 = int(rng.integers(1, 3))
            model = PwaModel(
                MaxAffine(rng.uniform(-1, 1, (k, d + 1))),
                MaxAffine(rng.uniform(-1, 1, (k2, d + 1))),
            )
            X = rng.uniform(-2, 2, (15, d))
            data = Dataset(X, model.evaluate(X) + 0.2 * rng.standard_normal(15))
            g = least_squares_gradient(model, spec, data)
            v0 = pack(model)

            def value(v):
                return least_squares(unpack(v, k, k2, d), spec, data)

        fd = np.array(
            [
                (value(v0 + h * e) - value(v0 - h * e)) / (2 * h)
                for e in np.eye(v0.size)
            ]
        )
        rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-10)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 10.0
    report(
        capsys, 2, "analytic gradients vs finite differences", ok,
        f"200 instances, worst relative error {worst:.2e}, {elapsed:.1f}s",
    )


def _brute_force_project(C):
    n, k = C.shape
    best = np.zeros((n, k))
    best_d = np.full(n, np.inf)
    for mask in range(1, 2**k):
        S = np.array([(mask >> i) & 1 for i in range(k)], dtype=bool)
        lam = (C[:, S].sum(axis=1) - 1.0) / S.sum()
        w = np.zeros((n, k))
        w[:, S] = C[:, S] - lam[:, None]
        feasible = np.all(w[:, S] >= -1e-12, axis=1)
        dist = np.sum((w - C) ** 2, axis=1)
        improve = feasible & (dist < best_d)
        best_d[improve] = dist[improve]
        best[improve] = np.maximum(w[improve], 0.0)
    return best


def test_criterion_03_simplex_projection_oracle(capsys):
    rng = np.random.default_rng(303)
    worst = 0.0
    total = 0
    for k in range(2, 7):
        n = 2000
        scale = rng.choice([0.5, 1.0, 5.0], size=(n, 1))
        C = rng.uniform(-2, 2, (n, k)) * scale
        got = project_simplex(C)
        want = _brute_force_project(C)
        worst = max(worst, float(np.max(np.abs(got - want))))
        total += n
    ok = worst < 1e-10
    report(
        capsys, 3, "simplex projection vs active-set enumeration", ok,
        f"{total} inputs, k<=6, max deviation {worst:.2e}",
    )


def test_criterion_04_parameter_recovery(capsys):
    reps = 50
    results = {}
    for label, preset_name, k1, k2 in (
        ("d=1", "broken-stick-500", 3, 2),
        ("d=2", "planes-d2", 2, 0),
    ):
        base = preset(preset_name, seed=0)
        Rs = []
        for rep in range(reps):
            seed = 1_000_003 * rep + 41
            data = generate(
                Scenario(base.model, n=base.n, noise_sd=base.noise_sd, seed=seed)
            )
            cfg = FitConfig(mu_target=0.1, restarts_pool=10, seed=seed)
            res = fit_pool(data, k1, k2, "sqerr", cfg)
            Rs.append(res.empirical_norm)
        results[label] = float(np.mean(Rs))
    ok = results["d=1"] <= 0.35 and results["d=2"] <= 0.10
    report(
        capsys, 4, "mean empirical norm over 50 replications", ok,
        f"d=1 five-line R={results['d=1']:.4f} (<=0.35), "
        f"d=2 two-plane R={results['d=2']:.4f} (<=0.10)",
    )


def test_criterion_05_mu_sweep_trend(capsys):
    rows = mu_sweep(reps=6, pool=4, seed=0)
    devs = [row["deviation_mean"] for row in rows]
    inversions = sum(
        1 for a, b in zip(devs, devs[1:]) if b > a * 1.25 + 0.002
    )
    ok = devs[-1] < devs[0] and inversions <= 1
    report(
        capsys, 5, "deviation shrinks as mu = n^-e decreases", ok,
        f"mean deviation {devs[0]:.4f} (e=0.1) -> {devs[-1]:.4f} (e=1.0), "
        f"{inversions} inversion(s) beyond tolerance",
    )


def test_criterion_06_restart_success(capsys):
    result = restart_ecdf(n_fits=200, seed=0)
    frac = result["success_fraction"]
    ok = frac >= 0.70
    report(
        capsys, 6, "single-fit success fraction (deviation < 0.1)", ok,
        f"{frac:.3f} over 200 independent fits (>=0.70)",
    )


def test_criterion_07_coverage(capsys):
    result = coverage_study(reps=200, pool=10, seed=0)
    cover = result["coverage"]
    simul = result["simultaneous_coverage"]
    lengths = result["length_mean"]
    ok = (
        all(0.90 <= c <= 1.00 for c in cover)
        and simul >= 0.85
        and all(0.064 <= L <= 0.363 for L in lengths)
        and result["failures"] == 0
    )
    report(
        capsys, 7, "two-line confidence interval coverage (200 reps)", ok,
        f"individual {['%.3f' % c for c in cover]}, simultaneous {simul:.3f}, "
        f"lengths {['%.3f' % L for L in lengths]}",
    )


def test_criterion_08_covariance_limit(capsys):
    model = convex_model([[1.0, 0.0], [-1.0, 0.0]])
    rng = np.random.default_rng(808)
    x = np.concatenate([rng.uniform(0.3, 1.0, 60), rng.uniform(-1.0, -0.3, 60)])
    data = Dataset(x, np.abs(x) + 0.1 * rng.standard_normal(120))
    plug = plugin_covariance(model, data)
    worst = 0.0
    for prox in Prox:
        cov = smoothed_covariance(model, SmoothingSpec(prox, 1e-6), data)
        for name in ("V", "W", "C"):
            a, b = getattr(cov, name), getattr(plug, name)
            rel = float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))
            worst = max(worst, rel)
    ok = worst < 1e-5
    report(
        capsys, 8, "smoothed covariance -> hard-assignment limit at mu=1e-6", ok,
        f"worst entrywise relative difference {worst:.2e}",
    )


def test_criterion_09_hinge_exactness(capsys):
    truth = Hinge1D(alpha1=0.4, alpha2=-0.15, beta1=1.1, theta=0.25)
    rng = np.random.default_rng(909)
    x = rng.uniform(-1, 1, 150)
    est = hinge_fit_1d(Dataset(x, truth.evaluate(x)), grid=9)
    coef_err = max(
        abs(est.alpha1 - truth.alpha1),
        abs(est.alpha2 - truth.alpha2),
        abs(est.beta1 - truth.beta1),
        abs(est.theta - truth.theta),
    )
    h2 = Hinge2D(
        alpha1=0.3, alpha2=-0.6, alpha3=0.2, beta2=1.7, p=(-1.0, -0.4), q=(1.0, 0.6)
    )
    jump = 0.0
    for xv in np.linspace(-1, 1, 41):
        fx = 0.5 * xv + 0.1
        jump = max(jump, abs(h2.evaluate(xv, fx + 1e-13) - h2.evaluate(xv, fx - 1e-13)))
    ok = coef_err < 1e-8 and jump < 1e-12
    report(
        capsys, 9, "hinge baseline exactness and continuity", ok,
        f"on-grid recovery error {coef_err:.2e} (<1e-8), "
        f"boundary jump {jump:.2e} (<1e-12)",
    )


def test_criterion_10_cli_determinism(capsys, tmp_path):
    runs = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        assert cli_main(
            ["simulate", "--preset", "broken-stick-200", "--seed", "5",
             "--out", str(d / "data.csv")]
        ) == 0
        assert cli_main(
            ["fit", "--in", str(d / "data.csv"), "--k1", "2", "--mu", "0.01",
             "--pool", "3", "--seed", "5", "--out", str(d / "fit.json"),
             "--fitted-csv", str(d / "fitted.csv")]
        ) == 0
        assert cli_main(
            ["ci", "--in", str(d / "data.csv"), "--fit", str(d / "fit.json"),
             "--out", str(d / "ci.json")]
        ) == 0
        assert cli_main(
            ["compare", "--preset", "broken-stick-200", "--reps", "2",
             "--pool", "2", "--seed", "5", "--out", str(d / "compare.csv")]
        ) == 0
        assert cli_main(
            ["experiment", "restart-ecdf", "--reps", "5", "--seed", "5",
             "--outdir", str(d / "exp")]
        ) == 0
        runs.append(d)
    a, b = runs
    identical = all(
        filecmp.cmp(a / name, b / name, shallow=False)
        for name in ("data.csv", "fit.json", "fitted.csv", "ci.json", "compare.csv")
    )
    identical = identical and (
        (a / "exp" / "restart_ecdf.csv").read_bytes()
        == (b / "exp" / "restart_ecdf.csv").read_bytes()
    )
    sa = json.loads((a / "exp" / "restart_ecdf_summary.json").read_text())
    sb = json.loads((b / "exp" / "restart_ecdf_summary.json").read_text())
    identical = identical and sa == sb
    report(
        capsys, 10, "CLI reruns reproduce outputs byte for byte", ok=identical,
        detail="simulate/fit/ci/compare/experiment outputs identical",
    )
