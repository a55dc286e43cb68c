import numpy as np
import pytest

from pwafit.inference import (
    ConfidenceIntervals,
    CovarianceEstimate,
    Hinge1D,
    Hinge2D,
    confidence_intervals,
    hinge_fit_1d,
    line_parameters,
    plugin_covariance,
    smoothed_covariance,
)
from pwafit.model import MaxAffine, PwaModel, convex_model, zero_part
from pwafit.objective import Dataset
from pwafit.optimizer import FitConfig, fit_pool
from pwafit.simulate import generate, preset
from pwafit.smoothing import Prox, SmoothingSpec

ABS_MODEL = convex_model([[1.0, 0.0], [-1.0, 0.0]])


def separated_dataset(seed=0, n=80, noise=0.1):
    """Points away from the kink of the absolute-value model."""
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.uniform(0.3, 1.0, n // 2), rng.uniform(-1.0, -0.3, n - n // 2)])
    y = np.abs(x) + noise * rng.standard_normal(n)
    return Dataset(x, y)


def test_line_parameters_layout():
    m = PwaModel(MaxAffine([[1.0, 0.5], [-1.0, -0.5]]), zero_part(1))
    assert np.array_equal(line_parameters(m), [1.0, 0.5, -1.0, -0.5])


def test_line_parameters_requires_two_pieces():
    with pytest.raises(ValueError):
        line_parameters(convex_model([[1.0, 0.0]]))
    with pytest.raises(ValueError):
        line_parameters(convex_model([[1.0, 0.0], [0.0, 0.0], [2.0, 0.0]]))


def test_plugin_moment_blocks_hand_computed():
    data = Dataset(np.array([0.5, 1.0, -0.5, -1.0]), np.abs([0.5, 1.0, -0.5, -1.0]))
    cov = plugin_covariance(ABS_MODEL, data)
    # piece 1 owns {0.5, 1.0}: block sum of [x,1][x,1]'/n
    S1 = (
        np.outer([0.5, 1.0], [0.5, 1.0]) + np.outer([1.0, 1.0], [1.0, 1.0])
    ) / 4.0
    assert np.allclose(cov.V[:2, :2], 2.0 * S1)
    assert cov.segment_counts.tolist() == [2, 2]
    assert cov.sigma2_hat == pytest.approx(0.0)


def block_oracle(model, data):
    """Plug-in ``(M, C, sigma2_hat, counts)`` of a two-piece convex model,
    one moment block and one inverse per piece, with ``argmax`` over its
    piece values as the assignment."""
    assign = model.normalize().part1.piece_values(data.X).argmax(axis=1)
    Xaug = np.column_stack([data.X, np.ones(data.n)])
    q = Xaug.shape[1]
    blocks = [Xaug[assign == j].T @ Xaug[assign == j] / data.n for j in range(2)]
    r = data.Y - model.evaluate(data.X)
    sigma2 = np.sum(r * r) / data.n
    M = np.zeros((2 * q, 2 * q))
    C = np.zeros((2 * q, 2 * q))
    for j, S in enumerate(blocks):
        M[j * q : (j + 1) * q, j * q : (j + 1) * q] = S
        C[j * q : (j + 1) * q, j * q : (j + 1) * q] = sigma2 * np.linalg.inv(S)
    return M, C, sigma2, np.bincount(assign, minlength=2)


def assert_matches_block_oracle(cov, model, data):
    M, C, sigma2, counts = block_oracle(model, data)
    q = data.d + 1
    assert np.all(cov.M[:q, q:] == 0.0) and np.all(cov.M[q:, :q] == 0.0)
    assert np.max(np.abs(cov.M - M)) <= 1e-12 * np.max(np.abs(M))
    assert np.max(np.abs(cov.C - C)) <= 1e-12 * np.max(np.abs(C))
    assert cov.sigma2_hat == pytest.approx(sigma2, rel=1e-12)
    assert cov.segment_counts.tolist() == counts.tolist()


def test_plugin_matches_per_piece_block_oracle():
    scenario = preset("planes-d2", seed=4)
    data = generate(scenario)
    cov = plugin_covariance(scenario.model, data)
    assert_matches_block_oracle(cov, scenario.model, data)


@pytest.mark.parametrize("name", ["broken-stick-200", "planes-d2", "planes-d4"])
def test_plugin_sigma2_hat_is_the_fits_empirical_norm(name):
    # d = 1, 2 and 4; a fit's model is normalised, so the covariance kernel
    # evaluates the fit's own numbers at mu = 0
    data = generate(preset(name, seed=7))
    res = fit_pool(data, 2, 0, "sqerr", FitConfig(restarts_pool=2, seed=7))
    cov = plugin_covariance(res.model, data)
    assert repr(cov.sigma2_hat) == repr(res.empirical_norm)
    assert cov.segment_counts.sum() == data.n


def test_smoothed_counts_are_the_hard_assignment():
    # so large a mu rounds every point's weights to (1/2, 1/2), which no
    # longer tell the piece attaining the max; N_j still counts its points
    data = separated_dataset(3)
    plug = plugin_covariance(ABS_MODEL, data)
    for prox in Prox:
        with pytest.warns(UserWarning, match="singular moment matrix"):
            cov = smoothed_covariance(ABS_MODEL, SmoothingSpec(prox, 1e17), data)
        assert cov.segment_counts.tolist() == plug.segment_counts.tolist()
        assert repr(cov.sigma2_hat) == repr(plug.sigma2_hat)


def test_sandwich_identities():
    data = separated_dataset(1)
    cov = plugin_covariance(ABS_MODEL, data)
    assert np.allclose(cov.W, 2.0 * cov.sigma2_hat * cov.V, atol=1e-10)
    # C = V^-1 W V^-1 = 2 sigma^2 V^-1
    assert np.allclose(cov.C, 2.0 * cov.sigma2_hat * np.linalg.inv(cov.V), atol=1e-10)
    assert np.allclose(cov.V, cov.V.T, atol=1e-10)
    assert np.allclose(cov.C, cov.C.T, atol=1e-10)
    assert cov.segment_counts.sum() == data.n


def test_noiseless_fit_collapses_intervals():
    x = np.array([0.4, 0.8, -0.4, -0.8])
    data = Dataset(x, np.abs(x))
    cov = plugin_covariance(ABS_MODEL, data)
    assert np.allclose(cov.W, 0.0)
    ci = confidence_intervals(line_parameters(ABS_MODEL), cov, 0.95)
    assert np.allclose(ci.lower, ci.upper)


def test_interval_arithmetic():
    cov = CovarianceEstimate(
        M=np.eye(4), C=np.eye(4), sigma2_hat=1.0,
        segment_counts=np.array([100, 100]),
    )
    ci = confidence_intervals(np.zeros(4), cov, 0.95)
    assert np.allclose(ci.upper, 1.959964 * 0.1, atol=1e-5)
    degenerate = CovarianceEstimate(
        M=np.eye(4), C=np.zeros((4, 4)), sigma2_hat=0.0,
        segment_counts=np.array([100, 100]),
    )
    ci0 = confidence_intervals(np.ones(4), degenerate, 0.95)
    assert np.array_equal(ci0.lower, np.ones(4))
    assert np.array_equal(ci0.upper, np.ones(4))


def test_interval_half_widths_match_per_parameter_loop():
    rng = np.random.default_rng(12)
    A = rng.standard_normal((6, 6))
    cov = CovarianceEstimate(
        M=np.eye(6), C=A @ A.T, sigma2_hat=1.0, segment_counts=np.array([30, 70]),
    )
    theta = rng.standard_normal(6)
    ci = confidence_intervals(theta, cov, 0.9)
    z = 1.6448536269514722
    # reference: parameters 0-2 belong to piece 1, 3-5 to piece 2
    half = [z * np.sqrt(cov.C[i, i] / cov.segment_counts[i // 3]) for i in range(6)]
    assert np.allclose(ci.upper - theta, half, rtol=1e-12, atol=0)
    assert np.allclose(theta - ci.lower, half, rtol=1e-12, atol=0)


def test_interval_validation():
    cov = CovarianceEstimate(
        M=np.eye(4), C=np.eye(4), sigma2_hat=1.0,
        segment_counts=np.array([10, 0]),
    )
    with pytest.raises(ValueError):
        confidence_intervals(np.zeros(4), cov, 0.95)
    good = CovarianceEstimate(
        M=np.eye(4), C=np.eye(4), sigma2_hat=1.0,
        segment_counts=np.array([10, 10]),
    )
    with pytest.raises(ValueError):
        confidence_intervals(np.zeros(4), good, 1.5)
    with pytest.raises(ValueError):
        confidence_intervals(np.zeros(3), good, 0.95)


def test_empty_piece_rejected():
    data = Dataset(np.array([0.5, 0.6, 0.7]), np.array([0.5, 0.6, 0.7]))
    with pytest.raises(ValueError):
        plugin_covariance(ABS_MODEL, data)


def test_non_finite_covariance_rejected():
    # squared residuals of about 1e400 overflow sigma2_hat; residuals of
    # 1e153 leave it finite, but C = sigma2_hat M^-1 overflows
    x = np.linspace(-1.0, 1.0, 50)
    huge_sigma2 = Dataset(x, 1e200 * np.abs(x))
    small_x = np.linspace(-0.01, 0.01, 20)
    huge_C = Dataset(small_x, np.full(20, 1e153))
    for data, what in ((huge_sigma2, "sigma2_hat"), (huge_C, "C")):
        for covariance in (
            lambda: plugin_covariance(ABS_MODEL, data),
            lambda: smoothed_covariance(ABS_MODEL, SmoothingSpec(Prox.ENTROPY, 0.1), data),
        ):
            with np.errstate(over="ignore"), pytest.raises(ValueError, match=what):
                covariance()


def test_small_piece_warns():
    data = Dataset(np.array([0.5, 0.6, -0.5]), np.abs([0.5, 0.6, -0.5]))
    with pytest.warns(UserWarning):
        plugin_covariance(ABS_MODEL, data)


def test_plugin_row_permutation_invariance():
    data = separated_dataset(2)
    perm = np.random.default_rng(3).permutation(data.n)
    shuffled = Dataset(data.X[perm], data.Y[perm])
    a = plugin_covariance(ABS_MODEL, data)
    b = plugin_covariance(ABS_MODEL, shuffled)
    assert np.allclose(a.V, b.V, atol=1e-12)
    assert np.allclose(a.C, b.C, atol=1e-12)


def test_smoothed_blocks_equal_at_kink():
    data = Dataset(np.zeros(5), np.zeros(5))
    with pytest.warns(UserWarning, match="singular moment matrix"):
        cov = smoothed_covariance(ABS_MODEL, SmoothingSpec(Prox.ENTROPY, 0.1), data)
    assert np.allclose(cov.V[:2, :2], cov.V[2:, 2:], atol=1e-12)


def test_smoothed_matches_direct_summation():
    data = separated_dataset(4)
    spec = SmoothingSpec(Prox.ENTROPY, 0.05)
    cov = smoothed_covariance(ABS_MODEL, spec, data)
    # independent oracle: accumulate G'G point by point with softmax weights
    M = np.zeros((4, 4))
    for x, _ in zip(data.X[:, 0], data.Y):
        z = np.array([x, -x]) / spec.mu
        z -= z.max()
        w = np.exp(z) / np.exp(z).sum()
        row = np.array([w[0] * x, w[0], w[1] * x, w[1]])
        M += np.outer(row, row) / data.n
    assert np.allclose(cov.W, 4.0 * cov.sigma2_hat * M, atol=1e-10)


def test_smoothed_limit_is_plugin():
    data = separated_dataset(5)
    plug = plugin_covariance(ABS_MODEL, data)
    for prox in Prox:
        cov = smoothed_covariance(ABS_MODEL, SmoothingSpec(prox, 1e-6), data)
        for name in ("V", "W", "C"):
            a, b = getattr(cov, name), getattr(plug, name)
            denom = max(float(np.max(np.abs(b))), 1e-12)
            assert np.max(np.abs(a - b)) / denom < 1e-5
    # at mu = 0 either prox gives the per-piece block estimate; the second
    # dataset puts a point on the kink, where the tie goes to piece 0
    x = np.append(np.random.default_rng(6).uniform(-1.0, 1.0, 59), 0.0)
    for data in (data, Dataset(x, np.abs(x) + 0.1 * np.sin(7.0 * x))):
        for prox in Prox:
            cov = smoothed_covariance(ABS_MODEL, SmoothingSpec(prox, 0.0), data)
            assert_matches_block_oracle(cov, ABS_MODEL, data)


def test_smoothed_piece_without_support_rejected():
    # every point lies more than mu from the kink on the first piece's side,
    # so the sqerr weight of the second piece is exactly 0 everywhere
    data = Dataset(np.array([0.5, 0.6, 0.7, 0.8]), np.array([0.5, 0.6, 0.7, 0.8]))
    with pytest.raises(ValueError, match="no assigned data points"):
        smoothed_covariance(ABS_MODEL, SmoothingSpec(Prox.SQUARED_ERROR, 0.01), data)


def test_hinge_fit_recovers_exact_on_grid():
    truth = Hinge1D(alpha1=0.5, alpha2=-0.2, beta1=1.3, theta=-0.25)
    rng = np.random.default_rng(6)
    x = rng.uniform(-1, 1, 120)
    data = Dataset(x, truth.evaluate(x))
    # theta0 = -0.25 lies on the 9-point grid over [-1, 1]
    est = hinge_fit_1d(data, grid=9)
    assert est.theta == pytest.approx(truth.theta, abs=1e-12)
    for field in ("alpha1", "alpha2", "beta1"):
        assert getattr(est, field) == pytest.approx(getattr(truth, field), abs=1e-8)


def test_hinge_fit_pure_line_tie_breaks_low():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, 50)
    data = Dataset(x, 0.7 * x + 0.1)
    # every valid change point attains the same (perfect) fit; the tie
    # breaks towards the smallest candidate whose design has full rank
    est = hinge_fit_1d(data, grid=11)
    assert est.theta == pytest.approx(-0.8)
    assert est.beta1 == pytest.approx(0.0, abs=1e-8)


def test_hinge_fit_two_point_grid():
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, 60)
    y = 0.2 * x + np.maximum(x + 0.9, 0.0)
    est = hinge_fit_1d(Dataset(x, y), grid=2, bounds=(-0.9, 0.0))
    assert est.theta == pytest.approx(-0.9)


def test_hinge_fit_grid_refinement_never_worse():
    truth = Hinge1D(alpha1=-0.3, alpha2=0.4, beta1=0.8, theta=0.137)
    rng = np.random.default_rng(9)
    x = rng.uniform(-1, 1, 200)
    data = Dataset(x, truth.evaluate(x) + 0.05 * rng.standard_normal(200))

    def sse(grid):
        est = hinge_fit_1d(data, grid=grid)
        r = data.Y - est.evaluate(x)
        return float(r @ r)

    values = [sse(g) for g in (5, 9, 17, 33, 65)]
    for coarse, fine in zip(values, values[1:]):
        assert fine <= coarse + 1e-10


def test_hinge_fit_validation():
    data = Dataset(np.zeros((5, 2)), np.zeros(5))
    with pytest.raises(ValueError):
        hinge_fit_1d(data, grid=10)
    flat = Dataset(np.full(5, 2.0), np.zeros(5))
    with pytest.raises(ValueError):
        hinge_fit_1d(flat, grid=2)


def test_hinge_1d_continuity_at_change_point():
    h = Hinge1D(alpha1=0.5, alpha2=0.1, beta1=-0.9, theta=0.3)
    eps = 1e-13
    assert abs(h.evaluate(0.3 - eps) - h.evaluate(0.3 + eps)) < 1e-12


def test_hinge_2d_horizontal_boundary():
    h = Hinge2D(alpha1=0.5, alpha2=-0.2, alpha3=0.1, beta2=1.5, p=(-1.0, 0.0), q=(1.0, 0.0))
    # boundary is y = 0: below it the hinge term vanishes
    assert h.evaluate(0.3, -0.4) == pytest.approx(0.5 * 0.3 - 0.2 * -0.4 + 0.1)
    assert h.evaluate(0.3, 0.4) == pytest.approx(0.5 * 0.3 - 0.2 * 0.4 + 0.1 + 1.5 * 0.4)


def test_hinge_2d_continuity_on_boundary():
    h = Hinge2D(alpha1=0.4, alpha2=0.7, alpha3=-0.2, beta2=2.0, p=(-1.0, -0.5), q=(1.0, 0.5))
    for x in np.linspace(-1, 1, 21):
        fx = 0.5 * x  # line through p and q
        above = h.evaluate(x, fx + 1e-13)
        below = h.evaluate(x, fx - 1e-13)
        assert abs(above - below) < 1e-12


def test_hinge_2d_vertical_boundary_and_degenerate_cases():
    v = Hinge2D(alpha1=0.0, alpha2=0.0, alpha3=0.0, beta2=1.0, p=(0.2, -1.0), q=(0.2, 1.0))
    assert v.evaluate(0.2, 0.5) == pytest.approx(0.0, abs=1e-12)
    flat = Hinge2D(alpha1=0.3, alpha2=0.4, alpha3=0.5, beta2=0.0, p=(0.0, 0.0), q=(1.0, 1.0))
    assert flat.evaluate(0.6, -0.9) == pytest.approx(0.3 * 0.6 + 0.4 * -0.9 + 0.5)
    with pytest.raises(ValueError):
        Hinge2D(alpha1=0.0, alpha2=0.0, alpha3=0.0, beta2=1.0, p=(0.0, 0.0), q=(0.0, 0.0))
