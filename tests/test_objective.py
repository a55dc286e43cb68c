import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwafit.model import MaxAffine, PwaModel, convex_model, pack, unpack
from pwafit.objective import (
    Dataset,
    SmoothedLeastSquares,
    empirical_norm,
    least_squares,
    least_squares_gradient,
)
from pwafit.simulate import generate, preset
from pwafit.smoothing import Prox, SmoothingSpec, project_simplex, rho_max, smooth_max


def smooth_value_model(model, spec, x):
    """Smoothed model value at one point: difference of the smoothed parts."""
    pt = np.atleast_2d(x)
    v1, _ = smooth_max(model.part1.piece_values(pt), spec.prox, spec.mu)
    v2, _ = smooth_max(model.part2.piece_values(pt), spec.prox, spec.mu)
    return float(v1[0] - v2[0])


def random_instance(seed, n=15, d=2, k1=2, k2=2):
    rng = np.random.default_rng(seed)
    model = PwaModel(
        MaxAffine(rng.uniform(-1, 1, (k1, d + 1))),
        MaxAffine(rng.uniform(-1, 1, (k2, d + 1))),
    )
    X = rng.uniform(-2, 2, (n, d))
    Y = model.evaluate(X) + 0.3 * rng.standard_normal(n)
    return model, Dataset(X, Y)


def test_dataset_promotes_1d_predictors():
    data = Dataset(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]))
    assert data.X.shape == (3, 1)
    assert data.n == 3 and data.d == 1


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        Dataset(np.array([[np.nan, 0.0]]), np.array([0.0]))
    with pytest.raises(ValueError):
        Dataset(np.zeros((0, 2)), np.zeros(0))
    # no predictor columns: a model needs d >= 1
    with pytest.raises(ValueError, match="d >= 1"):
        Dataset(np.zeros((5, 0)), np.arange(5.0))


def test_perfect_smoothed_fit_gives_zero():
    model, data = random_instance(0)
    spec = SmoothingSpec(Prox.ENTROPY, 0.2)
    fitted = np.array([smooth_value_model(model, spec, x) for x in data.X])
    exact_data = Dataset(data.X, fitted)
    assert least_squares(model, spec, exact_data) == pytest.approx(0.0, abs=1e-28)
    g = least_squares_gradient(model, spec, exact_data)
    assert np.allclose(g, 0.0, atol=1e-13)


def test_single_residual_squared():
    model = convex_model([[0.0, 0.0]])
    data = Dataset(np.array([[0.5]]), np.array([2.0]))
    assert least_squares(model, SmoothingSpec(Prox.ENTROPY, 0.1), data) == pytest.approx(4.0)
    assert least_squares(model, SmoothingSpec(Prox.SQUARED_ERROR, 0.0), data) == pytest.approx(4.0)


def test_value_matches_naive_recomputation():
    model, data = random_instance(5)
    for prox in Prox:
        spec = SmoothingSpec(prox, 0.15)
        naive = np.mean(
            [(y - smooth_value_model(model, spec, x)) ** 2 for x, y in zip(data.X, data.Y)]
        )
        assert least_squares(model, spec, data) == pytest.approx(float(naive), abs=1e-12)


@pytest.mark.parametrize("prox", list(Prox))
def test_zero_mu_is_empirical_norm(prox):
    model, data = random_instance(3)
    assert least_squares(model, SmoothingSpec(prox, 0.0), data) == empirical_norm(model, data)


def test_dimension_mismatch_rejected():
    model = convex_model([[1.0, 0.0]])
    data = Dataset(np.zeros((4, 2)), np.zeros(4))
    with pytest.raises(ValueError):
        least_squares(model, SmoothingSpec(Prox.SQUARED_ERROR, 0.0), data)
    with pytest.raises(ValueError):
        least_squares_gradient(model, SmoothingSpec(Prox.ENTROPY, 0.1), data)


def test_gradient_requires_smoothing():
    model, data = random_instance(7)
    with pytest.raises(ValueError):
        least_squares_gradient(model, SmoothingSpec(Prox.ENTROPY, 0.0), data)


def test_gradient_single_point_affine_block():
    # one data point, pure affine part1: the part1 gradient block is
    # -2 (y - a x - b - 0) * (x, 1)
    model = unpack(np.array([0.5, 0.2, 0.0, 0.0]), 1, 1, 1)
    x, y = 0.7, 1.0
    data = Dataset(np.array([[x]]), np.array([y]))
    spec = SmoothingSpec(Prox.SQUARED_ERROR, 0.1)
    r = y - (0.5 * x + 0.2)
    g = least_squares_gradient(model, spec, data)
    assert np.allclose(g[:2], [-2.0 * r * x, -2.0 * r])
    # the trivial part2 row carries the opposite sign
    assert np.allclose(g[2:], [2.0 * r * x, 2.0 * r])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_gradient_matches_finite_differences(seed):
    model, data = random_instance(seed, n=10)
    v0 = pack(model)
    for prox in Prox:
        spec = SmoothingSpec(prox, 0.1)
        g = least_squares_gradient(model, spec, data)
        fd = np.zeros_like(v0)
        h = 1e-6
        for i in range(v0.size):
            e = np.zeros_like(v0)
            e[i] = h
            hi = least_squares(unpack(v0 + e, 2, 2, 2), spec, data)
            lo = least_squares(unpack(v0 - e, 2, 2, 2), spec, data)
            fd[i] = (hi - lo) / (2 * h)
        err = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-10)
        assert err < 1e-5


def test_empirical_norm_trivial_cases():
    model = convex_model([[0.0, 1.0]])
    X = np.linspace(-1, 1, 9)
    data = Dataset(X, np.full(9, 2.0))
    assert empirical_norm(model, data) == pytest.approx(1.0)
    exact = Dataset(X, np.full(9, 1.0))
    assert empirical_norm(model, exact) == 0.0


def test_smoothed_value_approaches_unsmoothed():
    model, data = random_instance(13)
    for prox in Prox:
        val = least_squares(model, SmoothingSpec(prox, 1e-8), data)
        assert val == pytest.approx(empirical_norm(model, data), abs=1e-6)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_smoothing_perturbs_criterion_within_bound(seed):
    model, data = random_instance(seed)
    r = np.abs(data.Y - model.evaluate(data.X))
    for prox in Prox:
        for mu in (0.5, 0.1, 0.01):
            delta = mu * (rho_max(prox, 2) + rho_max(prox, 2))
            bound = delta * (2.0 * float(np.mean(r)) + delta) + 1e-12
            spec = SmoothingSpec(prox, mu)
            diff = abs(least_squares(model, spec, data) - empirical_norm(model, data))
            assert diff <= bound


def test_row_permutation_invariance():
    model, data = random_instance(17)
    perm = np.random.default_rng(1).permutation(data.n)
    shuffled = Dataset(data.X[perm], data.Y[perm])
    spec = SmoothingSpec(Prox.SQUARED_ERROR, 0.1)
    assert least_squares(model, spec, data) == pytest.approx(
        least_squares(model, spec, shuffled), abs=1e-14
    )
    assert np.allclose(
        least_squares_gradient(model, spec, data),
        least_squares_gradient(model, spec, shuffled),
        atol=1e-13,
    )


@pytest.mark.parametrize("prox", list(Prox))
@pytest.mark.parametrize("k1,k2,d", [(2, 0, 1), (3, 0, 2), (2, 1, 1), (2, 2, 2)])
def test_kernel_matches_public_api_and_finite_differences(prox, k1, k2, d):
    # k2 = 0 pins part2 to the zero part and leaves it out of theta
    rng = np.random.default_rng(100 * k1 + 10 * k2 + d)
    theta = rng.uniform(-1, 1, (k1 + k2) * (d + 1))
    full = np.concatenate([theta, np.zeros(d + 1)]) if k2 == 0 else theta
    model = unpack(full, k1, max(k2, 1), d)
    X = rng.uniform(-2, 2, (30, d))
    data = Dataset(X, model.evaluate(X) + 0.2 * rng.standard_normal(30))
    spec = SmoothingSpec(prox, 0.1)
    kernel = SmoothedLeastSquares(data.X, data.Y, k1, k2, prox)
    value = kernel.value(theta, 0.1)
    grad = kernel.gradient()
    assert grad.shape == theta.shape
    assert value == pytest.approx(least_squares(model, spec, data), abs=1e-12)
    assert np.allclose(grad, least_squares_gradient(model, spec, data)[: theta.size], rtol=0, atol=1e-12)
    h = 1e-6
    fd = np.array(
        [
            (kernel.value(theta + h * e, 0.1) - kernel.value(theta - h * e, 0.1)) / (2 * h)
            for e in np.eye(theta.size)
        ]
    )
    assert np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-10) < 1e-5


@pytest.mark.parametrize("prox", list(Prox))
@pytest.mark.parametrize("k2", [0, 1, 2])
def test_kernel_is_bit_equal_to_products_over_piece_rows(prox, k2):
    # the kernel forms piece values and weights piece-major; its value and
    # gradient must still carry the bits of the products over (n, k) arrays
    data = generate(preset("planes-d4", seed=3))
    X, Y, d = data.X, data.Y, data.d
    theta = np.random.default_rng(4).uniform(-1, 1, (2 + k2) * (d + 1))
    kernel = SmoothedLeastSquares(X, Y, 2, k2, prox)
    value = kernel.value(theta, 0.05)
    parts, offset = [], 0
    for k, sign in ((2, 1.0), (k2, -1.0)):
        if k:
            A = theta[offset : offset + k * d].reshape(k, d)
            vals, W = smooth_max(X @ A.T + theta[offset + k * d : offset + k * (d + 1)], prox, 0.05)
            parts.append((vals, np.ascontiguousarray(W), sign * -2.0 / data.n))
            offset += k * (d + 1)
    r = Y - (parts[0][0] - parts[1][0] if k2 else parts[0][0])
    want = np.concatenate(
        [g for _, W, s in parts for g in ((s * (W * r[:, None]).T @ X).ravel(), s * (W.T @ r))]
    )
    assert value == np.mean(r * r)
    assert np.array_equal(kernel.gradient(), want)


@pytest.mark.parametrize("prox", list(Prox))
@pytest.mark.parametrize(
    "name,k1,k2", [("broken-stick-200", 2, 0), ("planes-d2", 3, 1), ("planes-d4", 1, 1)]
)
def test_stacked_members_carry_their_one_member_bits(name, prox, k1, k2):
    # a (P, m) stack with one mu per member: each member's value and gradient
    # equal its one-member call, and gradient(rows) picks rows of the stack
    data = generate(preset(name, seed=5))
    m = (k1 + k2) * (data.d + 1)
    thetas = np.random.default_rng(6).uniform(-1.5, 1.5, (5, m))
    mus = np.array([1.6, 0.4, 0.05, 0.8, 0.01])
    kernel = SmoothedLeastSquares(data.X, data.Y, k1, k2, prox)
    values = kernel.value(thetas, mus)
    grads = kernel.gradient()
    assert values.shape == (5,) and grads.shape == (5, m)
    rows = np.array([1, 3, 4])
    assert np.array_equal(kernel.gradient(rows), grads[rows])
    for theta, mu, value, grad in zip(thetas, mus, values, grads):
        assert kernel.value(theta, mu) == value
        assert np.array_equal(kernel.gradient(), grad)


@pytest.mark.parametrize("mu", [0.0, 0.05])
def test_kernel_weights_are_part1s_of_the_last_value_call(mu):
    model, data = random_instance(4, k1=3, k2=2)
    kernel = SmoothedLeastSquares(data.X, data.Y, 3, 2, Prox.SQUARED_ERROR)
    kernel.value(pack(model), mu)
    _, want = smooth_max(model.part1.piece_values(data.X), Prox.SQUARED_ERROR, mu)
    assert kernel.weights.shape == (data.n, 3)
    assert np.array_equal(kernel.weights, want)
    with pytest.raises(ValueError, match="read-only"):
        kernel.weights[0, 0] = 1.0


def test_kernel_weights_of_a_stack_are_its_members():
    model, data = random_instance(5)
    kernel = SmoothedLeastSquares(data.X, data.Y, 2, 2, Prox.ENTROPY)
    thetas, mus = np.stack([pack(model), -pack(model)]), [0.2, 0.3]
    kernel.value(thetas, np.array(mus))
    stacked = kernel.weights
    assert stacked.shape == (2, data.n, 2)
    for theta, mu, W in zip(thetas, mus, stacked):
        kernel.value(theta, mu)
        assert np.array_equal(kernel.weights, W)


def test_kernel_gradient_follows_last_value_call():
    model, data = random_instance(3)
    kernel = SmoothedLeastSquares(data.X, data.Y, 2, 2, Prox.ENTROPY)
    theta = pack(model)
    kernel.value(theta, 0.1)
    at_theta = kernel.gradient()
    kernel.value(theta + np.linspace(0.1, 0.5, theta.size), 0.1)
    assert not np.allclose(kernel.gradient(), at_theta)
    kernel.value(theta, 0.1)
    assert np.array_equal(kernel.gradient(), at_theta)


# The kernel's elementwise chains run in place.  These are the out-of-place
# formulas they replace, kept as the reference for their bits.
def reference_project_simplex(c):
    c = np.asarray(c, dtype=float)
    single = c.ndim == 1
    V = (c[None, :] if single else c).swapaxes(-1, -2)
    k = V.shape[-2]
    if k == 2:
        hi = np.maximum(V[..., 0, :], V[..., 1, :])
        lo = np.minimum(V[..., 0, :], V[..., 1, :])
        lam = np.maximum(hi - 1.0, (hi + lo - 1.0) / 2.0)
    else:
        U = np.sort(V, axis=-2)[..., ::-1, :]
        steps = np.arange(1, k + 1)[:, None]
        lam = np.maximum.reduce((np.cumsum(U, axis=-2) - 1.0) / steps, axis=-2)
    w = np.maximum(V - lam[..., None, :], 0.0).swapaxes(-1, -2)
    return w[0] if single else w


def reference_smooth_max(Z, prox, mu):
    Zt = Z.swapaxes(-1, -2)
    k = Zt.shape[-2]
    mu = np.asarray(mu, dtype=float)[..., None]
    if prox == Prox.ENTROPY:
        zmax = np.maximum.reduce(Zt, axis=-2)
        E = np.exp((Zt - zmax[..., None, :]) / mu[..., None])
        S = np.add.reduce(E, axis=-2)
        vals = zmax + mu * (np.log(S) - np.log(k))
        return vals, (E / S[..., None, :]).swapaxes(-1, -2)
    Wt = reference_project_simplex((Zt / mu[..., None] - 1.0 / k).swapaxes(-1, -2)).swapaxes(-1, -2)
    rho = 0.5 * np.add.reduce((Wt - 1.0 / k) ** 2, axis=-2)
    vals = np.add.reduce(Wt * Zt, axis=-2) - mu * rho
    return vals, Wt.swapaxes(-1, -2)


def reference_kernel(X, Y, theta, k1, k2, prox, mu, rows=None):
    """Values and gradients of a ``(P, m)`` stack."""
    d, XT = X.shape[1], np.ascontiguousarray(X.T)

    def part(offset, k):
        A = theta[:, offset : offset + k * d].reshape(-1, k, d)
        Zt = (X @ A.transpose(0, 2, 1)).transpose(0, 2, 1) if k == 1 else A @ XT
        Zt = Zt + theta[:, offset + k * d : offset + k * (d + 1), None]
        return reference_smooth_max(Zt.transpose(0, 2, 1), prox, mu)

    fitted, W1 = part(0, k1)
    weights = [(W1, 1.0)]
    if k2:
        v2, W2 = part(k1 * (d + 1), k2)
        fitted = fitted - v2
        weights.append((W2, -1.0))
    R = Y - fitted
    values = np.add.reduce(R * R, axis=1) / R.shape[1]
    if rows is not None:
        weights = [(W[rows], sign) for W, sign in weights]
        R = R[rows]
    r, blocks = R[:, :, None], []
    for W, sign in weights:
        W = np.ascontiguousarray(W)
        s = sign * (-2.0 / X.shape[0])
        blocks += [
            (s * (W * r).transpose(0, 2, 1) @ X).reshape(R.shape[0], -1),
            s * (W.transpose(0, 2, 1) @ r)[..., 0],
        ]
    return values, np.concatenate(blocks, axis=1)


MU_CASES = [("scalar", 1), ("per-member", 1), ("per-member", 3)]


@pytest.mark.parametrize("prox", list(Prox))
@pytest.mark.parametrize("mu_kind, P", MU_CASES)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_smooth_max_in_place_keeps_the_out_of_place_bits(prox, mu_kind, P, k):
    rng = np.random.default_rng(10 * k + P)
    Zt = rng.uniform(-2, 2, (P, k, 600))
    Zt[:, :, ::7] = Zt[:, :1, ::7]  # ties
    mus = np.array([0.5, 0.03, 2e-4])[:P]
    mu = mus[0] if mu_kind == "scalar" else mus
    for Z in (Zt.transpose(0, 2, 1), np.ascontiguousarray(Zt.transpose(0, 2, 1))):
        if mu_kind == "scalar":
            Z = Z[0]
        before = Z.copy()
        vals, W = smooth_max(Z, prox, mu)
        want_vals, want_W = reference_smooth_max(Z, prox, mu)
        assert np.array_equal(Z, before)
        assert vals.tobytes() == want_vals.tobytes()
        assert np.array_equal(W, want_W)
        C = Z / 0.1
        before = C.copy()
        assert np.array_equal(project_simplex(C), reference_project_simplex(C))
        assert np.array_equal(C, before)


@pytest.mark.parametrize("prox", list(Prox))
@pytest.mark.parametrize("mu_kind, P", MU_CASES)
@pytest.mark.parametrize("k1,k2", [(1, 0), (2, 0), (3, 0), (2, 1), (1, 2), (3, 3)])
def test_kernel_in_place_keeps_the_out_of_place_bits(prox, mu_kind, P, k1, k2):
    # value, residuals and gradient match the out-of-place formulas bit for
    # bit, the (n, k) copies included, and theta is never written
    data = generate(preset("planes-d4", seed=3))
    m = (k1 + k2) * (data.d + 1)
    thetas = np.random.default_rng(k1 + 4 * k2 + P).uniform(-1.5, 1.5, (P, m))
    mus = np.array([0.4, 0.05, 0.01])[:P]
    kernel = SmoothedLeastSquares(data.X, data.Y, k1, k2, prox)
    mu = mus[0] if mu_kind == "scalar" else mus
    want_values, want_grads = reference_kernel(data.X, data.Y, thetas, k1, k2, prox, mu)
    if mu_kind == "scalar":
        theta, before = thetas[0], thetas[0].copy()
        assert kernel.value(theta, mu) == want_values[0]
        assert np.array_equal(theta, before)
        assert np.array_equal(kernel.gradient(), want_grads[0])
        return
    before = thetas.copy()
    assert np.array_equal(kernel.value(thetas, mus), want_values)
    assert np.array_equal(thetas, before)
    assert np.array_equal(kernel.gradient(), want_grads)
    if P > 1:
        rows = np.array([0, 2])
        _, want_rows = reference_kernel(data.X, data.Y, thetas, k1, k2, prox, mus, rows)
        assert np.array_equal(kernel.gradient(rows), want_rows)
