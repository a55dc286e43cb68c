import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwafit.model import MaxAffine, PwaModel, zero_part
from pwafit.smoothing import Prox, SmoothingSpec, _first_max, project_simplex, rho_max, smooth_max

ABS = MaxAffine([[1.0, 0.0], [-1.0, 0.0]])


def smooth_value(f: MaxAffine, spec: SmoothingSpec, x) -> float:
    """Smoothed max ``f_mu(x)`` at one point, through the batch function."""
    vals, _ = smooth_max(f.piece_values(np.atleast_2d(x)), spec.prox, spec.mu)
    return float(vals[0])


def smooth_weights(f: MaxAffine, spec: SmoothingSpec, x) -> np.ndarray:
    _, W = smooth_max(f.piece_values(np.atleast_2d(x)), spec.prox, spec.mu)
    return W[0]


def smooth_gradient_theta(f: MaxAffine, spec: SmoothingSpec, x) -> np.ndarray:
    """Danskin gradient of ``f_mu(x)`` w.r.t. the coefficients, pack layout:
    slope block ``w_j * x`` for each piece, then the intercept block ``w``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    w = smooth_weights(f, spec, x)
    return np.concatenate([np.outer(w, x).ravel(), w])


def smooth_value_model(model: PwaModel, spec: SmoothingSpec, x) -> float:
    return smooth_value(model.part1, spec, x) - smooth_value(model.part2, spec, x)


def smooth_gradient_model(model: PwaModel, spec: SmoothingSpec, x) -> np.ndarray:
    g1 = smooth_gradient_theta(model.part1, spec, x)
    g2 = smooth_gradient_theta(model.part2, spec, x)
    return np.concatenate([g1, -g2])


def brute_force_project(C: np.ndarray) -> np.ndarray:
    """Projection onto the simplex by enumerating all active sets."""
    C = np.atleast_2d(C)
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


def fd_gradient(fun, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g


def test_spec_rejects_bad_mu():
    with pytest.raises(ValueError):
        SmoothingSpec(Prox.ENTROPY, -1.0)
    with pytest.raises(ValueError):
        SmoothingSpec(Prox.ENTROPY, np.inf)
    with pytest.raises(ValueError):
        SmoothingSpec(Prox.ENTROPY, np.nan)


@pytest.mark.parametrize("prox", list(Prox))
def test_spec_accepts_zero_mu(prox):
    # mu = 0 is the unsmoothed criterion, the exact max of smooth_max
    assert SmoothingSpec(prox, 0.0).mu == 0.0


def test_spec_accepts_string_prox():
    assert SmoothingSpec("entropy", 0.1).prox is Prox.ENTROPY
    assert SmoothingSpec("sqerr", 0.1).prox is Prox.SQUARED_ERROR


def test_rho_max_values():
    assert rho_max(Prox.ENTROPY, 3) == pytest.approx(math.log(3))
    assert rho_max(Prox.SQUARED_ERROR, 4) == pytest.approx(0.75)


def test_single_piece_is_exact_both_prox():
    f = MaxAffine([[0.7, -0.3]])
    for prox in Prox:
        spec = SmoothingSpec(prox, 0.25)
        for x in (-1.0, 0.0, 2.0):
            assert smooth_value(f, spec, x) == pytest.approx(0.7 * x - 0.3, abs=1e-14)


def test_entropy_symmetric_kink_value():
    spec = SmoothingSpec(Prox.ENTROPY, 0.1)
    assert smooth_value(ABS, spec, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_entropy_value_closed_form():
    spec = SmoothingSpec(Prox.ENTROPY, 0.1)
    expected = 0.1 * math.log((math.exp(0.5) + math.exp(-0.5)) / 2.0)
    assert smooth_value(ABS, spec, 0.05) == pytest.approx(expected, abs=1e-13)


def test_sqerr_value_matches_brute_force_maximization():
    # pieces {x, -x} at x=1: objective over w=(t,1-t) is 2t-1 - mu*(t-1/2)^2,
    # maximized on the simplex at t=1
    spec = SmoothingSpec(Prox.SQUARED_ERROR, 0.1)
    t = np.linspace(0.0, 1.0, 100_001)
    obj = (2.0 * t - 1.0) - 0.1 * 0.5 * ((t - 0.5) ** 2 + (0.5 - t) ** 2)
    assert smooth_value(ABS, spec, 1.0) == pytest.approx(float(obj.max()), abs=1e-12)
    assert smooth_value(ABS, spec, 1.0) == pytest.approx(0.975, abs=1e-14)


def test_project_simplex_examples():
    assert np.allclose(project_simplex([0.3, 0.7]), [0.3, 0.7])
    assert np.allclose(project_simplex([1.0, 1.0]), [0.5, 0.5])
    assert np.allclose(project_simplex([0.9, 0.5, -0.4]), [0.7, 0.3, 0.0], atol=1e-14)


def test_project_simplex_rejects_nonfinite():
    with pytest.raises(ValueError):
        project_simplex([np.nan, 0.0])


@pytest.mark.parametrize("k", [1, 3])
def test_sqerr_overflow_is_non_finite_at_its_points_only(k):
    # member 0's mu is so small that Z / mu overflows at points 1 and 2; its
    # point 0 and member 1 keep the bits of their own calls (k = 2 takes the
    # closed form, which does not overflow)
    Z = np.array([[[0.0] * k, [0.5] + [-0.5] * (k - 1), [-0.2] * k]] * 2)
    mu = np.array([1e-320, 0.1])
    with np.errstate(over="ignore", invalid="ignore"):
        vals, W = smooth_max(Z, Prox.SQUARED_ERROR, mu)
    assert not np.isfinite(vals[0, 1:]).any() and not np.isfinite(W[0, 1:]).all(axis=-1).any()
    v0, W0 = smooth_max(Z[0, :1], Prox.SQUARED_ERROR, 1e-320)
    v1, W1 = smooth_max(Z[1], Prox.SQUARED_ERROR, 0.1)
    assert np.array_equal(vals[0, :1], v0) and np.array_equal(W[0, :1], W0)
    assert np.array_equal(vals[1], v1) and np.array_equal(W[1], W1)


@pytest.mark.parametrize("mu", [1e-16, 1e-17, 1e-300, 1e-320])
def test_sqerr_two_pieces_keep_the_max_piece_at_tiny_mu(mu):
    # the closed form clamps z1 - z2 to [-mu, mu] before dividing by mu, so
    # no level rounds the max piece's weight away and no quotient overflows:
    # the exact max and one-hot weights, with no warning
    vals, W = smooth_max(np.array([[0.5, -0.5], [0.3, 0.2]]), "sqerr", mu)
    assert vals.tolist() == [0.5, 0.3]
    assert W.tolist() == [[1.0, 0.0], [1.0, 0.0]]


@given(st.integers(0, 2**32 - 1), st.sampled_from([10.0, 1.0, 0.1, 1e-3]))
@settings(max_examples=40, deadline=None)
def test_sqerr_two_pieces_closed_form_is_the_projection(seed, mu):
    Z = np.random.default_rng(seed).uniform(-1, 1, (30, 2))
    Z[::3, 1] = Z[::3, 0]  # ties
    vals, W = smooth_max(Z, Prox.SQUARED_ERROR, mu)
    want_W = project_simplex(Z / mu - 0.5)
    assert np.max(np.abs(W - want_W)) < 1e-12
    rho = 0.5 * np.sum((want_W - 0.5) ** 2, axis=1)
    assert np.max(np.abs(vals - (np.sum(want_W * Z, axis=1) - mu * rho))) < 1e-12


@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_project_simplex_matches_active_set_enumeration(k, seed):
    C = np.random.default_rng(seed).uniform(-3, 3, (25, k))
    got = project_simplex(C)
    want = brute_force_project(C)
    assert np.max(np.abs(got - want)) < 1e-10


@pytest.mark.parametrize("prox", list(Prox))
@pytest.mark.parametrize("mu", [0.0, 0.05])
@pytest.mark.parametrize("k", [2, 3])
def test_smooth_max_same_bits_for_piece_major_input(prox, mu, k):
    Z = np.random.default_rng(k).uniform(-1, 1, (500, k))
    Z[::5, 1] = Z[::5, 0]  # ties
    Zt = np.ascontiguousarray(Z.T)
    vals, W = smooth_max(Z, prox, mu)
    vals_t, W_t = smooth_max(Zt.T, prox, mu)
    assert np.array_equal(vals, vals_t)
    assert np.array_equal(W, W_t)


@pytest.mark.parametrize("prox", list(Prox))
@pytest.mark.parametrize("k", [2, 3])
def test_smooth_max_takes_any_array_like(prox, k):
    Z = np.random.default_rng(k).integers(-3, 4, (20, k))
    want_vals, want_W = smooth_max(Z.astype(float), prox, 0.5)
    for like in (Z, Z.tolist()):
        vals, W = smooth_max(like, prox, 0.5)
        assert vals.tobytes() == want_vals.tobytes()
        assert W.tobytes() == want_W.tobytes()


@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_weights_are_simplex_points(k, seed):
    rng = np.random.default_rng(seed)
    f = MaxAffine(rng.uniform(-1, 1, (k, 3)))
    x = rng.uniform(-2, 2, 2)
    for prox in Prox:
        for mu in (1.0, 0.1, 1e-3):
            w = smooth_weights(f, SmoothingSpec(prox, mu), x)
            assert np.all(w >= 0.0)
            assert abs(w.sum() - 1.0) < 1e-12


def test_weights_identical_pieces():
    f = MaxAffine([[0.5, 0.2], [0.5, 0.2]])
    for prox in Prox:
        w = smooth_weights(f, SmoothingSpec(prox, 0.3), 0.7)
        assert np.allclose(w, [0.5, 0.5])


def test_entropy_weights_softmax_oracle():
    # piece values (1, 0) at x=1 with mu=1
    f = MaxAffine([[1.0, 0.0], [0.0, 0.0]])
    w = smooth_weights(f, SmoothingSpec(Prox.ENTROPY, 1.0), 1.0)
    e = math.e
    assert np.allclose(w, [e / (e + 1.0), 1.0 / (e + 1.0)])


def test_sqerr_weights_saturate():
    assert np.allclose(project_simplex([2.0, 0.0]), [1.0, 0.0])


@given(st.integers(2, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_sandwich_bound(k, seed):
    rng = np.random.default_rng(seed)
    f = MaxAffine(rng.uniform(-1, 1, (k, 4)))
    X = rng.uniform(-2, 2, (30, 3))
    exact = f.evaluate(X)
    for prox in Prox:
        for mu in (1.0, 0.1, 0.01, 1e-4, 0.0):
            smoothed, _ = smooth_max(f.piece_values(X), prox, mu)
            gap = exact - smoothed
            slack = 1e-10 if mu else 0.0
            assert np.all(gap >= -slack)
            assert np.all(gap <= mu * rho_max(prox, k) + slack)


@pytest.mark.parametrize(
    "prox, mu",
    [
        ("sqerr", -0.1),
        ("entropy", -0.1),
        ("sqerr", np.nan),
        ("entropy", np.inf),
        ("entropy", np.array([-0.1, 0.1])),
        ("sqerr", np.array([-0.1, 0.1])),
        ("entropy", np.array([0.0, 0.1])),
        ("sqerr", np.array([0.0, 0.1])),
        ("sqerr", np.array([np.nan, 0.1])),
        ("entropy", np.array([0.1, np.inf])),
    ],
)
def test_smooth_max_rejects_bad_mu(prox, mu):
    # a negative level breaks the sandwich bound, a zero per-member level
    # divides by zero; a scalar mu = 0 is the exact max and stays valid
    Z = np.random.default_rng(0).uniform(-1, 1, (2, 30, 2))
    with pytest.raises(ValueError, match="mu must be"):
        smooth_max(Z if np.ndim(mu) else Z[0], prox, mu)


def test_mu_zero_is_exact_max_with_one_hot_weights():
    rng = np.random.default_rng(5)
    Z = np.vstack([rng.uniform(-1, 1, (20, 3)), [[0.5, 0.5, -1.0]]])
    for prox in Prox:
        vals, W = smooth_max(Z, prox, 0.0)
        assert np.array_equal(vals, Z.max(axis=1))
        assert np.array_equal(W, np.eye(3)[Z.argmax(axis=1)])
        assert np.array_equal(W[-1], [1.0, 0.0, 0.0])
        # |x| at the kink: both pieces attain the max, the first one wins
        _, W0 = smooth_max(ABS.piece_values([[0.0]]), prox, 0.0)
        assert np.array_equal(W0, [[1.0, 0.0]])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_hard_max_over_piece_rows_is_bit_equal_to_argmax(k):
    # mu = 0 reduces over the k piece-major rows with a running strict >;
    # values, weights and indices must be those of argmax, ties included
    rng = np.random.default_rng(k)
    Z = rng.uniform(-1, 1, (40, k))
    Z[::4] = Z[::4, :1]  # every piece ties
    Z[1::4, -1] = Z[1::4, 0]  # the first and the last piece tie
    Z[2::4, 0], Z[2::4, -1] = -0.0, 0.0  # tied zeros of opposite sign
    idx = Z.argmax(axis=1)
    want = Z[np.arange(len(Z)), idx]
    for layout in (Z, np.ascontiguousarray(Z.T).T):
        assert np.array_equal(_first_max(layout.T)[1], idx)
        for prox in Prox:
            vals, W = smooth_max(layout, prox, 0.0)
            assert vals.tobytes() == want.tobytes()
            assert np.array_equal(W, np.eye(k)[idx])
    # a stack of members: each member's rows reduce on their own
    vals, W = smooth_max(np.stack([Z, Z[::-1]]), Prox.ENTROPY, 0.0)
    assert vals.tobytes() == np.stack([want, want[::-1]]).tobytes()
    assert np.array_equal(W, np.eye(k)[np.stack([idx, idx[::-1]])])


def test_entropy_monotone_in_mu():
    rng = np.random.default_rng(11)
    f = MaxAffine(rng.uniform(-1, 1, (4, 3)))
    X = rng.uniform(-2, 2, (20, 2))
    prev = None
    for mu in (1.0, 0.5, 0.1, 0.01):
        vals, _ = smooth_max(f.piece_values(X), Prox.ENTROPY, mu)
        if prev is not None:
            assert np.all(vals >= prev - 1e-12)
        prev = vals


def test_gradient_single_piece():
    f = MaxAffine([[0.4, -0.1]])
    for prox in Prox:
        g = smooth_gradient_theta(f, SmoothingSpec(prox, 0.2), 1.5)
        assert np.allclose(g, [1.5, 1.0])


def test_gradient_identical_pieces():
    f = MaxAffine([[0.5, 0.2], [0.5, 0.2]])
    x = 0.8
    for prox in Prox:
        g = smooth_gradient_theta(f, SmoothingSpec(prox, 0.3), x)
        assert np.allclose(g, [x / 2, x / 2, 0.5, 0.5])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    k, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    coeffs = rng.uniform(-1, 1, (k, d + 1))
    x = rng.uniform(-2, 2, d)
    for prox in Prox:
        spec = SmoothingSpec(prox, 0.1)

        def value_of(v):
            return smooth_value(MaxAffine(v.reshape(k, d + 1)), spec, x)

        g = smooth_gradient_theta(MaxAffine(coeffs), spec, x)
        # pack layout: slope rows then intercepts
        g_mat = np.column_stack([g[: k * d].reshape(k, d), g[k * d :]])
        fd = fd_gradient(value_of, coeffs.ravel()).reshape(k, d + 1)
        err = np.linalg.norm(g_mat - fd) / max(np.linalg.norm(fd), 1e-10)
        assert err < 1e-5


def test_model_value_with_trivial_part2_entropy():
    f = MaxAffine([[1.0, 0.0], [-0.5, 0.3]])
    model = PwaModel(f, zero_part(1))
    spec = SmoothingSpec(Prox.ENTROPY, 0.1)
    for x in (-1.0, 0.2, 0.9):
        assert smooth_value_model(model, spec, x) == pytest.approx(
            smooth_value(f, spec, x), abs=1e-14
        )


def test_model_uniform_bound_entropy():
    rng = np.random.default_rng(21)
    model = PwaModel(
        MaxAffine(rng.uniform(-1, 1, (3, 3))), MaxAffine(rng.uniform(-1, 1, (2, 3)))
    )
    mu = 0.2
    spec = SmoothingSpec(Prox.ENTROPY, mu)
    bound = mu * (math.log(3) + math.log(2)) + 1e-12
    for x in rng.uniform(-2, 2, (50, 2)):
        assert abs(model.evaluate(x) - smooth_value_model(model, spec, x)) <= bound


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_model_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    d = 2
    k1, k2 = 2, 2
    v = rng.uniform(-1, 1, (k1 + k2) * (d + 1))
    x = rng.uniform(-2, 2, d)

    def split(v):
        c1 = np.column_stack([v[: k1 * d].reshape(k1, d), v[k1 * d : k1 * (d + 1)]])
        rest = v[k1 * (d + 1) :]
        c2 = np.column_stack([rest[: k2 * d].reshape(k2, d), rest[k2 * d :]])
        return PwaModel(MaxAffine(c1), MaxAffine(c2))

    for prox in Prox:
        spec = SmoothingSpec(prox, 0.1)
        g = smooth_gradient_model(split(v), spec, x)
        fd = fd_gradient(lambda u: smooth_value_model(split(u), spec, x), v)
        err = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-10)
        assert err < 1e-5


def test_entropy_stable_for_tiny_mu():
    f = MaxAffine([[100.0, 50.0], [-80.0, -20.0]])
    spec = SmoothingSpec(Prox.ENTROPY, 1e-8)
    v = smooth_value(f, spec, 1.0)
    assert np.isfinite(v)
    assert v == pytest.approx(f.evaluate(1.0), abs=1e-6)
