"""The exact unsmoothed least-squares fit of the convex two-line model in one
dimension, and the paper's claim that the smoothed estimate tends to it as
``mu -> 0``."""
import numpy as np
import pytest

from pwafit.model import convex_model, param_distance
from pwafit.optimizer import FitConfig, fit_pool
from pwafit.simulate import generate, preset


def _lstsq(D, y):
    coef, *_ = np.linalg.lstsq(D, y, rcond=None)
    r = y - D @ coef
    return float(r @ r), coef


def _kink(x, y, knot):
    """The least squares of ``b + s1 min(x - knot, 0) + s2 max(x - knot, 0)``,
    as ``(sse, [[s1, b1], [s2, b2]])`` in slope-intercept form.  Centred on
    the knot, a knot close to a data point gives a large ``s1`` or ``s2``
    that cancels nothing in the fitted values."""
    u = x - knot
    D = np.column_stack([np.ones_like(x), np.minimum(u, 0.0), np.maximum(u, 0.0)])
    sse, (b, s1, s2) = _lstsq(D, y)
    return sse, [[s1, b - s1 * knot], [s2, b - s2 * knot]]


def exact_hinge(X, Y):
    """The least-squares ``max(s1 x + b1, s2 x + b2)`` on 1-d data, as
    ``(mean squared residual, model)``.

    Each partition of the sorted points into a left and a right run gives a
    convex quadratic on a polyhedral cone (the two lines cross in the gap
    between the runs, left line above on the left), so the optimum is the
    best of the free fit inside the cone and the fits on its faces: one line,
    or a kink at a data point with a positive slope change.
    """
    x, y = np.asarray(X, dtype=float)[:, 0], np.asarray(Y, dtype=float)
    order = np.argsort(x, kind="stable")
    x, y = x[order], y[order]
    ones = np.ones_like(x)
    sse, (s, b) = _lstsq(np.column_stack([x, ones]), y)
    best = (sse, [[s, b], [s, b]])
    # a kink at the first or last point is one line
    for knot in np.unique(x)[1:-1]:
        sse, lines = _kink(x, y, knot)
        if lines[1][0] > lines[0][0] and sse < best[0]:
            best = (sse, lines)
    for j in range(1, x.size):
        lo, hi = x[j - 1], x[j]
        if lo == hi:
            continue
        # a run at a single x is fit by every line through its mean; if the
        # line lstsq picks misses the gap, the kink at the gap's other end
        # reaches the same fit
        left = np.column_stack([x[:j], ones[:j]])
        right = np.column_stack([x[j:], ones[j:]])
        sse_l, (s1, b1) = _lstsq(left, y[:j])
        sse_r, (s2, b2) = _lstsq(right, y[j:])
        c = s2 - s1
        if c > 0 and lo < (b1 - b2) / c < hi and sse_l + sse_r < best[0]:
            best = (sse_l + sse_r, [[s1, b1], [s2, b2]])
    sse, coeffs = best
    return sse / x.size, convex_model(coeffs)


def _hinge_sse(x, y, knot):
    """The least squares of two lines that meet at ``knot``, the slope not
    falling there."""
    sse, ((s1, _), (s2, _)) = _kink(x, y, knot)
    return sse if s2 >= s1 else _lstsq(np.column_stack([x, np.ones_like(x)]), y)[0]


def _brute_hinge(x, y, grid=2001, zooms=6):
    """A fine grid of kinks over the data's range, refined by zooming in on
    the best one; the mean squared residual."""
    lo, hi = float(x.min()), float(x.max())
    knots = np.linspace(lo, hi, grid)
    for _ in range(zooms):
        sse = [_hinge_sse(x, y, knot) for knot in knots]
        best = knots[int(np.argmin(sse))]
        width = 2.0 * (knots[1] - knots[0])
        knots = np.linspace(max(lo, best - width), min(hi, best + width), 101)
    return min(sse) / x.size


@pytest.mark.parametrize("seed", range(6))
def test_exact_hinge_matches_a_refined_grid(seed):
    # convex, concave and flat truths; on concave data the best convex fit
    # is one line or a kink at a data point
    rng = np.random.default_rng(seed)
    for n, shape in ((8, 1.0), (15, -1.0), (25, 0.0), (40, 2.0)):
        x = rng.uniform(-1, 1, n)
        y = shape * np.abs(x - 0.2) + 0.1 * rng.standard_normal(n)
        R0, model = exact_hinge(x[:, None], y)
        assert R0 == pytest.approx(np.mean((y - model.evaluate(x[:, None])) ** 2), rel=1e-12)
        brute = _brute_hinge(x, y)
        # never above the grid by more than rounding, and the grid gets there
        assert R0 <= brute * (1 + 1e-12)
        assert R0 >= brute * (1 - 1e-9)


def test_smoothed_fits_tend_to_the_exact_fit():
    # broken-stick-200 seeds 0-7: the pool fit's excess norm over the exact
    # optimum and its distance to it, at mu = 0.01 and 0.001
    for seed in range(8):
        data = generate(preset("broken-stick-200", seed=seed))
        R0, exact = exact_hinge(data.X, data.Y)
        excess, dist = [], []
        for mu in (0.01, 0.001):
            config = FitConfig(mu_target=mu, restarts_pool=10, seed=seed)
            res = fit_pool(data, 2, 0, "sqerr", config)
            excess.append(res.empirical_norm - R0)
            dist.append(param_distance(res.model, exact))
        # no smoothed fit beats the exact optimum
        assert min(excess) >= -1e-12
        # the excess norm falls as mu^2 and the distance as mu, with slack
        assert excess[1] * 50 <= excess[0]
        assert dist[1] * 5 <= dist[0]
