"""Plug-in covariance matrices, normal confidence intervals, and the
grid-search hinge baseline (the exact fit of acceptance criterion 9 and
the oracle of the broken-stick fit test).

The covariance machinery targets the two-piece convex model (two
intersecting lines/planes).  Parameters are ordered piece by piece:
``(a_1, b_1, a_2, b_2)`` with each slope block of length ``d``.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import PwaModel, pack
from .objective import _UNSMOOTHED, Dataset, _kernel
from .optimizer import FitResult
from .smoothing import SmoothingSpec

__all__ = [
    "CovarianceEstimate",
    "ConfidenceIntervals",
    "Hinge1D",
    "Hinge2D",
    "line_parameters",
    "plugin_covariance",
    "smoothed_covariance",
    "confidence_intervals",
    "hinge_fit_1d",
]

_COND_LIMIT = 1e12


@dataclass(frozen=True)
class CovarianceEstimate:
    """Sandwich covariance of the two-piece line parameters.

    ``M = G'G/n`` is the moment matrix of the rows
    ``G_i = (w_i1 (x_i, 1), w_i2 (x_i, 1))`` with the smoothing weights
    ``w_i`` of a spec.  The plug-in estimate is the ``mu = 0`` case, whose
    weights are one-hot on the maximizing piece.  ``C`` is the
    sandwich ``V^-1 W V^-1 = sigma2_hat M^-1``; ``V = 2M`` and
    ``W = 4 sigma2_hat M`` are derived from ``M``.
    """

    M: np.ndarray
    C: np.ndarray
    sigma2_hat: float
    segment_counts: np.ndarray

    @property
    def V(self) -> np.ndarray:
        return 2.0 * self.M

    @property
    def W(self) -> np.ndarray:
        return 4.0 * self.sigma2_hat * self.M


@dataclass(frozen=True)
class ConfidenceIntervals:
    lower: np.ndarray
    upper: np.ndarray
    level: float


def _two_piece_model(model: PwaModel) -> PwaModel:
    """The normalised model, which must have a two-piece convex part."""
    m = model.normalize()
    if m.k1 != 2 or m.k2 != 1:
        raise ValueError("a two-piece convex model (k1=2, trivial part2) is required")
    return m


def line_parameters(model: PwaModel) -> np.ndarray:
    """Flat parameter vector (a_1, b_1, a_2, b_2) of the two-piece model."""
    return _two_piece_model(model).part1.coeffs.ravel()


def plugin_covariance(model: PwaModel, data: Dataset) -> CovarianceEstimate:
    """Sandwich covariance for the two-piece convex model via hard piece
    assignment: the moment matrix is block diagonal, with the per-piece
    sums of ``[x,1][x,1]'`` scaled by ``1/n`` as its blocks.  This is
    :func:`smoothed_covariance` at ``mu = 0``.
    """
    return smoothed_covariance(model, _UNSMOOTHED, data)


def smoothed_covariance(model: PwaModel, spec: SmoothingSpec, data: Dataset) -> CovarianceEstimate:
    """Sandwich covariance from the per-point smoothing weights of ``spec``;
    ``mu = 0`` gives hard piece assignment, :func:`plugin_covariance`.

    ``sigma2_hat`` and ``segment_counts`` come from the ``mu = 0`` pass for
    every spec.  A piece's support is the number of points where its weight
    is positive.  Raises ``ValueError`` when a piece has no support, or when
    ``sigma2_hat`` or ``C`` is not finite; warns when a support is below
    ``d + 1``, which makes that piece's moment block singular.
    """
    m = _two_piece_model(model)
    kernel, theta = _kernel(m, spec, data), pack(m)
    sigma2 = kernel.value(theta, 0.0)
    # the one-hot mu = 0 weights count the paper's N_j, the points on piece j
    counts = np.count_nonzero(kernel.weights, axis=0)
    if spec.mu > 0.0:
        kernel.value(theta, spec.mu)
    weights = kernel.weights
    support = np.count_nonzero(weights > 0, axis=0)
    if np.any(support == 0):
        raise ValueError("a piece has no assigned data points")
    if np.any(support < data.d + 1):
        warnings.warn("a piece has fewer than d+1 points; moment block is singular")
    Xaug = np.column_stack([data.X, np.ones(data.n)])
    # G rows are (w_1 x, w_1, w_2 x, w_2); M = G'G/n is the weighted moment matrix
    G = (weights[:, :, None] * Xaug[:, None, :]).reshape(data.n, -1)
    M = G.T @ G / data.n
    if not np.isfinite(sigma2):
        raise ValueError(f"non-finite covariance: sigma2_hat is {sigma2}")
    if np.linalg.cond(M) > _COND_LIMIT:
        warnings.warn("singular moment matrix; using pseudo-inverse")
        Minv = np.linalg.pinv(M)
    else:
        Minv = np.linalg.inv(M)
    C = sigma2 * Minv
    if not np.all(np.isfinite(C)):
        raise ValueError("non-finite covariance: C has a non-finite entry")
    return CovarianceEstimate(M=M, C=C, sigma2_hat=sigma2, segment_counts=counts)


def confidence_intervals(
    estimate: FitResult | np.ndarray, cov: CovarianceEstimate, level: float = 0.95
) -> ConfidenceIntervals:
    """Per-parameter normal intervals ``theta_i +/- z sqrt(C_ii / N_i)``.

    ``N_i`` is the number of points assigned to the piece owning
    parameter ``i``.  Because ``C`` comes from moments scaled by ``1/n``,
    these are exactly ``sqrt(n/N_i)`` times wider than per-piece OLS
    intervals with the same ``sigma2_hat``.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    theta = (
        line_parameters(estimate.model)
        if isinstance(estimate, FitResult)
        else np.asarray(estimate, dtype=float)
    )
    p = cov.C.shape[0]
    if theta.size != p:
        raise ValueError("estimate length does not match the covariance matrix")
    N = np.repeat(cov.segment_counts, p // len(cov.segment_counts))
    empty = np.flatnonzero(N == 0)
    if empty.size:
        raise ValueError(f"no data points on the piece owning parameter {empty[0]}")
    from scipy.special import ndtri  # deferred: importing pwafit needs no scipy

    z = float(ndtri(0.5 + level / 2.0))
    half = z * np.sqrt(np.maximum(np.diag(cov.C), 0.0) / N)
    return ConfidenceIntervals(lower=theta - half, upper=theta + half, level=level)


# ---------------------------------------------------------------------------
# Hinge-model baseline (grid search over the change point)


@dataclass(frozen=True)
class Hinge1D:
    """Broken stick ``y = alpha1 x + alpha2 + beta1 (x - theta)^+``."""

    alpha1: float
    alpha2: float
    beta1: float
    theta: float

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        return self.alpha1 * x + self.alpha2 + self.beta1 * np.maximum(x - self.theta, 0.0)


@dataclass(frozen=True)
class Hinge2D:
    """Two-plane hinge gated by the side of the projected boundary line.

    ``z = alpha1 x + alpha2 y + alpha3 + beta2 (y - f(x))^+`` where the
    boundary line passes through ``p`` and ``q``; the positive part is
    taken on the side where ``sign(det(q-p, (x,y)-p)) >= 0``.  Vertical
    boundaries (``p_x == q_x``) use the ``x - p_x`` parameterization.
    """

    alpha1: float
    alpha2: float
    alpha3: float
    beta2: float
    p: tuple[float, float]
    q: tuple[float, float]

    def __post_init__(self) -> None:
        if tuple(self.p) == tuple(self.q):
            raise ValueError("boundary points p and q must differ")

    def evaluate(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        px, py = self.p
        qx, qy = self.q
        side = (qx - px) * (y - py) - (qy - py) * (x - px)
        gate = side >= 0.0
        if px != qx:
            offset = y - ((x - px) * (qy - py) / (qx - px) + py)
        else:
            offset = x - px
        base = self.alpha1 * x + self.alpha2 * y + self.alpha3
        return base + self.beta2 * np.where(gate, offset, 0.0)


def hinge_fit_1d(
    data: Dataset, grid: int, bounds: tuple[float, float] = (-1.0, 1.0)
) -> Hinge1D:
    """Grid-search hinge fit: linear least squares in (alpha1, alpha2, beta1)
    at each candidate change point on an equidistant grid.

    Candidates with a rank-deficient design (all data on one side) are
    skipped; ties are broken towards the smallest change point.
    """
    if data.d != 1:
        raise ValueError("hinge_fit_1d requires one-dimensional predictors")
    if grid < 2:
        raise ValueError("grid must have at least two points")
    xs = data.X[:, 0]
    ones = np.ones_like(xs)
    best: tuple[float, np.ndarray, float] | None = None  # (sse, coef, theta)
    for theta in np.linspace(bounds[0], bounds[1], grid):
        D = np.column_stack([xs, ones, np.maximum(xs - theta, 0.0)])
        if np.linalg.matrix_rank(D) < 3:
            continue
        coef, *_ = np.linalg.lstsq(D, data.Y, rcond=None)
        r = data.Y - D @ coef
        sse = float(r @ r)
        if best is None or sse < best[0] - 1e-12 * (1.0 + best[0]):
            best = (sse, coef, float(theta))
    if best is None:
        raise ValueError("no valid change-point candidate (data on one side everywhere)")
    _, coef, theta = best
    return Hinge1D(alpha1=float(coef[0]), alpha2=float(coef[1]), beta1=float(coef[2]), theta=theta)
