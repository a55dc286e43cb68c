"""Plug-in covariance matrices, normal confidence intervals, and the
grid-search hinge baseline (the exact fit of acceptance criterion 9 and
the oracle of the broken-stick fit test).

The covariance machinery targets the two-piece convex model (two
intersecting lines/planes).  Parameters are ordered piece by piece:
``(a_1, b_1, a_2, b_2)`` with each slope block of length ``d``.
"""
from __future__ import annotations

import math
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
    kernel, theta = _kernel(m, spec, data), pack(m)[None]
    # part1's piece-major weights, (1, 2, n); one-hot at mu = 0, they count the paper's N_j
    values, _, (W, _) = kernel._pass(theta, 0.0)
    sigma2, counts = float(values[0]), np.count_nonzero(W[0], axis=1)
    if spec.mu > 0.0:
        _, _, (W, _) = kernel._pass(theta, spec.mu)
    support = np.count_nonzero(W[0] > 0, axis=1)
    if np.any(support == 0):
        raise ValueError("a piece has no assigned data points")
    if np.any(support < data.d + 1):
        warnings.warn("a piece has fewer than d+1 points; moment block is singular")
    # G rows are (w_1 x, w_1, w_2 x, w_2); M = G'G/n is the weighted moment matrix
    G = (W[0].T[:, :, None] * kernel.X1T.T[:, None, :]).reshape(data.n, -1)
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


# Cephes ndtri (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989), the upper half only: the same tables, Horner order and
# branch tests, so the quantile is bit-equal to scipy.special.ndtri.  The Q
# tables hold the leading 1.0 that Cephes' p1evl implies; as 1.0 * x == x,
# _polevl sums them to p1evl's bits.
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)

# central branch, 0.5 <= p <= 1 - exp(-2)
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (
    1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
# tail, x = sqrt(-2 log(1 - p)) in [2, 8)
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
# far tail, x >= 8, i.e. 1 - p <= exp(-32)
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = (
    1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _polevl(x: float, coef: tuple) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _normal_quantile(p: float) -> float:
    """Standard normal quantile for ``0.5 <= p <= 1``; ``inf`` at ``p = 1``."""
    if p == 1.0:
        return math.inf
    if p <= 1.0 - _EXP_M2:
        y = p - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(1.0 - p))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _polevl(z, _Q2)
    return x0 - x1


def confidence_intervals(
    estimate: FitResult | np.ndarray, cov: CovarianceEstimate, level: float = 0.95
) -> ConfidenceIntervals:
    """Per-parameter normal intervals ``theta_i +/- z sqrt(C_ii / N_i)``.

    ``N_i`` is the number of points assigned to the piece owning
    parameter ``i``.  Because ``C`` comes from moments scaled by ``1/n``,
    these are exactly ``sqrt(n/N_i)`` times wider than per-piece OLS
    intervals with the same ``sigma2_hat``.

    ``z`` is the normal quantile at ``0.5 + level / 2``, computed by a port of
    Cephes ``ndtri`` that is bit-equal to ``scipy.special.ndtri``.  A level
    so close to 1 that ``0.5 + level / 2`` rounds to 1 raises ``ValueError``.
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
    z = _normal_quantile(0.5 + level / 2.0)
    if not math.isfinite(z):
        raise ValueError(f"level {level!r} is too close to 1: its normal quantile is infinite")
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
