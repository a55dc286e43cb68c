"""Least-squares criterion on smoothed models and the empirical-norm metric."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PwaModel, pack
from .smoothing import Prox, SmoothingSpec, smooth_max

__all__ = [
    "Dataset",
    "SmoothedLeastSquares",
    "least_squares",
    "least_squares_gradient",
    "empirical_norm",
]


@dataclass(frozen=True)
class Dataset:
    """Paired observations: predictors ``X`` (n x d) and responses ``Y`` (n,)."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self) -> None:
        X = np.array(self.X, dtype=float)
        Y = np.array(self.Y, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        if X.ndim != 2 or X.shape[0] < 1:
            raise ValueError("X must be an n x d matrix with n >= 1")
        if Y.ndim != 1 or Y.shape[0] != X.shape[0]:
            raise ValueError("Y must be a vector matching the rows of X")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
            raise ValueError("data must be finite")
        X.setflags(write=False)
        Y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


class SmoothedLeastSquares:
    """Flat-array kernel of the smoothed least-squares criterion.

    ``theta`` is in pack layout for ``k1`` part1 pieces and ``k2`` part2
    pieces; ``k2 = 0`` pins part2 to the zero part and leaves it out of
    ``theta`` (its smoothed value is exactly 0 for both proxes).
    :meth:`value` keeps the weights and residuals that :meth:`gradient`
    needs, so a gradient costs no second smoothing pass.
    """

    def __init__(self, X: np.ndarray, Y: np.ndarray, k1: int, k2: int, prox: Prox, mu: float):
        self.X, self.Y = X, Y
        # piece values are formed piece-major, (k, n), from one contiguous X'
        self.XT = np.ascontiguousarray(X.T)
        self.k1, self.k2, self.d = k1, k2, X.shape[1]
        self.prox, self.mu = prox, mu
        self._cache = None

    def _part(self, theta, offset, k):
        d = self.d
        A = theta[offset : offset + k * d].reshape(k, d)
        # numpy hands a one-row product to a matrix-vector routine that sums
        # over d in another order; X @ A.T keeps the (n, k) kernel's bits
        Zt = (self.X @ A.T).T if k == 1 else A @ self.XT
        Zt = Zt + theta[offset + k * d : offset + k * (d + 1), None]
        return smooth_max(Zt.T, self.prox, self.mu)

    def value(self, theta: np.ndarray) -> float:
        """Mean squared residual of the smoothed model at ``theta``."""
        fitted, W1 = self._part(theta, 0, self.k1)
        W2 = None
        if self.k2:
            v2, W2 = self._part(theta, self.k1 * (self.d + 1), self.k2)
            fitted = fitted - v2
        r = self.Y - fitted
        self._cache = (W1, W2, r)
        return float(np.mean(r * r))

    def gradient(self) -> np.ndarray:
        """Gradient at the point of the last :meth:`value` call, pack layout.

        Equals ``-(2/n) sum_i r_i * grad_theta g_mu(X_i)`` with residuals
        ``r_i = Y_i - g_mu(X_i)``; the part2 block carries the opposite sign.
        """
        W1, W2, r = self._cache
        X = self.X
        scale = -2.0 / X.shape[0]
        # W is the (n, k) view of a piece-major buffer.  The BLAS products
        # sum in a layout-dependent order, so an (n, k)-ordered copy keeps
        # the gradient bit-identical to that of an (n, k) kernel.
        W1 = np.ascontiguousarray(W1)
        blocks = [(scale * (W1 * r[:, None]).T @ X).ravel(), scale * (W1.T @ r)]
        if W2 is not None:
            W2 = np.ascontiguousarray(W2)
            blocks += [(-scale * (W2 * r[:, None]).T @ X).ravel(), -scale * (W2.T @ r)]
        return np.concatenate(blocks)


def _kernel(model: PwaModel, spec: SmoothingSpec | None, data: Dataset) -> SmoothedLeastSquares:
    if model.d != data.d:
        raise ValueError("model and data dimensions disagree")
    prox, mu = (spec.prox, spec.mu) if spec is not None else (Prox.SQUARED_ERROR, 0.0)
    return SmoothedLeastSquares(data.X, data.Y, model.k1, model.k2, prox, mu)


def least_squares(model: PwaModel, spec: SmoothingSpec | None, data: Dataset) -> float:
    """Mean squared residual of the smoothed model.

    ``spec=None`` evaluates the unsmoothed criterion, the ``mu = 0`` case
    of the same kernel (exact maxima); it has no gradient.
    """
    return _kernel(model, spec, data).value(pack(model))


def least_squares_gradient(model: PwaModel, spec: SmoothingSpec, data: Dataset) -> np.ndarray:
    """Exact gradient of :func:`least_squares` in pack layout."""
    if spec is None:
        raise ValueError("gradient requires a smoothing spec with mu > 0")
    kernel = _kernel(model, spec, data)
    kernel.value(pack(model))
    return kernel.gradient()


def empirical_norm(model: PwaModel, data: Dataset) -> float:
    """Average squared residual of the unsmoothed model."""
    return least_squares(model, None, data)
