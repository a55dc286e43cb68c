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
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError("X must be an n x d matrix with n >= 1 and d >= 1")
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


# The unsmoothed criterion: at mu = 0 either prox gives the exact max.
_UNSMOOTHED = SmoothingSpec(Prox.SQUARED_ERROR, 0.0)

# Most piece values (members x pieces x points) one stacked kernel call should
# hold.  Per member, a sqerr value+gradient with k = 2 cost 59/35/21/11 us for
# 1, 2, 4 and 10 stacked members at n = 200 (d = 1), 88/59/40 us for 1, 2 and 4
# at n = 1000 (d = 2), and 100/76/65 us at n = 2000; at n = 10^4 (d = 4), ten
# stacked members cost 1.16x ten single calls (medians of interleaved runs on a
# loaded 2-core x86_64 VM, numpy 2.4 with OpenBLAS).  Stacking pays while a
# call stays in cache.  That host still gained at 8k-16k piece values, but an
# idle run of an older kernel found 4 members at n = 1000 and 2 at n = 2000
# slower than fewer; stacking leaves the bits alone, so the cap moves timings
# only, and no benchmark workload stacks between 4096 and 16k values.
_STACK_PIECE_VALUES = 4096


class SmoothedLeastSquares:
    """Flat-array kernel of the smoothed least-squares criterion.

    ``theta`` is in pack layout for ``k1`` part1 pieces and ``k2`` part2
    pieces; ``k2 = 0`` pins part2 to the zero part and leaves it out of
    ``theta`` (its smoothed value is exactly 0 for both proxes).
    :meth:`value` takes one ``theta`` with a scalar ``mu``, or a ``(P, m)``
    stack with one ``mu`` per member; each member's value and gradient carry
    the same bits as its one-member call.  A caller stacks at most
    ``members_per_call`` members per call.  :meth:`value` keeps the weights
    and residuals that :meth:`gradient` needs, so a gradient costs no second
    smoothing pass.
    """

    def __init__(self, X: np.ndarray, Y: np.ndarray, k1: int, k2: int, prox: Prox):
        if k1 < 1 or k2 < 0:
            raise ValueError("k1 must be >= 1 and k2 >= 0")
        self.X, self.Y = X, Y
        # piece values are formed piece-major, (k, n), from one contiguous X'
        self.XT = np.ascontiguousarray(X.T)
        self.k1, self.k2, self.d = k1, k2, X.shape[1]
        self.size = (k1 + k2) * (self.d + 1)  # the length of theta
        self.prox = prox
        self.members_per_call = max(1, _STACK_PIECE_VALUES // ((k1 + k2) * X.shape[0]))
        self._cache = None

    def _part(self, theta, offset, k, mu):
        d = self.d
        A = theta[:, offset : offset + k * d].reshape(-1, k, d)
        # numpy hands a one-row product to a matrix-vector routine that sums
        # over d in another order; X @ A' keeps the (n, k) kernel's bits
        Zt = (self.X @ A.transpose(0, 2, 1)).transpose(0, 2, 1) if k == 1 else A @ self.XT
        Zt += theta[:, offset + k * d : offset + k * (d + 1), None]
        return smooth_max(Zt.transpose(0, 2, 1), self.prox, mu)

    def value(self, theta: np.ndarray, mu: float | np.ndarray) -> float | np.ndarray:
        """Mean squared residual of the smoothed model at ``theta``; a
        ``(P, m)`` stack gives a ``(P,)`` array."""
        theta = np.asarray(theta, dtype=float)
        single = theta.ndim == 1
        T = theta[None] if single else theta
        # an overflowing Z / mu or square is a non-finite value, which every
        # caller handles; numpy's warning would only reach the user
        with np.errstate(over="ignore", invalid="ignore"):
            # the smoothed values are fresh arrays: the residuals go in place
            R, W1 = self._part(T, 0, self.k1, mu)
            weights = [(W1, 1.0)]
            if self.k2:
                v2, W2 = self._part(T, self.k1 * (self.d + 1), self.k2, mu)
                R -= v2
                weights.append((W2, -1.0))
            np.subtract(self.Y, R, out=R)
            values = np.add.reduce(R * R, axis=1) / R.shape[1]
        self._cache = (single, weights, R)
        return float(values[0]) if single else values

    @property
    def weights(self) -> np.ndarray:
        """Part1's weights at the point(s) of the last :meth:`value` call,
        ``(n, k1)`` per member; a read-only view of those the gradient uses."""
        single, weights, _ = self._cache
        W = weights[0][0].view()
        W.flags.writeable = False
        return W[0] if single else W

    def gradient(self, rows: np.ndarray | None = None) -> np.ndarray:
        """Gradient at the point(s) of the last :meth:`value` call, pack layout.

        ``rows`` picks members of a stacked call, all when ``None``, and
        gives a ``(len(rows), m)`` array.  Equals ``-(2/n) sum_i r_i *
        grad_theta g_mu(X_i)`` with residuals ``r_i = Y_i - g_mu(X_i)``; the
        part2 block carries the opposite sign.
        """
        single, weights, R = self._cache
        X = self.X
        scale = -2.0 / X.shape[0]
        if rows is not None and len(rows) < R.shape[0]:
            weights = [(W[rows], sign) for W, sign in weights]
            R = R[rows]
        r = R[:, :, None]
        blocks = []
        for W, sign in weights:
            # W is the (n, k) view of a piece-major buffer.  The BLAS products
            # sum in a layout-dependent order, so they get (n, k)-ordered
            # copies of W and of W * r, which keeps the gradient bit-identical
            # to that of an (n, k) kernel.  A ufunc writing through the
            # piece-major view of each copy runs its inner loop over n; a
            # strided copy or a broadcast over (n, k) runs it over k.
            Wt = W.transpose(0, 2, 1)
            Wn, WR = np.empty((2,) + W.shape)
            np.positive(Wt, out=Wn.transpose(0, 2, 1))
            np.multiply(Wt, R[:, None, :], out=WR.transpose(0, 2, 1))
            s = sign * scale
            WR *= s
            blocks += [
                (WR.transpose(0, 2, 1) @ X).reshape(R.shape[0], -1),
                s * (Wn.transpose(0, 2, 1) @ r)[..., 0],
            ]
        G = np.concatenate(blocks, axis=1)
        return G[0] if single else G


def _kernel(model: PwaModel, spec: SmoothingSpec, data: Dataset) -> SmoothedLeastSquares:
    if model.d != data.d:
        raise ValueError("model and data dimensions disagree")
    return SmoothedLeastSquares(data.X, data.Y, model.k1, model.k2, spec.prox)


def least_squares(model: PwaModel, spec: SmoothingSpec, data: Dataset) -> float:
    """Mean squared residual of the smoothed model.

    A ``mu = 0`` spec evaluates the unsmoothed criterion (exact maxima),
    the same for either prox; it has no gradient.
    """
    return _kernel(model, spec, data).value(pack(model), spec.mu)


def least_squares_gradient(model: PwaModel, spec: SmoothingSpec, data: Dataset) -> np.ndarray:
    """Exact gradient of :func:`least_squares` in pack layout."""
    if spec.mu == 0.0:
        raise ValueError("gradient requires a smoothing spec with mu > 0")
    kernel = _kernel(model, spec, data)
    kernel.value(pack(model), spec.mu)
    return kernel.gradient()


def empirical_norm(model: PwaModel, data: Dataset) -> float:
    """Average squared residual of the unsmoothed model."""
    return least_squares(model, _UNSMOOTHED, data)
