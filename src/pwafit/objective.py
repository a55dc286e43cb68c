"""Least-squares criterion on smoothed models and the empirical-norm metric."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PwaModel, pack
from .smoothing import Prox, SmoothingSpec, _smooth_max

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
    :meth:`value` takes one ``theta`` with a scalar ``mu``; :meth:`evaluate`
    takes a ``(P, m)`` stack with one ``mu`` per member and gives values and
    gradients, each member's the bits of its one-member call.  The kernel
    keeps nothing between calls.
    """

    def __init__(self, X: np.ndarray, Y: np.ndarray, k1: int, k2: int, prox: Prox):
        if k1 < 1 or k2 < 0:
            raise ValueError("k1 must be >= 1 and k2 >= 0")
        self.Y = Y
        # piece values and weights are piece-major, (k, n); X' is the first d
        # rows of one contiguous [X, 1]', which gives the gradient blocks
        self.X1T = np.ascontiguousarray(np.column_stack([X, np.ones(X.shape[0])]).T)
        self.XT = self.X1T[:-1]
        self.k1, self.k2, self.d = k1, k2, X.shape[1]
        self.size = (k1 + k2) * (self.d + 1)  # the length of theta
        self.prox = prox
        self._members_per_call = max(1, _STACK_PIECE_VALUES // ((k1 + k2) * X.shape[0]))

    def _part(self, theta, offset, k, mu):
        d = self.d
        A = theta[:, offset : offset + k * d].reshape(-1, k, d)
        Zt = A @ self.XT
        Zt += theta[:, offset + k * d : offset + k * (d + 1), None]
        return _smooth_max(Zt, self.prox, mu)

    def _pass(self, theta: np.ndarray, mu: float | np.ndarray) -> tuple:
        """Values ``(P,)``, residuals ``(P, n)`` and each part's piece-major
        weights ``(P, k, n)`` of a ``(P, m)`` stack at a scalar or per-member ``mu``."""
        # an overflowing Z / mu or square is a non-finite value, which every
        # caller handles; numpy's warning would only reach the user
        with np.errstate(over="ignore", invalid="ignore"):
            # the smoothed values are fresh arrays: the residuals go in place
            R, W1 = self._part(theta, 0, self.k1, mu)
            weights = [W1]
            if self.k2:
                v2, W2 = self._part(theta, self.k1 * (self.d + 1), self.k2, mu)
                R -= v2
                weights.append(W2)
            np.subtract(self.Y, R, out=R)
            values = np.add.reduce(R * R, axis=1) / R.shape[1]
        return values, R, weights

    def value(self, theta: np.ndarray, mu: float) -> float:
        """Mean squared residual of the smoothed model at one ``theta``."""
        theta = np.asarray(theta, dtype=float)
        if theta.ndim != 1:
            raise ValueError(f"value takes one theta, got shape {theta.shape}")
        return float(self._pass(theta[None], mu)[0][0])

    def _gradient(self, R: np.ndarray, weights: list) -> np.ndarray:
        """Pack-layout gradients ``(P, m)`` of one pass.  Its temporaries die here:
        alive into the next slice's pass, they cost page faults at n = 10^4."""
        r = R * (-2.0 / R.shape[1])
        blocks = []
        for part, Wt in enumerate(weights):
            # one product of the piece-major W' * r with [X, 1] gives the
            # part's slope and intercept blocks; part2's carry the opposite sign
            B = np.multiply(Wt, r[:, None, :]) @ self.X1T.T
            if part:
                np.negative(B, out=B)
            blocks += [B[..., :-1].reshape(len(R), -1), B[..., -1]]
        return np.concatenate(blocks, axis=1)

    def evaluate(self, theta: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values ``(P,)`` and pack-layout gradients ``(P, m)`` of a ``(P, m)``
        stack with one ``mu`` per member.

        A gradient is ``-(2/n) sum_i r_i * grad_theta g_mu(X_i)`` with
        residuals ``r_i = Y_i - g_mu(X_i)``.  Each slice of
        ``_members_per_call`` members (those whose piece values fit in
        ``_STACK_PIECE_VALUES``, at least one) takes one pass, and every
        member's rows are the bits of its one-member call.
        """
        step = self._members_per_call
        values, grads = [], []
        # a non-finite value gets a non-finite gradient, as silently
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, len(theta), step):
                v, R, weights = self._pass(theta[lo : lo + step], mu[lo : lo + step])
                values.append(v)
                grads.append(self._gradient(R, weights))
        return np.concatenate(values), np.concatenate(grads)


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
    _, G = _kernel(model, spec, data).evaluate(pack(model)[None], np.array([spec.mu]))
    return G[0]


def empirical_norm(model: PwaModel, data: Dataset) -> float:
    """Average squared residual of the unsmoothed model."""
    return least_squares(model, _UNSMOOTHED, data)
