"""Smooth approximation of max-affine functions.

Two regularizers on the unit simplex are supported: the entropy prox,
which gives the scaled log-sum-exp smooth max, and the squared-error
prox, which reduces to a Euclidean projection onto the simplex.  Both
satisfy the sandwich bound ``f - mu * rho_max <= f_mu <= f`` with
``rho_max = log k`` (entropy) and ``rho_max = 1 - 1/k`` (squared error).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Prox",
    "SmoothingSpec",
    "project_simplex",
    "smooth_max",
    "rho_max",
]


class Prox(str, enum.Enum):
    ENTROPY = "entropy"
    SQUARED_ERROR = "sqerr"


@dataclass(frozen=True)
class SmoothingSpec:
    """Prox choice plus smoothing parameter ``mu >= 0``.

    ``mu = 0`` is the unsmoothed criterion for either prox: the exact max,
    with one-hot weights on the maximizing piece (see :func:`smooth_max`).
    """

    prox: Prox
    mu: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "prox", Prox(self.prox))
        mu = float(self.mu)
        if not 0.0 <= mu < math.inf:
            raise ValueError("mu must be finite and >= 0")
        object.__setattr__(self, "mu", mu)


def rho_max(prox: Prox, k: int) -> float:
    """Supremum of the prox function over the k-simplex."""
    if Prox(prox) is Prox.ENTROPY:
        return float(np.log(k))
    return 1.0 - 1.0 / k


def project_simplex(c) -> np.ndarray:
    """Euclidean projection onto the unit simplex (sort and threshold).

    Accepts a single vector or a batch of row vectors, optionally with
    leading stack axes.  With each row sorted in decreasing order ``u``, the
    threshold is the largest of ``(u_1 + ... + u_j - 1) / j`` over ``j``
    (Duchi et al., ICML 2008; Condat, Math. Program. 2016).
    """
    c = np.asarray(c, dtype=float)
    if c.ndim and not c.shape[-1]:
        raise ValueError(f"c must hold at least one piece per row, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise ValueError("input must be finite")
    W = _sort_threshold(np.atleast_2d(c).swapaxes(-1, -2)).swapaxes(-1, -2)
    return W.reshape(c.shape)


def _sort_threshold(Ct: np.ndarray) -> np.ndarray:
    """:func:`project_simplex` of the piece-major ``Ct`` (..., k, n), one
    column per point, unchecked: a non-finite column may give NaN."""
    k = Ct.shape[-2]
    # this chain runs in place on this function's own fresh arrays, with the
    # operations and their order of the sort-and-threshold formula
    U = np.sort(Ct, axis=-2)[..., ::-1, :]
    U = np.cumsum(U, axis=-2)
    U -= 1.0
    U /= np.arange(1, k + 1)[:, None]
    lam = np.maximum.reduce(U, axis=-2)
    Wt = Ct - lam[..., None, :]
    np.maximum(Wt, 0.0, out=Wt)
    return Wt


def _first_max(Zt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maxima over the k piece-major rows of ``Zt`` (..., k, n) and the index
    of the first row attaining each.

    A running strict ``>`` over the rows, so for finite values both equal
    those of ``max``/``argmax`` over pieces, ties going to the lowest index.
    """
    vals = Zt[..., 0, :]
    idx = np.zeros(vals.shape, dtype=np.intp)
    if Zt.shape[-2] == 1:
        return vals.copy(), idx
    for j in range(1, Zt.shape[-2]):
        better = Zt[..., j, :] > vals
        vals = np.where(better, Zt[..., j, :], vals)
        idx = np.where(better, j, idx)
    return vals, idx


def smooth_max(Z, prox: Prox, mu: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smoothed row maxima of the piece values ``Z`` (n x k) and the
    maximizing simplex weights (softmax for entropy, projection for sqerr).

    ``Z`` may carry leading stack axes, ``(..., n, k)``, one member per
    leading index; ``mu`` is then a scalar or an array of the leading shape,
    one smoothing level per member.  An ``(n, k)`` call is the one-member
    case and gives the same bits as that member of a stack.

    A scalar ``mu = 0`` is the unsmoothed limit for either prox: the exact
    row maxima and one-hot weights on the maximizing piece, ties going to
    the lowest index as in ``argmax``.  Per-member levels must be positive;
    a level that is negative, zero per member, NaN or infinite raises
    ``ValueError``.  Sqerr with two pieces takes the projection's closed
    form, so no positive level is too small for it; with sqerr and
    ``k != 2``, a point whose ``Z / mu`` overflows may get non-finite
    weights and value; it raises no error.  A ``Z`` with fewer than two
    axes or no pieces, or a ``mu`` array not of its leading shape, raises
    ``ValueError``.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim < 2 or not Z.shape[-1]:
        raise ValueError(f"Z must have shape (..., n, k) with k >= 1, got shape {Z.shape}")
    if np.ndim(mu) and np.shape(mu) != Z.shape[:-2]:
        shape = np.shape(mu)
        raise ValueError(f"mu must be a scalar or of Z's leading shape {Z.shape[:-2]}, got {shape}")
    vals, Wt = _smooth_max(Z.swapaxes(-1, -2), prox, mu)
    return vals, Wt.swapaxes(-1, -2)


def _smooth_max(Zt: np.ndarray, prox: Prox, mu: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`smooth_max` of the piece-major ``Zt`` (..., k, n): the values
    (..., n) and the piece-major weights (..., k, n).  Every reduction over
    pieces combines k long rows."""
    scalar = np.ndim(mu) == 0
    if scalar:
        valid = 0.0 <= mu < math.inf
    else:
        # a Python pass over the few levels costs less than two reductions
        mu = np.asarray(mu, dtype=float)
        valid = all(0.0 < m < math.inf for m in mu.ravel().tolist())
    if not valid:
        raise ValueError("mu must be finite and >= 0 (scalar) / > 0 (per member)")
    k = Zt.shape[-2]
    if scalar and mu == 0.0:
        vals, idx = _first_max(Zt)
        return vals, (np.arange(k)[:, None] == idx[..., None, :]).astype(float)
    mu = np.asarray(mu, dtype=float)[..., None]  # against (..., n)
    # each chain below runs in place on this function's own fresh arrays,
    # with the operations and their order of the out-of-place formulas
    if prox == Prox.ENTROPY:
        # subtract the max before exponentiating; mandatory for small mu
        zmax = np.maximum.reduce(Zt, axis=-2)
        E = Zt - zmax[..., None, :]
        E /= mu[..., None]
        np.exp(E, out=E)
        S = np.add.reduce(E, axis=-2)
        # vals = zmax + mu * (log S - log k)
        vals = np.log(S)
        vals -= np.log(k)
        vals *= mu
        vals += zmax
        E /= S[..., None, :]
        return vals, E
    if k == 2:
        # the projection's closed form, w1 = (1 + clip(z1 - z2, -mu, mu) / mu) / 2
        # (no overflow) and w2 = 1 - w1; vals = w1 z1 + w2 z2 - mu (w1 - 1/2)^2
        z1, z2 = Zt[..., 0, :], Zt[..., 1, :]
        Wt = np.empty(Zt.shape)
        w1, w2 = Wt[..., 0, :], Wt[..., 1, :]
        np.subtract(z1, z2, out=w1)
        np.maximum(w1, -mu, out=w1)  # np.clip costs more per call at small n
        np.minimum(w1, mu, out=w1)
        w1 /= mu
        w1 += 1.0
        w1 *= 0.5
        np.subtract(1.0, w1, out=w2)
        vals = w1 * z1
        rho = w2 * z2
        vals += rho
        np.subtract(w1, 0.5, out=rho)
        np.square(rho, out=rho)
        rho *= mu
        vals -= rho
        return vals, Wt
    C = Zt / mu[..., None]
    C -= 1.0 / k
    Wt = _sort_threshold(C)
    # rho = (0.5 * sum_j (w_j - 1/k)^2) * mu, then vals = sum_j w_j z_j - rho
    D = Wt - 1.0 / k
    np.square(D, out=D)
    rho = np.add.reduce(D, axis=-2)
    rho *= 0.5
    rho *= mu
    vals = np.add.reduce(np.multiply(Wt, Zt, out=D), axis=-2)
    vals -= rho
    return vals, Wt
