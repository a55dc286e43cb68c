"""Smooth approximation of max-affine functions.

Two regularizers on the unit simplex are supported: the entropy prox,
which gives the scaled log-sum-exp smooth max, and the squared-error
prox, which reduces to a Euclidean projection onto the simplex.  Both
satisfy the sandwich bound ``f - mu * rho_max <= f_mu <= f`` with
``rho_max = log k`` (entropy) and ``rho_max = 1 - 1/k`` (squared error).
"""
from __future__ import annotations

import enum
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
    """Prox choice plus smoothing parameter ``mu > 0``."""

    prox: Prox
    mu: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "prox", Prox(self.prox))
        mu = float(self.mu)
        if not np.isfinite(mu) or mu <= 0.0:
            raise ValueError("mu must be positive and finite")
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

    The work runs on the piece-major view of ``c`` (its last two axes
    swapped), one row per coordinate, so every reduction runs over k long
    rows.  A caller holding the values as a contiguous ``(..., k, n)`` array
    ``Ct`` passes its swapped view, which costs no copy; the result is then
    the swapped view of a ``(..., k, n)`` array.
    """
    c = np.asarray(c, dtype=float)
    if not np.all(np.isfinite(c)):
        raise ValueError("input must be finite")
    single = c.ndim == 1
    V = (c[None, :] if single else c).swapaxes(-1, -2)
    k = V.shape[-2]
    if k == 2:
        # the sort of two rows; the cumulative sums add in the same order
        hi = np.maximum(V[..., 0, :], V[..., 1, :])
        lo = np.minimum(V[..., 0, :], V[..., 1, :])
        lam = np.maximum(hi - 1.0, (hi + lo - 1.0) / 2.0)
    else:
        U = np.sort(V, axis=-2)[..., ::-1, :]
        steps = np.arange(1, k + 1)[:, None]
        lam = np.maximum.reduce((np.cumsum(U, axis=-2) - 1.0) / steps, axis=-2)
    w = np.maximum(V - lam[..., None, :], 0.0).swapaxes(-1, -2)
    return w[0] if single else w


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


def smooth_max(Z: np.ndarray, prox: Prox, mu: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smoothed row maxima of the piece values ``Z`` (n x k) and the
    maximizing simplex weights (softmax for entropy, projection for sqerr).

    ``Z`` may carry leading stack axes, ``(..., n, k)``, one member per
    leading index; ``mu`` is then a scalar or an array of the leading shape,
    one smoothing level per member.  An ``(n, k)`` call is the one-member
    case and gives the same bits as that member of a stack.

    A scalar ``mu = 0`` is the unsmoothed limit for either prox: the exact
    row maxima and one-hot weights on the maximizing piece, ties going to
    the lowest index as in ``argmax``.  Per-member levels must be positive.

    The work runs on the piece-major view of ``Z`` (its last two axes
    swapped), so each reduction over pieces combines k long rows.  A caller
    holding the values as a contiguous ``(..., k, n)`` array ``Zt`` passes
    its swapped view, which costs no copy; ``W`` is then the swapped view of
    a ``(..., k, n)`` array.
    """
    Zt = Z.swapaxes(-1, -2)
    k = Zt.shape[-2]
    if np.ndim(mu) == 0 and mu == 0.0:
        vals, idx = _first_max(Zt)
        Wt = (np.arange(k)[:, None] == idx[..., None, :]).astype(float)
        return vals, Wt.swapaxes(-1, -2)
    mu = np.asarray(mu, dtype=float)[..., None]  # against (..., n)
    if prox == Prox.ENTROPY:
        # subtract the max before exponentiating; mandatory for small mu
        zmax = np.maximum.reduce(Zt, axis=-2)
        E = np.exp((Zt - zmax[..., None, :]) / mu[..., None])
        S = np.add.reduce(E, axis=-2)
        vals = zmax + mu * (np.log(S) - np.log(k))
        return vals, (E / S[..., None, :]).swapaxes(-1, -2)
    Wt = project_simplex((Zt / mu[..., None] - 1.0 / k).swapaxes(-1, -2)).swapaxes(-1, -2)
    rho = 0.5 * np.add.reduce((Wt - 1.0 / k) ** 2, axis=-2)
    vals = np.add.reduce(Wt * Zt, axis=-2) - mu * rho
    return vals, Wt.swapaxes(-1, -2)
