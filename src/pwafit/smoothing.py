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

    The work runs on the piece-major view of ``c`` (its last two axes
    swapped), one row per coordinate, so every reduction runs over k long
    rows.  A caller holding the values as a contiguous ``(..., k, n)`` array
    ``Ct`` passes its swapped view, which costs no copy; the result is then
    the swapped view of a ``(..., k, n)`` array.
    """
    c = np.asarray(c, dtype=float)
    if not np.isfinite(c).all():
        raise ValueError("input must be finite")
    return _sort_threshold(c)


def _sort_threshold(c: np.ndarray) -> np.ndarray:
    """:func:`project_simplex` unchecked: a non-finite row may give NaN."""
    single = c.ndim == 1
    V = (c[None, :] if single else c).swapaxes(-1, -2)
    k = V.shape[-2]
    # each chain below runs in place on this function's own fresh arrays,
    # with the operations and their order of the sort-and-threshold formula
    if k == 2:
        # the sort of two rows; the cumulative sums add in the same order
        hi = np.maximum(V[..., 0, :], V[..., 1, :])
        lo = np.minimum(V[..., 0, :], V[..., 1, :])
        # lam = max(hi - 1, ((hi + lo) - 1) / 2)
        np.add(hi, lo, out=lo)
        lo -= 1.0
        lo /= 2.0
        hi -= 1.0
        lam = np.maximum(hi, lo, out=hi)
    else:
        U = np.sort(V, axis=-2)[..., ::-1, :]
        U = np.cumsum(U, axis=-2)
        U -= 1.0
        U /= np.arange(1, k + 1)[:, None]
        lam = np.maximum.reduce(U, axis=-2)
    w = V - lam[..., None, :]
    np.maximum(w, 0.0, out=w)
    w = w.swapaxes(-1, -2)
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
    the lowest index as in ``argmax``.  Per-member levels must be positive;
    a level that is negative, zero per member, NaN or infinite raises
    ``ValueError``.  With sqerr, a point whose ``Z / mu`` overflows may get
    non-finite weights and value; it raises no error.

    The work runs on the piece-major view of ``Z`` (its last two axes
    swapped), so each reduction over pieces combines k long rows.  A caller
    holding the values as a contiguous ``(..., k, n)`` array ``Zt`` passes
    its swapped view, which costs no copy; ``W`` is then the swapped view of
    a ``(..., k, n)`` array.
    """
    scalar = np.ndim(mu) == 0
    if scalar:
        valid = 0.0 <= mu < math.inf
    else:
        # a Python pass over the few levels costs less than two reductions
        mu = np.asarray(mu, dtype=float)
        valid = all(0.0 < m < math.inf for m in mu.ravel().tolist())
    if not valid:
        raise ValueError("mu must be finite and >= 0 (scalar) / > 0 (per member)")
    Zt = Z.swapaxes(-1, -2)
    k = Zt.shape[-2]
    if scalar and mu == 0.0:
        vals, idx = _first_max(Zt)
        Wt = (np.arange(k)[:, None] == idx[..., None, :]).astype(float)
        return vals, Wt.swapaxes(-1, -2)
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
        return vals, E.swapaxes(-1, -2)
    C = Zt / mu[..., None]
    C -= 1.0 / k
    try:
        Wt = project_simplex(C.swapaxes(-1, -2)).swapaxes(-1, -2)
    except ValueError:
        # Z / mu overflowed: project unchecked, so only the points it hit
        # lose their bits (project_simplex stays the call perfbench times)
        Wt = _sort_threshold(C.swapaxes(-1, -2)).swapaxes(-1, -2)
    # rho = (0.5 * sum_j (w_j - 1/k)^2) * mu, then vals = sum_j w_j z_j - rho
    D = Wt - 1.0 / k
    np.square(D, out=D)
    rho = np.add.reduce(D, axis=-2)
    rho *= 0.5
    rho *= mu
    vals = np.add.reduce(np.multiply(Wt, Zt, out=D), axis=-2)
    vals -= rho
    return vals, Wt.swapaxes(-1, -2)
