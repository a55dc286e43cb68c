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

    Accepts a single vector or a batch of row vectors.  With each row
    sorted in decreasing order ``u``, the threshold is the largest of
    ``(u_1 + ... + u_j - 1) / j`` over ``j`` (Duchi et al., ICML 2008;
    Condat, Math. Program. 2016).

    The work runs on the piece-major view ``c.T``, one row per coordinate,
    so every reduction runs over k long rows.  A caller holding the values
    as a contiguous ``(k, n)`` array ``Ct`` passes ``Ct.T``, which costs no
    copy; the result is then the ``.T`` view of a ``(k, n)`` array.
    """
    c = np.asarray(c, dtype=float)
    if not np.all(np.isfinite(c)):
        raise ValueError("input must be finite")
    single = c.ndim == 1
    V = (c[None, :] if single else c).T
    k = V.shape[0]
    if k == 2:
        # the sort of two rows; the cumulative sums add in the same order
        hi, lo = np.maximum(V[0], V[1]), np.minimum(V[0], V[1])
        lam = np.maximum(hi - 1.0, (hi + lo - 1.0) / 2.0)
    else:
        U = np.sort(V, axis=0)[::-1]
        lam = np.maximum.reduce((np.cumsum(U, axis=0) - 1.0) / np.arange(1, k + 1)[:, None], axis=0)
    w = np.maximum(V - lam, 0.0).T
    return w[0] if single else w


def smooth_max(Z: np.ndarray, prox: Prox, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Smoothed row maxima of the piece values ``Z`` (n x k) and the
    maximizing simplex weights (softmax for entropy, projection for sqerr).

    ``mu = 0`` is the unsmoothed limit for either prox: the exact row
    maxima and one-hot weights on the maximizing piece, ties going to the
    lowest index as in ``argmax``.

    For ``mu > 0`` the work runs on the piece-major view ``Z.T``, so each
    reduction over pieces combines k long rows.  A caller holding the
    values as a contiguous ``(k, n)`` array ``Zt`` passes ``Zt.T``, which
    costs no copy; ``W`` is then the ``.T`` view of a ``(k, n)`` array.
    """
    k = Z.shape[1]
    if mu == 0.0:
        rows, idx = np.arange(Z.shape[0]), Z.argmax(axis=1)
        return Z[rows, idx], np.eye(k)[idx]
    Zt = Z.T
    if prox == Prox.ENTROPY:
        # subtract the max before exponentiating; mandatory for small mu
        zmax = np.maximum.reduce(Zt, axis=0)
        E = np.exp((Zt - zmax) / mu)
        S = np.add.reduce(E, axis=0)
        vals = zmax + mu * (np.log(S) - np.log(k))
        return vals, (E / S).T
    Wt = project_simplex((Zt / mu - 1.0 / k).T).T
    rho = 0.5 * np.add.reduce((Wt - 1.0 / k) ** 2, axis=0)
    vals = np.add.reduce(Wt * Zt, axis=0) - mu * rho
    return vals, Wt.T
