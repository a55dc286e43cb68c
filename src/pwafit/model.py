"""Continuous piecewise-affine functions in difference-of-max-affine form.

A convex piecewise-affine function is stored as the maximum of ``k`` affine
pieces, i.e. a ``k x (d+1)`` coefficient matrix whose row ``j`` is
``(a_j, b_j)``.  A general continuous piecewise-affine function is the
difference of two such max-affine parts.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MaxAffine",
    "PwaModel",
    "pack",
    "unpack",
    "convex_model",
    "zero_part",
    "model_to_json_dict",
    "model_from_json_dict",
    "param_distance",
]


@dataclass(frozen=True)
class MaxAffine:
    """Convex PWA function ``x -> max_j (a_j . x + b_j)``.

    ``coeffs`` is a ``k x (d+1)`` matrix; the last column holds the
    intercepts ``b_j``.  Instances are immutable.
    """

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.coeffs, dtype=float)
        if c.ndim != 2 or c.shape[0] < 1 or c.shape[1] < 2:
            raise ValueError("coeffs must be a k x (d+1) matrix with k >= 1, d >= 1")
        if not np.all(np.isfinite(c)):
            raise ValueError("all coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def k(self) -> int:
        return self.coeffs.shape[0]

    @property
    def d(self) -> int:
        return self.coeffs.shape[1] - 1

    @property
    def slopes(self) -> np.ndarray:
        return self.coeffs[:, :-1]

    @property
    def intercepts(self) -> np.ndarray:
        return self.coeffs[:, -1]

    def piece_values(self, X: np.ndarray) -> np.ndarray:
        """Values of all affine pieces at a batch of points, shape ``(n, k)``."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.d:
            raise ValueError(f"expected points of dimension {self.d}, got {X.shape[1]}")
        if not np.all(np.isfinite(X)):
            raise ValueError("points must be finite")
        return X @ self.slopes.T + self.intercepts

    def evaluate(self, x) -> float | np.ndarray:
        """Evaluate the max of the affine pieces at a point or a batch."""
        x = np.asarray(x, dtype=float)
        if x.ndim <= 1:
            pt = np.atleast_1d(x)
            if pt.shape[0] != self.d:
                raise ValueError(f"expected point of dimension {self.d}, got {pt.shape[0]}")
            return float(self.piece_values(pt[None, :]).max())
        return self.piece_values(x).max(axis=1)


@dataclass(frozen=True)
class PwaModel:
    """Difference of two max-affine parts: ``evaluate = part1 - part2``."""

    part1: MaxAffine
    part2: MaxAffine

    def __post_init__(self) -> None:
        if self.part1.d != self.part2.d:
            raise ValueError("part1 and part2 must share the input dimension")

    @property
    def d(self) -> int:
        return self.part1.d

    @property
    def k1(self) -> int:
        return self.part1.k

    @property
    def k2(self) -> int:
        return self.part2.k

    @property
    def normalized(self) -> bool:
        """True when part2's first row is exactly zero."""
        return bool(np.all(self.part2.coeffs[0] == 0.0))

    def evaluate(self, x) -> float | np.ndarray:
        return self.part1.evaluate(x) - self.part2.evaluate(x)

    def normalize(self) -> "PwaModel":
        """Shift both parts by part2's first row so that it becomes zero.

        Pointwise values are unchanged because the shift cancels in the
        difference of the two maxima.
        """
        shift = self.part2.coeffs[0]
        if np.all(shift == 0.0):
            return self
        return PwaModel(
            MaxAffine(self.part1.coeffs - shift),
            MaxAffine(self.part2.coeffs - shift),
        )


def zero_part(d: int) -> MaxAffine:
    """Trivial max-affine part with a single all-zero row."""
    return MaxAffine(np.zeros((1, d + 1)))


def convex_model(coeffs) -> PwaModel:
    """Purely convex model: the given max-affine part minus the zero part."""
    part1 = MaxAffine(coeffs)
    return PwaModel(part1, zero_part(part1.d))


def pack(model: PwaModel) -> np.ndarray:
    """Flatten a model into the fixed parameter layout.

    Layout: part1 slopes row by row, part1 intercepts, then the same for
    part2.  ``pack`` and :func:`unpack` are exact inverses.
    """
    p1, p2 = model.part1, model.part2
    return np.concatenate(
        [p1.slopes.ravel(), p1.intercepts, p2.slopes.ravel(), p2.intercepts]
    )


def unpack(v, k1: int, k2: int, d: int) -> PwaModel:
    """Rebuild a model from a flat parameter vector (inverse of :func:`pack`)."""
    v = np.asarray(v, dtype=float)
    if k1 < 1 or k2 < 1 or d < 1:
        raise ValueError("k1, k2 and d must be >= 1")
    expected = (k1 + k2) * (d + 1)
    if v.ndim != 1 or v.size != expected:
        raise ValueError(f"expected a vector of length {expected}, got {v.size}")
    n1 = k1 * d
    a1 = v[:n1].reshape(k1, d)
    b1 = v[n1 : n1 + k1]
    rest = v[n1 + k1 :]
    a2 = rest[: k2 * d].reshape(k2, d)
    b2 = rest[k2 * d :]
    return PwaModel(
        MaxAffine(np.column_stack([a1, b1])),
        MaxAffine(np.column_stack([a2, b2])),
    )


def model_to_json_dict(model: PwaModel) -> dict:
    """JSON-ready dict with fixed field order."""
    return {
        "d": model.d,
        "k1": model.k1,
        "k2": model.k2,
        "coeffs1": [[float(v) for v in row] for row in model.part1.coeffs],
        "coeffs2": [[float(v) for v in row] for row in model.part2.coeffs],
    }


def model_from_json_dict(obj: dict) -> PwaModel:
    model = PwaModel(MaxAffine(np.array(obj["coeffs1"])), MaxAffine(np.array(obj["coeffs2"])))
    if model.d != obj["d"] or model.k1 != obj["k1"] or model.k2 != obj["k2"]:
        raise ValueError("inconsistent model dimensions in JSON payload")
    return model


def param_distance(model_a: PwaModel, model_b: PwaModel) -> float:
    """L2 distance between normalized parameter vectors, up to piece order.

    Rows within part1 (and the non-pinned rows of part2) can be permuted
    without changing the function, so the minimum over those permutations
    is taken.  Intended for small piece counts.
    """
    a = model_a.normalize()
    b = model_b.normalize()
    if (a.k1, a.k2, a.d) != (b.k1, b.k2, b.d):
        raise ValueError("models must have matching shapes")
    if math.factorial(a.k1) * math.factorial(max(a.k2 - 1, 1)) > 720:
        raise ValueError("too many pieces for permutation matching")
    vb = pack(b)
    best = np.inf
    rows2_tail = range(1, a.k2)
    for perm1 in itertools.permutations(range(a.k1)):
        c1 = a.part1.coeffs[list(perm1)]
        for perm2 in itertools.permutations(rows2_tail):
            c2 = a.part2.coeffs[[0, *perm2]] if a.k2 > 1 else a.part2.coeffs
            va = pack(PwaModel(MaxAffine(c1), MaxAffine(c2)))
            best = min(best, float(np.linalg.norm(va - vb)))
    return best
