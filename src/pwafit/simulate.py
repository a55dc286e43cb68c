"""Synthetic data generation and named scenario presets.

Predictors are drawn uniformly from a box (default ``[-1, 1]^d``) and
responses are the model values plus iid Gaussian noise.  Generation is
deterministic under the scenario seed.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import MaxAffine, PwaModel, convex_model
from .objective import Dataset

__all__ = [
    "Scenario",
    "generate",
    "preset",
    "preset_names",
    "random_plane_pair",
    "dataset_to_csv",
    "dataset_from_csv",
]


@dataclass(frozen=True)
class Scenario:
    model: PwaModel
    n: int
    noise_sd: float
    box: tuple[float, float] = (-1.0, 1.0)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be >= 0")
        if self.box[0] >= self.box[1]:
            raise ValueError("box must be a nonempty interval")


def generate(scenario: Scenario) -> Dataset:
    """Sample X uniformly from the box and Y from the model plus noise."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(scenario.seed), 0xDA7A)))
    lo, hi = scenario.box
    X = rng.uniform(lo, hi, size=(scenario.n, scenario.model.d))
    Y = scenario.model.evaluate(X) + scenario.noise_sd * rng.standard_normal(scenario.n)
    return Dataset(X, Y)


def random_plane_pair(d: int, rng: np.random.Generator) -> PwaModel:
    """Two random intersecting hyperplanes forming a convex max model.

    Rejection-samples until the dihedral angle between the planes is at
    least 90 degrees (graph normals ``(a_i, -1)`` with nonpositive inner
    product, i.e. ``a_1 . a_2 <= -1``) and the intersection meets the
    ``[-1, 1]^d`` cube.
    """
    for _ in range(10_000):
        a1 = rng.uniform(-1.5, 1.5, d)
        a2 = rng.uniform(-1.5, 1.5, d)
        b1, b2 = rng.uniform(-0.5, 0.5, 2)
        if float(a1 @ a2) > -1.0:
            continue
        # intersection {x: (a1-a2).x = b2-b1} meets the cube iff the offset
        # is within the range of the linear form over the cube
        if abs(b2 - b1) > float(np.sum(np.abs(a1 - a2))):
            continue
        return convex_model(np.array([[*a1, b1], [*a2, b2]]))
    raise RuntimeError("plane-pair rejection sampling did not terminate")


# Fixed coefficients for the one-dimensional presets.  The broken stick has
# its kink at x = -0.1; the five-line model is a three-minus-two-line PWA
# with all kinks inside [-1, 1].
_BROKEN_STICK = convex_model(np.array([[-0.6, 0.0], [0.9, 0.15]]))
_FIVE_LINE = PwaModel(
    MaxAffine(np.array([[-1.0, -0.2], [0.2, 0.1], [1.2, -0.3]])),
    MaxAffine(np.array([[0.0, 0.0], [0.6, -0.1]])),
)
# Fixed plane pair for the smoothing-parameter study (d=2); satisfies the
# angle and intersection constraints of random_plane_pair.
_MU_STUDY_PLANES = convex_model(np.array([[1.0, 0.5, 0.1], [-1.0, -0.6, -0.05]]))


def _planes_scenario(d: int, seed: int) -> Scenario:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), 0x9A9E)))
    return Scenario(model=random_plane_pair(d, rng), n=10**d, noise_sd=0.1, seed=seed)


_PRESETS = {
    "broken-stick-200": lambda seed: Scenario(_BROKEN_STICK, n=200, noise_sd=0.1, seed=seed),
    "broken-stick-500": lambda seed: Scenario(_FIVE_LINE, n=500, noise_sd=0.1, seed=seed),
    "planes-d2": lambda seed: _planes_scenario(2, seed),
    "planes-d3": lambda seed: _planes_scenario(3, seed),
    "planes-d4": lambda seed: _planes_scenario(4, seed),
    "mu-study": lambda seed: Scenario(_MU_STUDY_PLANES, n=1000, noise_sd=0.1, seed=seed),
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def preset(name: str, seed: int = 0) -> Scenario:
    """Configured scenario for a named simulation study."""
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; known: {', '.join(preset_names())}") from None
    return factory(seed)


def dataset_to_csv(data: Dataset, path) -> None:
    """Write ``x1,...,xd,y`` rows with shortest round-trip decimals."""
    rows = np.column_stack([data.X, data.Y]).tolist()
    with open(path, "w", newline="\n") as fh:
        header = ",".join([f"x{i + 1}" for i in range(data.d)] + ["y"])
        fh.write(header + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def dataset_from_csv(path) -> Dataset:
    """Read a CSV written by :func:`dataset_to_csv`: a header ``x1,...,xd,y``
    and one numeric row per point.  Blank lines are skipped.  Fields are
    parsed by numpy's text reader, which takes the decimal spellings that
    ``float()`` takes except underscores and non-ASCII digits.  Bytes that
    are not text in the locale's encoding read as U+FFFD, so they make a bad
    row.  Every error message starts with ``path:``; a bad row is named by
    its line number."""
    with open(path, errors="replace") as fh:
        header = fh.readline().strip().split(",")
        if header[-1] != "y" or len(header) < 2:
            raise ValueError(f"{path}: expected header x1,...,xd,y")
        d = len(header) - 1
        try:
            arr = _read_rows(line for line in fh if line.strip())
        except ValueError as exc:
            # name the row; numpy's message counts rows its own way
            raise ValueError(_bad_row(path, d) or f"{path}: {exc}") from None
    if arr.size == 0:
        raise ValueError(f"{path}: no data rows")
    if arr.shape[1] != d + 1:
        raise ValueError(_bad_row(path, d))
    try:
        return Dataset(arr[:, :d], arr[:, d])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_rows(lines) -> np.ndarray:
    """Comma-separated numeric ``lines`` as an (n, columns) array, without a
    Python call per field; no lines give an empty array."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)


def _bad_row(path, d: int) -> str | None:
    """The message naming the first data row of the CSV at ``path`` that is
    ragged or that :func:`_read_rows` rejects, if any."""
    with open(path, errors="replace") as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            columns = line.count(",") + 1
            if columns != d + 1:
                return f"{path}:{lineno}: expected {d + 1} columns, got {columns}"
            try:
                _read_rows([line])
            except ValueError:
                return f"{path}:{lineno}: non-numeric value"
    return None
