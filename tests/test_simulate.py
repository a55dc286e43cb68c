import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pwafit.model import convex_model
from pwafit.objective import Dataset, empirical_norm
from pwafit.simulate import (
    Scenario,
    dataset_from_csv,
    dataset_to_csv,
    generate,
    preset,
    preset_names,
    random_plane_pair,
)

STICK = convex_model([[-0.6, 0.0], [0.9, 0.15]])


def test_noiseless_generation_is_exact():
    data = generate(Scenario(STICK, n=50, noise_sd=0.0, seed=1))
    assert empirical_norm(STICK, data) == 0.0


def test_generation_is_deterministic():
    a = generate(Scenario(STICK, n=100, noise_sd=0.1, seed=2))
    b = generate(Scenario(STICK, n=100, noise_sd=0.1, seed=2))
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.Y, b.Y)
    c = generate(Scenario(STICK, n=100, noise_sd=0.1, seed=3))
    assert not np.array_equal(a.Y, c.Y)


def test_points_stay_in_box():
    data = generate(Scenario(STICK, n=500, noise_sd=0.1, box=(-0.5, 0.25), seed=4))
    assert np.all(data.X >= -0.5) and np.all(data.X <= 0.25)
    assert np.all(np.isfinite(data.Y))


def test_noise_level_matches_sd():
    data = generate(Scenario(STICK, n=10_000, noise_sd=0.1, seed=5))
    msd = float(np.mean((data.Y - STICK.evaluate(data.X)) ** 2))
    assert 0.009 <= msd <= 0.011


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(STICK, n=0, noise_sd=0.1)
    with pytest.raises(ValueError):
        Scenario(STICK, n=10, noise_sd=-0.1)
    with pytest.raises(ValueError):
        Scenario(STICK, n=10, noise_sd=0.1, box=(1.0, -1.0))


def test_preset_catalog():
    names = preset_names()
    assert "broken-stick-200" in names and "planes-d3" in names
    s = preset("broken-stick-200", seed=7)
    assert s.n == 200 and s.noise_sd == 0.1 and s.model.d == 1 and s.model.k1 == 2
    s5 = preset("broken-stick-500", seed=7)
    assert s5.n == 500 and s5.model.k1 == 3 and s5.model.k2 == 2
    d3 = preset("planes-d3", seed=7)
    assert d3.model.d == 3 and d3.model.k1 == 2 and d3.n == 1000
    mu = preset("mu-study", seed=7)
    assert mu.model.d == 2 and mu.n == 1000
    with pytest.raises(ValueError):
        preset("no-such-preset")


def test_preset_models_fixed_under_seed():
    a = preset("planes-d2", seed=9)
    b = preset("planes-d2", seed=9)
    assert np.array_equal(a.model.part1.coeffs, b.model.part1.coeffs)


def test_plane_pair_constraints_hold():
    rng = np.random.default_rng(10)
    for d in (2, 3, 4):
        for _ in range(20):
            pair = random_plane_pair(d, rng)
            a1, a2 = pair.part1.slopes
            b1, b2 = pair.part1.intercepts
            assert float(a1 @ a2) <= -1.0
            assert abs(b2 - b1) <= float(np.sum(np.abs(a1 - a2)))


# -0.0, subnormals, huge and integral values, which a per-field
# repr(float(v)) spells in its own way
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300, 1.0, -3.0, 2.0**53, 1e16]


@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 8), st.integers(2, 4)),
        elements=st.one_of(
            st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
        ),
    )
)
@settings(max_examples=50, deadline=None)
def test_csv_roundtrip_is_exact(table):
    data = Dataset(table[:, :-1], table[:, -1])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        dataset_to_csv(data, path)
        back = dataset_from_csv(path)
        with open(path, "rb") as fh:
            raw = fh.read()
    assert back.X.tobytes() == data.X.tobytes()
    assert back.Y.tobytes() == data.Y.tobytes()
    # the bytes are a header and one repr(float(v)) per field, "\n"-ended
    header = ",".join([f"x{i + 1}" for i in range(data.d)] + ["y"])
    rows = [
        ",".join(repr(float(v)) for v in row) + f",{float(y)!r}\n"
        for row, y in zip(data.X, data.Y)
    ]
    assert raw == (header + "\n" + "".join(rows)).encode()


def test_csv_skips_blank_and_whitespace_only_lines(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("x1,y\n1.0,2.0\n\n   \n\t\n 3.0 , 4.0 \n")
    data = dataset_from_csv(path)
    assert data.X.tolist() == [[1.0], [3.0]]
    assert data.Y.tolist() == [2.0, 4.0]


def test_csv_errors_carry_line_numbers(tmp_path):
    bad_cols = tmp_path / "cols.csv"
    bad_cols.write_text("x1,y\n1.0,2.0\n1.0\n")
    with pytest.raises(ValueError, match=":3"):
        dataset_from_csv(bad_cols)
    bad_value = tmp_path / "value.csv"
    bad_value.write_text("x1,y\n1.0,huh\n")
    with pytest.raises(ValueError, match=":2"):
        dataset_from_csv(bad_value)
    bad_header = tmp_path / "header.csv"
    bad_header.write_text("a,b\n1.0,2.0\n")
    with pytest.raises(ValueError, match="header"):
        dataset_from_csv(bad_header)
    empty = tmp_path / "empty.csv"
    empty.write_text("x1,y\n")
    with pytest.raises(ValueError, match="no data"):
        dataset_from_csv(empty)
