import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pwafit.model import (
    MaxAffine,
    PwaModel,
    convex_model,
    model_from_json_dict,
    model_to_json_dict,
    pack,
    unpack,
    zero_part,
)


def coeff_arrays(k_max=4, d_max=3):
    return st.tuples(
        st.integers(1, k_max), st.integers(1, d_max), st.integers(0, 2**32 - 1)
    ).map(lambda t: np.random.default_rng(t[2]).uniform(-10, 10, (t[0], t[1] + 1)))


def random_model(seed, k1=2, k2=2, d=2, scale=10.0):
    rng = np.random.default_rng(seed)
    return PwaModel(
        MaxAffine(rng.uniform(-scale, scale, (k1, d + 1))),
        MaxAffine(rng.uniform(-scale, scale, (k2, d + 1))),
    )


def test_evaluate_single_piece_identity():
    m = convex_model([[1.0, 0.0]])
    assert m.evaluate(0.5) == 0.5


def test_evaluate_absolute_value():
    m = convex_model([[1.0, 0.0], [-1.0, 0.0]])
    assert m.evaluate(-2.0) == 2.0


def test_evaluate_difference_of_relu():
    # max{x,0} - max{2x,0} at x=1: pieces give 1 and 2, so -1
    m = PwaModel(
        MaxAffine([[1.0, 0.0], [0.0, 0.0]]),
        MaxAffine([[2.0, 0.0], [0.0, 0.0]]),
    )
    assert m.evaluate(1.0) == -1.0


def test_evaluate_dimension_mismatch():
    m = convex_model([[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        m.evaluate([1.0])


def test_dc_identity_pointwise():
    m = random_model(3)
    x = np.random.default_rng(4).uniform(-2, 2, (20, 2))
    assert np.array_equal(m.evaluate(x), m.part1.evaluate(x) - m.part2.evaluate(x))


def test_normalize_already_normalized_is_noop():
    m = PwaModel(MaxAffine([[1.0, 2.0]]), zero_part(1))
    assert m.normalize() is m


def test_normalize_shifts_first_row():
    m = PwaModel(MaxAffine([[1.0, 0.0]]), MaxAffine([[1.0, 1.0]]))
    norm = m.normalize()
    assert np.array_equal(norm.part1.coeffs, [[0.0, -1.0]])
    assert np.array_equal(norm.part2.coeffs, [[0.0, 0.0]])
    for x in np.linspace(-3, 3, 11):
        assert m.evaluate(x) == pytest.approx(-1.0)
        assert norm.evaluate(x) == pytest.approx(-1.0)


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_normalize_preserves_evaluate(k1, k2, d, seed):
    m = random_model(seed, k1, k2, d)
    norm = m.normalize()
    X = np.random.default_rng(seed + 1).uniform(-3, 3, (100, d))
    assert np.max(np.abs(m.evaluate(X) - norm.evaluate(X))) <= 1e-12 * 100


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_normalize_idempotent(seed):
    m = random_model(seed).normalize()
    again = m.normalize()
    assert np.array_equal(m.part1.coeffs, again.part1.coeffs)
    assert np.array_equal(m.part2.coeffs, again.part2.coeffs)


@given(coeff_arrays())
@settings(max_examples=40, deadline=None)
def test_max_affine_midpoint_convexity(coeffs):
    f = MaxAffine(coeffs)
    rng = np.random.default_rng(0)
    x = rng.uniform(-2, 2, (20, f.d))
    y = rng.uniform(-2, 2, (20, f.d))
    mid = f.evaluate((x + y) / 2)
    assert np.all(mid <= (f.evaluate(x) + f.evaluate(y)) / 2 + 1e-12)


def test_pack_unpack_example():
    m = unpack(np.array([1.0, 0.0, 0.0, 0.0]), 1, 1, 1)
    assert np.array_equal(m.part1.coeffs, [[1.0, 0.0]])
    assert np.array_equal(m.part2.coeffs, [[0.0, 0.0]])


@st.composite
def layouts_and_vectors(draw):
    k1, k2, d = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return k1, k2, d, draw(hnp.arrays(np.float64, (k1 + k2) * (d + 1), elements=finite))


@given(layouts_and_vectors())
@settings(max_examples=50, deadline=None)
def test_pack_unpack_roundtrip(case):
    k1, k2, d, v = case
    m = unpack(v, k1, k2, d)
    assert (m.k1, m.k2, m.d) == (k1, k2, d)
    assert pack(m).tobytes() == v.tobytes()
    back = unpack(pack(m), k1, k2, d)
    assert back.part1.coeffs.tobytes() == m.part1.coeffs.tobytes()
    assert back.part2.coeffs.tobytes() == m.part2.coeffs.tobytes()


def test_unpack_wrong_length():
    with pytest.raises(ValueError):
        unpack(np.zeros(11), 2, 2, 2)


def test_invalid_coefficients_rejected():
    with pytest.raises(ValueError):
        MaxAffine([[np.inf, 0.0]])
    with pytest.raises(ValueError):
        MaxAffine(np.zeros((0, 2)))


def test_json_roundtrip():
    m = random_model(9, k1=3, k2=2, d=2)
    payload = json.dumps(model_to_json_dict(m))
    back = model_from_json_dict(json.loads(payload))
    assert np.array_equal(back.part1.coeffs, m.part1.coeffs)
    assert np.array_equal(back.part2.coeffs, m.part2.coeffs)
    assert list(json.loads(payload)) == ["d", "k1", "k2", "coeffs1", "coeffs2"]


@pytest.mark.parametrize("key,value", [("d", True), ("k1", 2.0), ("k2", True), ("k2", "1")])
def test_json_shape_entries_must_be_integers(key, value):
    # each value equals the model's own entry (True == 1, 2.0 == 2) but is
    # not a JSON integer
    obj = model_to_json_dict(convex_model([[1.0, 0.0], [-1.0, 0.0]]))
    obj[key] = value
    with pytest.raises(ValueError, match=f"model entry {key} must be an integer"):
        model_from_json_dict(obj)


def test_immutability():
    m = convex_model([[1.0, 0.0]])
    with pytest.raises(ValueError):
        m.part1.coeffs[0, 0] = 2.0
