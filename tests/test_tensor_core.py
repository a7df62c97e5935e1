from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from waring.errors import CapacityError, SymmetryError, ValidationError
from waring.tensor_core import (
    DenseTensor,
    SymmetricTensor,
    coefficient_vector,
    compress,
    contract_mode1,
    decompress,
    frobenius_distance,
    frobenius_norm,
    is_symmetric,
    mode1_unfolding,
    multilinear_transform,
    numerical_rank,
    outer_power,
    power_span_rank,
    symmetrize,
    tensor_from_json_obj,
    tensor_to_json_obj,
)

FIXTURES = Path(__file__).parent / "fixtures"


def rand_dense(rng, k, n):
    return DenseTensor(rng.normal(size=(n,) * k) + 1j * rng.normal(size=(n,) * k))


def test_dense_tensor_must_be_cubical():
    with pytest.raises(ValidationError):
        DenseTensor(np.zeros((2, 3)))


def test_dense_tensor_rejects_scalar():
    with pytest.raises(ValidationError):
        DenseTensor(np.array(1.0))


def test_symmetric_tensor_validates_keys():
    with pytest.raises(ValidationError):
        SymmetricTensor(2, 2, {(1, 2): 1.0})  # wrong degree
    with pytest.raises(ValidationError):
        SymmetricTensor(2, 2, {(1, 1, 0): 1.0})  # wrong length
    with pytest.raises(ValidationError):
        SymmetricTensor(2, 2, {(-1, 3): 1.0})


def test_symmetric_tensor_prunes_zeros():
    s = SymmetricTensor(2, 2, {(2, 0): 0.0, (1, 1): 2.0})
    assert (2, 0) not in s.coeffs
    assert s.coeffs[(1, 1)] == 2.0


def test_symmetrize_is_projection():
    rng = np.random.default_rng(11)
    for k, n in [(2, 2), (3, 2), (3, 3), (4, 2)]:
        a = rand_dense(rng, k, n)
        s = symmetrize(a)
        assert is_symmetric(s)
        again = symmetrize(s)
        assert np.allclose(s.array, again.array, rtol=0, atol=1e-14 * (1 + abs(a.array).max()))


def test_symmetrize_averages_permutations():
    rng = np.random.default_rng(12)
    a = rand_dense(rng, 3, 2)
    s = symmetrize(a)
    manual = np.zeros_like(a.array)
    for perm in itertools.permutations(range(3)):
        manual += np.transpose(a.array, perm)
    manual /= 6
    assert np.allclose(s.array, manual)


def test_is_symmetric_iff_fixed_by_symmetrizer():
    rng = np.random.default_rng(13)
    for _ in range(50):
        a = rand_dense(rng, 3, 3)
        s = symmetrize(a)
        fixed = np.allclose(a.array, s.array, rtol=0, atol=1e-12 * (1 + abs(a.array).max()))
        assert is_symmetric(a) == fixed
        assert is_symmetric(s)


def test_compress_rejects_asymmetric_with_location():
    a = DenseTensor(np.arange(8, dtype=float).reshape(2, 2, 2))
    with pytest.raises(SymmetryError) as info:
        compress(a)
    err = info.value
    assert err.index != err.canonical
    assert sorted(err.index) == list(err.canonical)


def test_compress_decompress_round_trip():
    rng = np.random.default_rng(14)
    for k, n in [(2, 3), (3, 2), (4, 3)]:
        s = compress(symmetrize(rand_dense(rng, k, n)))
        d = decompress(s)
        assert compress(d).coeffs == pytest.approx(s.coeffs)
        assert is_symmetric(d)


def test_decompress_entry_placement():
    s = SymmetricTensor(3, 2, {(2, 1): 5.0})
    d = decompress(s).array
    for idx in np.ndindex(2, 2, 2):
        expected = 5.0 if sorted(idx) == [0, 0, 1] else 0.0
        assert d[idx] == expected


def test_decompress_capacity_cap():
    s = SymmetricTensor(12, 5, {(12, 0, 0, 0, 0): 1.0})
    with pytest.raises(CapacityError):
        decompress(s, max_entries=10**6)


def test_outer_power_matches_dense():
    v = (1.0 + 0.5j, -2.0, 0.25j)
    s = outer_power(v, 3)
    arr = np.array(v)
    dense = np.einsum("i,j,k->ijk", arr, arr, arr)
    assert np.allclose(decompress(s).array, dense)


def test_contract_mode1_reduces_order():
    rng = np.random.default_rng(15)
    a = rand_dense(rng, 3, 3)
    b = rand_dense(rng, 1, 3)
    c = contract_mode1(a, b)
    assert c.array.shape == (3, 3)
    manual = np.tensordot(a.array, b.array, axes=([0], [0]))
    assert np.allclose(c.array, manual)


def test_contract_mode1_to_scalar():
    a = DenseTensor(np.array([2.0, 3.0]))
    b = DenseTensor(np.array([5.0, 7.0]))
    assert contract_mode1(a, b) == pytest.approx(31.0)


def test_multilinear_transform_shapes_and_values():
    rng = np.random.default_rng(16)
    a = rand_dense(rng, 3, 2)
    ms = [rng.normal(size=(3, 2)) for _ in range(3)]
    out = multilinear_transform(a, ms)
    assert out.array.shape == (3, 3, 3)
    manual = np.einsum("abc,ia,jb,kc->ijk", a.array, ms[0], ms[1], ms[2])
    assert np.allclose(out.array, manual)


def test_multilinear_transform_validates_maps():
    a = DenseTensor(np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        multilinear_transform(a, [np.zeros((3, 2))])  # one map per mode
    with pytest.raises(ValidationError):
        multilinear_transform(a, [np.zeros((3, 2)), np.zeros((3, 3))])
    with pytest.raises(ValidationError):
        multilinear_transform(a, [np.zeros((3, 2)), np.zeros((4, 2))])  # mixed row counts


def test_multilinear_transform_preserves_symmetry():
    rng = np.random.default_rng(17)
    s = symmetrize(rand_dense(rng, 3, 3))
    m = rng.normal(size=(3, 3))
    assert is_symmetric(multilinear_transform(s, [m, m, m]))


def test_numerical_rank():
    m = np.array([[1.0, 0.0], [0.0, 1e-14]])
    assert numerical_rank(m) == 1
    assert numerical_rank(np.eye(3)) == 3
    assert numerical_rank(np.zeros((2, 2))) == 0


def test_power_span_rank_counts_independent_powers():
    vs = [(1.0, 1.0), (1.0, -1.0), (1.0, 0.0)]
    assert power_span_rank(vs, 3) == 3
    assert power_span_rank(vs, 1) == 2  # linear span in dimension 2
    assert power_span_rank([(1.0, 2.0), (2.0, 4.0)], 3) == 1  # parallel vectors


def test_mode1_unfolding_shape():
    rng = np.random.default_rng(18)
    a = rand_dense(rng, 3, 2)
    u = mode1_unfolding(a)
    assert u.shape == (2, 4)
    assert np.allclose(u, a.array.reshape(2, 4))


def test_coefficient_vector_norm_consistency():
    rng = np.random.default_rng(19)
    s = compress(symmetrize(rand_dense(rng, 3, 3)))
    v = coefficient_vector(s)
    assert np.isclose(np.linalg.norm(v), frobenius_norm(s))
    dense_norm = np.linalg.norm(decompress(s).array)
    assert np.isclose(frobenius_norm(s), dense_norm)


def test_frobenius_distance_zero_iff_equal():
    s = SymmetricTensor(2, 2, {(2, 0): 1.0, (1, 1): 2.0})
    t = SymmetricTensor(2, 2, {(2, 0): 1.0, (1, 1): 2.0})
    assert frobenius_distance(s, t) == 0.0
    u = SymmetricTensor(2, 2, {(2, 0): 1.0})
    assert frobenius_distance(s, u) > 0


def test_json_round_trip_dense():
    rng = np.random.default_rng(20)
    a = rand_dense(rng, 3, 2)
    obj = tensor_to_json_obj(a)
    assert obj["format"] == "dense"
    back = tensor_from_json_obj(json.loads(json.dumps(obj)))
    assert isinstance(back, DenseTensor)
    assert np.allclose(back.array, a.array)


def test_json_round_trip_sym():
    s = SymmetricTensor(3, 2, {(3, 0): -1.0, (1, 2): 1.0 + 2.0j})
    obj = tensor_to_json_obj(s)
    assert obj["format"] == "sym"
    back = tensor_from_json_obj(json.loads(json.dumps(obj)))
    assert isinstance(back, SymmetricTensor)
    assert back.coeffs == s.coeffs


def test_json_sym_empty_needs_order_and_dim():
    back = tensor_from_json_obj({"format": "sym", "order": 2, "dim": 3, "coeffs": []})
    assert back.coeffs == {}
    with pytest.raises(ValidationError):
        tensor_from_json_obj({"format": "sym", "coeffs": []})


def test_json_errors_name_fields():
    with pytest.raises(ValidationError, match="format"):
        tensor_from_json_obj({"format": "sparse"})
    with pytest.raises(ValidationError, match="entries"):
        tensor_from_json_obj({"format": "dense", "order": 2, "dim": 2, "entries": [[0.0, 0.0]]})
    with pytest.raises(ValidationError, match="value"):
        tensor_from_json_obj(
            {"format": "sym", "order": 2, "dim": 2,
             "coeffs": [{"exponent": [1, 1], "value": [0.0, 0.0, 0.0]}]}
        )


def test_json_rejects_non_finite_pairs():
    for bad in ([float("nan"), 0.0], [0.0, float("-inf")], [10**400, 0]):
        with pytest.raises(ValidationError, match="entries"):
            tensor_from_json_obj({"format": "dense", "order": 1, "dim": 1, "entries": [bad]})
        with pytest.raises(ValidationError, match="value"):
            tensor_from_json_obj({"format": "sym", "coeffs": [{"exponent": [1], "value": bad}]})


def test_fixture_files_parse():
    for name in ("a31_tensor.json", "cubic_3xyy_minus_xxx.json", "dense_asym222.json"):
        obj = json.loads((FIXTURES / name).read_text())
        tensor_from_json_obj(obj)
