from __future__ import annotations

import cmath
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waring.combinatorics import enumerate_exponents, multinomial
from waring.errors import ArithmeticOverflowError, CapacityError, SymmetryError, ValidationError
from waring.tensor_core import (
    _DENSE_ORDER_CAP,
    DEFAULT_SYMMETRY_TOL,
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


def test_symmetrize_averages_a_class_whose_sum_overflows():
    # 3 * 1.5e308 overflows, but a mean of finite entries is finite
    s = symmetrize(DenseTensor(np.full((2, 2, 2), 1.5e308)))
    assert compress(s).coeffs == {p: 1.5e308 for p in enumerate_exponents(3, 2)}
    raw = np.random.default_rng(15).normal(size=(2, 2, 2))
    raw[0, 0, 1] = raw[0, 1, 0] = 1.5e308
    got = symmetrize(DenseTensor(raw)).array
    with np.errstate(all="ignore"):
        want = ref_symmetrize(raw.astype(np.complex128))
    members = [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    for idx in np.ndindex(2, 2, 2):  # only the class that overflowed is summed again
        if idx in members:
            assert got[idx] == got[members[0]] and abs(got[idx] - 1e308) <= 1e-15 * 1e308
        else:
            assert got[idx].tobytes() == want[idx].tobytes()


def test_an_asymmetry_past_the_float_range_is_refused_without_a_warning():
    # -1.5e308 - 1.5e308 overflows: the deviation reads inf; with 1.5e308j added, every entry's modulus does too
    for entry, rest, message in [
        (1.5e308, 0.0, r"= inf exceeds"),
        (1.5e308 + 1.5e308j, 1.5e308 + 1.5e308j, r"= 3\.732e\+00 \* 2\^1023 exceeds .* \* 2\^1023$"),
    ]:
        a = np.full((2, 2, 2), rest)
        a[0, 0, 1] = a[1, 0, 0] = entry
        a[0, 1, 0] = -1.5e308
        assert not is_symmetric(DenseTensor(a))
        with pytest.raises(SymmetryError, match=message) as info:
            compress(DenseTensor(a))
        assert (info.value.index, info.value.canonical) == ((0, 1, 0), (0, 0, 1))
        a[0, 1, 0] = entry  # symmetric again
        assert is_symmetric(DenseTensor(a)) and compress(DenseTensor(a)).coeffs.get((2, 1)) == entry


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
    # a transposed or Fortran-ordered matrix is copied to C order before its exponent is read
    assert numerical_rank(np.arange(6.0).reshape(2, 3).T) == 2
    assert numerical_rank(np.ones((2, 3)).T) == 1
    assert numerical_rank(np.asfortranarray(np.eye(3, dtype=complex))) == 3


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


def test_frobenius_distance_rejects_mismatched_shapes():
    with pytest.raises(ValidationError, match="shape mismatch"):
        frobenius_distance(SymmetricTensor(2, 2, {}), SymmetricTensor(2, 3, {}))


def test_json_rejects_an_object_that_is_not_a_tensor():
    with pytest.raises(ValidationError, match="cannot serialize object"):
        tensor_to_json_obj(object())


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


def test_a_numpy_integer_order_or_dim_is_stored_as_an_int():
    coeffs = {(3, 0): 1.0, (1, 2): 2.0 - 1j}
    for order, dim in ((np.int64(3), 2), (3, np.int32(2)), (np.uint8(3), np.int64(2))):
        s = SymmetricTensor(order, dim, coeffs)
        assert (type(s.order), type(s.dim)) == (int, int) and repr(s) == "SymmetricTensor(order=3, dim=2, classes=2)"
        assert frobenius_norm(s) == frobenius_norm(SymmetricTensor(3, 2, coeffs))
        assert tensor_to_json_obj(s) == tensor_to_json_obj(SymmetricTensor(3, 2, coeffs))
    o = outer_power([1.0, 2.0], np.int64(3))
    assert type(o.order) is int and frobenius_norm(o) == frobenius_norm(outer_power([1.0, 2.0], 3))


@pytest.mark.parametrize("order, dim, what", [
    (3.0, 2, "order, got float"), (3, 2.0, "dim, got float"), ("3", 2, "order, got str"),
    (None, 2, "order, got NoneType"), (np.float64(3), 2, "order, got float64"), (3, 2 + 0j, "dim, got complex"),
])
def test_a_non_integer_order_or_dim_is_a_validation_error(order, dim, what):
    name, got = what.split(", ")
    with pytest.raises(ValidationError, match=rf"^{name} must be an integer, {got}$"):
        SymmetricTensor(order, dim, {})
    if name == "order":
        with pytest.raises(ValidationError, match=rf"^order must be an integer, {got}$"):
            outer_power([1.0, 2.0], order)


def test_json_rejects_booleans_as_integers():
    with pytest.raises(ValidationError, match="'order'"):
        tensor_from_json_obj({"format": "sym", "order": True, "dim": 1, "coeffs": []})
    with pytest.raises(ValidationError, match="'dim'"):
        tensor_from_json_obj({"format": "dense", "order": 1, "dim": True, "entries": [[1.0, 0.0]]})
    with pytest.raises(ValidationError, match="'exponent'"):
        tensor_from_json_obj({"format": "sym", "coeffs": [{"exponent": [True, 0], "value": [1.0, 0.0]}]})


def test_dense_forms_stop_at_numpy_axes():
    cap = _DENSE_ORDER_CAP  # read from numpy at import: 64 from numpy 2, 32 before
    assert cap in (32, 64) and np.empty((1,) * cap).ndim == cap
    with pytest.raises(CapacityError, match=f"numpy's {cap} axes"):
        tensor_from_json_obj({"format": "dense", "order": 100, "dim": 1, "entries": [[1.0, 0.0]]})
    with pytest.raises(CapacityError, match=f"numpy's {cap} axes"):
        tensor_from_json_obj({"format": "dense", "order": 5000, "dim": 10, "entries": []})
    with pytest.raises(CapacityError, match=f"order {cap + 1} needs more than numpy's {cap} axes"):
        tensor_from_json_obj({"format": "dense", "order": cap + 1, "dim": 1, "entries": [[1.0, 0.0]]})
    with pytest.raises(ValidationError, match=r"expected 10\*\*3 pairs, got 0"):
        tensor_from_json_obj({"format": "dense", "order": 3, "dim": 10, "entries": []})
    with pytest.raises(CapacityError, match=f"numpy's {cap} axes"):
        decompress(SymmetricTensor(100, 1, {(100,): 1.0}))
    with pytest.raises(CapacityError, match=f"order {cap + 1} needs more than numpy's {cap} axes"):
        decompress(SymmetricTensor(cap + 1, 1, {(cap + 1,): 2.0}))
    assert decompress(SymmetricTensor(cap, 1, {(cap,): 2.0})).array.shape == (1,) * cap


def test_json_rejects_non_finite_pairs():
    for bad in ([float("nan"), 0.0], [0.0, float("-inf")], [10**400, 0]):
        with pytest.raises(ValidationError, match="entries"):
            tensor_from_json_obj({"format": "dense", "order": 1, "dim": 1, "entries": [bad]})
        with pytest.raises(ValidationError, match="value"):
            tensor_from_json_obj({"format": "sym", "coeffs": [{"exponent": [1], "value": bad}]})


def _reference_pair_verdict(obj, field):
    """The error a [re, im] pair earns, by the component check written as a generator: the texts the reader pins."""
    if not isinstance(obj, (list, tuple)) or len(obj) != 2 or not all(
            isinstance(c, (int, float)) and not isinstance(c, bool) for c in obj):
        return ValidationError, f"field '{field}': expected a [re, im] number pair"
    try:
        value = complex(obj[0], obj[1])
    except OverflowError:
        value = complex(math.inf)
    return (ValidationError, f"field '{field}': expected finite numbers") if not cmath.isfinite(value) else value


class _Count(int):  # an int subclass, which the reader takes as a number
    def __repr__(self):
        return f"_Count({int(self)})"


_PAIRS = [
    [True, 0], [0, False], ["1", 0], [None, 0], [[1], 0], [1.5, "x"], [1], [1, 2, 3], [], {}, {"re": 1, "im": 0},
    "1", 1.5, None, (1.5, -2.0), (True, 0), [_Count(3), 0], [0.5, _Count(-2)], [np.float64(0.25), 1], [np.int64(1), 0],
    [10**400, 0], [0, -(10**400)], [math.inf, 0], [0, -math.inf], [math.nan, 1], [0.5, -2], [3, 4],
]


@pytest.mark.parametrize("pair", _PAIRS, ids=lambda pair: repr(pair)[:24])
def test_the_pair_reader_gives_the_generator_checks_verdicts_and_texts(pair):
    from waring.decompose import decomposition_from_json_obj

    readers = {
        "value": lambda: tensor_from_json_obj(
            {"format": "sym", "order": 1, "dim": 1, "coeffs": [{"exponent": [1], "value": pair}]}).coeffs[(1,)],
        "entries": lambda: complex(tensor_from_json_obj(
            {"format": "dense", "order": 1, "dim": 1, "entries": [pair]}).array[0]),
        "weight": lambda: decomposition_from_json_obj(
            {"order": 1, "dim": 1, "field": "C", "terms": [{"weight": pair, "vector": [[1, 0]]}]}).weights[0],
        "vector": lambda: decomposition_from_json_obj(  # a 1-vector leads with 1, its scale moved into the weight
            {"order": 1, "dim": 1, "field": "C", "terms": [{"weight": [1, 0], "vector": [pair]}]}).weights[0],
    }
    for field, read in readers.items():
        want = _reference_pair_verdict(pair, field)
        if isinstance(want, complex):
            assert read() == want
        else:
            with pytest.raises(ValidationError) as caught:
                read()
            assert (type(caught.value), str(caught.value)) == want


def test_fixture_files_parse():
    for name in ("a31_tensor.json", "cubic_3xyy_minus_xxx.json", "dense_asym222.json"):
        obj = json.loads((FIXTURES / name).read_text())
        tensor_from_json_obj(obj)


# --- array kernels against the loop implementations they replaced ---------------
#
# The references below are the entry-by-entry and class-by-class loops the
# array kernels replaced.  Storage conversions must match them bit for bit;
# the algebra sums in another order and must agree within 1e-12 * (1 + scale).

KERNEL_SHAPES = [(1, 1), (1, 4), (2, 1), (3, 2), (3, 10), (4, 3), (5, 6), (6, 5)]


def ref_symmetrize(arr):
    sums, counts = {}, {}
    for idx in np.ndindex(arr.shape):
        canon = tuple(sorted(idx))
        sums[canon] = sums.get(canon, 0j) + arr[idx]
        counts[canon] = counts.get(canon, 0) + 1
    out = np.empty_like(arr)
    for idx in np.ndindex(arr.shape):
        canon = tuple(sorted(idx))
        out[idx] = sums[canon] / counts[canon]
    return out


def ref_worst_asymmetry(arr):
    scale = float(np.abs(arr).max())
    worst, worst_idx, worst_canon = 0.0, (), ()
    for idx in np.ndindex(arr.shape):
        canon = tuple(sorted(idx))
        if canon != idx and abs(arr[idx] - arr[canon]) > worst:
            worst, worst_idx, worst_canon = abs(arr[idx] - arr[canon]), idx, canon
    return worst, worst_idx, worst_canon, scale


def canonical_index0(p):
    return tuple(i for i, e in enumerate(p) for _ in range(e))


def ref_compress(arr, k, n):
    """Class dict of the reference compress, or the SymmetryError it raises as (message, index, canonical)."""
    worst, idx, canon, scale = ref_worst_asymmetry(arr)
    if worst > DEFAULT_SYMMETRY_TOL * scale:
        message = (
            f"tensor is not symmetric: |a{idx} - a{canon}| = {worst:.3e} "
            f"exceeds {DEFAULT_SYMMETRY_TOL:.1e} * {scale:.3e}"
        )
        return message, idx, canon
    values = {p: complex(arr[canonical_index0(p)]) for p in enumerate_exponents(k, n)}
    return {p: v for p, v in values.items() if v != 0}


def ref_decompress(coeffs, k, n):
    arr = np.zeros((n,) * k, dtype=np.complex128)
    for p, v in coeffs.items():
        members = np.array(sorted(set(itertools.permutations(canonical_index0(p)))), dtype=np.intp)
        arr[tuple(members.T)] = v
    return arr


def ref_monomial(point, p):
    val = 1.0 + 0j
    for i in itertools.compress(range(len(p)), p):  # the variables with e > 0, in order
        val *= complex(point[i]) ** p[i]
    return val


def ref_outer_power(v, k):
    return {p: ref_monomial(v, p) for p in enumerate_exponents(k, len(v))}


def ref_reconstruct(terms, k, n):
    acc = {p: 0j for p in enumerate_exponents(k, n)}
    for w, v in terms:
        for p in acc:
            acc[p] += w * ref_monomial(v, p)
    return acc


def ref_norm(coeffs):
    return math.sqrt(sum(multinomial(p) * abs(v) ** 2 for p, v in coeffs.items()))


def ref_evaluate(coeffs, point):
    return sum(multinomial(p) * a * ref_monomial(point, p) for p, a in coeffs.items())


def ref_apolar(f, g):
    return sum(multinomial(p) * f[p] * g.get(p, 0j) for p in f)


def assert_close(got: dict, want: dict, scale: float):
    assert set(got) <= set(want)
    for p, w in want.items():
        assert abs(got.get(p, 0j) - w) <= 1e-12 * (1.0 + scale), p


def random_entries(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("k,n", KERNEL_SHAPES)
def test_storage_kernels_match_the_loops_bit_for_bit(k, n):
    rng = np.random.default_rng([k, n])
    raw = random_entries(rng, (n,) * k)
    tiny = np.zeros((n,) * k, dtype=np.complex128)  # its class mean rounds to -0.0 where the class has 2+ entries
    tiny.reshape(-1)[n ** (k - 1) if n > 1 else 0] = -5e-324
    sym, sym_tiny = symmetrize(DenseTensor(raw)), symmetrize(DenseTensor(tiny))
    assert sym.array.tobytes() == ref_symmetrize(raw).tobytes()
    assert sym_tiny.array.tobytes() == ref_symmetrize(tiny).tobytes()
    zeros = sym_tiny.array.real[sym_tiny.array.real == 0]
    assert np.signbit(zeros).any() == (k > 1 and n > 1)
    threshold = DEFAULT_SYMMETRY_TOL * np.abs(sym.array).max()
    ramp = np.arange(n**k, dtype=float).reshape((n,) * k)  # integer deviations: ties for the worst entry
    inputs = [raw, ramp, sym.array, sym_tiny.array]
    for factor in (0.9, 1.1):  # one entry off its class by just under / just over the tolerance
        nudged = sym.array.copy()
        nudged.reshape(-1)[n ** (k - 1) if n > 1 else 0] += factor * threshold
        inputs.append(nudged)
    # results of symmetrize and decompress keep their classes and must answer as the scan of their entries
    kept = [sym, sym_tiny, decompress(compress(DenseTensor(sym.array)))]
    for tensor in [DenseTensor(arr) for arr in inputs] + kept:
        want = ref_compress(tensor.array, k, n)
        scanned = DenseTensor(tensor.array)
        assert is_symmetric(tensor) == isinstance(want, dict)
        assert is_symmetric(tensor, tol=0.0) == is_symmetric(scanned, tol=0.0)
        if isinstance(want, dict):
            packed = compress(tensor)
            assert packed.coeffs == want
            assert packed._vector.tobytes() == compress(scanned)._vector.tobytes()
            assert decompress(packed).array.tobytes() == ref_decompress(want, k, n).tobytes()
        else:
            with pytest.raises(SymmetryError) as info:
                compress(tensor)
            assert (str(info.value), info.value.index, info.value.canonical) == want


@pytest.mark.parametrize("k,n", KERNEL_SHAPES)
def test_algebra_kernels_match_the_loops(k, n):
    from waring.decompose import make_decomposition, reconstruct, verify
    from waring.quantics import apolar_form, evaluate, tensor_to_quantic, veronese

    rng = np.random.default_rng([k, n, 1])
    r = -(-len(enumerate_exponents(k, n)) // n)
    weights = random_entries(rng, r)
    vectors = random_entries(rng, (r, n))
    v, beta = vectors[0], tuple(random_entries(rng, n))
    scale = float(np.max(np.abs(v))) ** k
    assert_close(outer_power(v, k).coeffs, ref_outer_power(v, k), scale)
    assert_close(tensor_to_quantic(outer_power(v, k)).terms, veronese(v, k).terms, 0.0)

    decomposition = make_decomposition(k, n, list(zip(weights, map(tuple, vectors))))
    terms = decomposition.terms
    scale = sum(abs(w) * max(abs(c) for c in u) ** k for w, u in terms)
    want = ref_reconstruct(terms, k, n)
    assert_close(reconstruct(decomposition).coeffs, want, scale)

    target = SymmetricTensor(k, n, {p: complex(rng.normal(), rng.normal()) for p in want})
    residual = ref_norm({p: want[p] - target.coeffs.get(p, 0j) for p in want})
    got = verify(decomposition, target).residual
    assert abs(got - residual) <= 1e-12 * (1.0 + residual + ref_norm(want))

    form = tensor_to_quantic(target)
    size = ref_evaluate({p: abs(a) for p, a in form.terms.items()}, [abs(c) for c in beta])
    assert abs(evaluate(form, beta) - ref_evaluate(form.terms, beta)) <= 1e-12 * (1.0 + size.real)
    power = veronese(beta, k)
    assert abs(evaluate(form, beta) - apolar_form(form, power)) <= 1e-12 * (1.0 + size.real)
    size = ref_apolar({p: abs(a) for p, a in form.terms.items()}, {p: abs(b) for p, b in power.terms.items()})
    assert abs(apolar_form(form, power) - ref_apolar(form.terms, power.terms)) <= 1e-12 * (1.0 + size.real)


def ref_power_sum(weights, vectors, k):
    """The power-sum kernel before its tables listed only the factors that are not 1: one gather and one multiply
    per variable over every head and tail, on the exponent columns the factor ids decode to."""
    from waring.combinatorics import _head_tail_blocks

    factors, m_a, blocks, where = _head_tail_blocks(k, vectors.shape[1])
    b = k - k // 2
    columns = np.zeros((vectors.shape[1], factors.shape[1]), dtype=np.intp)
    np.add.at(columns, (factors // (b + 1), np.arange(factors.shape[1])), factors % (b + 1))
    buffer = np.empty(len(where), dtype=np.complex128)
    powers = vectors[:, :, None] ** np.arange(b + 1)
    monomials = powers[:, 0, columns[0]]
    for i in range(1, len(columns)):
        monomials *= powers[:, i, columns[i]]
    heads = monomials[:, :m_a].T * weights
    for rows, tails, out, shape in blocks:
        np.dot(heads[rows], monomials[:, tails], out=buffer[out].reshape(shape))
    return buffer[where]


GRID_CELLS = [(3, 10), (4, 8), (5, 6), (6, 5), (5, 8), (6, 6)]


def bincount_class_means(flat, ids, sizes):
    """The class sums as two real bincounts, one per part, each over intp ids and a contiguous copy of its part."""
    sums = np.empty(len(sizes), dtype=np.complex128)
    sums.real = np.bincount(ids, weights=flat.real, minlength=len(sizes))
    sums.imag = np.bincount(ids, weights=flat.imag, minlength=len(sizes))
    return sums / sizes


@pytest.mark.parametrize("k,n", sorted(set(KERNEL_SHAPES + GRID_CELLS)))
def test_the_class_sums_equal_two_real_bincounts_byte_for_byte(k, n, monkeypatch):
    # both add the entries of a class one by one in row-major order from +0, so every bit agrees, signed zeros,
    # subnormals and a sum past the float range included
    import waring.tensor_core as tc
    from waring.combinatorics import _class_sizes, _dense_tables

    rng = np.random.default_rng([k, n, 21])
    raw = random_entries(rng, n**k)
    odd = raw.copy()
    for value in (-0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310):
        odd.real[rng.random(n**k) < 0.1] = value
        odd.imag[rng.random(n**k) < 0.1] = value
    near = (np.tanh(raw.real) + 1j * np.tanh(raw.imag)) * 1.7e308  # with two or more members, a class sum may overflow
    inputs = [raw, odd, np.full(n**k, -0.0 - 0.0j), np.full(n**k, 5e-324 - 5e-324j), np.full(n**k, 1.5e308), near]
    ids, sizes = _dense_tables(k, n)[0], _class_sizes(k, n)
    for flat in inputs:
        with np.errstate(over="ignore", invalid="ignore"):  # as symmetrize calls it: an overflowed sum reads inf
            assert tc._class_means(flat, ids, sizes).tobytes() == bincount_class_means(flat, ids, sizes).tobytes()
    got = [symmetrize(DenseTensor(flat.reshape((n,) * k))) for flat in inputs]
    monkeypatch.setattr(tc, "_class_means", bincount_class_means)
    for flat, sym in zip(inputs, got):  # the same holds through the re-sum at a power-of-two scale
        want = symmetrize(DenseTensor(flat.reshape((n,) * k)))
        assert sym.array.tobytes() == want.array.tobytes()
        assert sym._classes._vector.tobytes() == want._classes._vector.tobytes()


@pytest.mark.parametrize("k,n", sorted(set(KERNEL_SHAPES + GRID_CELLS)) + [(2, 300), (1028, 2), (100_000, 1)])
def test_power_sum_equals_the_per_variable_gather(k, n):
    # a factor of 1 changes no product, so skipping it leaves every value; the matrix products sum as they did
    from waring.rank_oracle import generic_symmetric_rank
    from waring.tensor_core import _power_sum

    rng = np.random.default_rng([k, n, 5])
    generic = generic_symmetric_rank(k, n) if k >= 3 and n >= 2 else n if k == 2 else 1  # a quadratic form: n
    for r in sorted({1, 3, generic}):
        weights, vectors = random_entries(rng, r), random_entries(rng, (r, n))
        vectors /= np.abs(vectors)  # on the unit circle, so order 10^5 stays finite
        vectors[rng.random((r, n)) < 0.3] = 0
        got, want = _power_sum(weights, vectors, k), ref_power_sum(weights, vectors, k)
        assert np.isfinite(want).all() and (got == want).all()


@pytest.mark.parametrize("k,n", KERNEL_SHAPES + [(2, 300), (100_000, 1)])
def test_outer_power_is_the_one_term_reconstruct(k, n):
    # one kernel forms both, so they agree class by class; order 10^5 over C^1 takes the unit circle
    from waring.decompose import SymmetricDecomposition, reconstruct

    v = random_entries(np.random.default_rng([k, n, 3]), n)
    v = tuple((v / np.abs(v).max()).tolist())
    want = reconstruct(SymmetricDecomposition(k, n, np.ones(1, complex), np.array([v], complex), "C"))._vector
    assert outer_power(v, k)._vector.tolist() == want.tolist()


@pytest.mark.parametrize("k,n,r", [(1, 3, 2), (7, 1, 3), (60, 2, 5), (400, 2, 5), (2, 300, 3), (4, 40, 2), (8, 12, 1)])
def test_reconstruct_matches_the_loop_at_any_scale(k, n, r):
    # one head degree per parity, one variable, long binary orders on the unit circle, and wide few-term shapes
    from waring.decompose import make_decomposition, reconstruct

    rng = np.random.default_rng([k, n, 2])
    weights, vectors = random_entries(rng, r), random_entries(rng, (r, n))
    if n == 2:
        vectors = [(1.0, complex(np.exp(2j * np.pi * t))) for t in rng.random(r)]
    terms = make_decomposition(k, n, list(zip(weights, map(tuple, vectors))), "C").terms
    want = np.array(list(ref_reconstruct(terms, k, n).values()))  # in graded-lex order, as the class vector
    scale = sum(abs(w) * max(abs(c) for c in v) ** k for w, v in terms)
    for e in (0, 300, -300):  # relative rounding, with no absolute floor
        got = reconstruct(make_decomposition(k, n, [(w * 2.0**e, v) for w, v in terms], "C"))._vector
        assert np.abs(got - want * 2.0**e).max() <= 1e-12 * scale * 2.0**e


def _loop_sum_is_finite(terms, k, n):
    try:
        return all(map(cmath.isfinite, ref_reconstruct(terms, k, n).values()))
    except OverflowError:  # Python's complex power raises where numpy's reads inf
        return False


@pytest.mark.parametrize("k,n,terms", [
    (3, 2, [(2.0**1000, (1, 2.0**10))]),  # the weighted class passes the float range
    (3, 2, [(2.0**1000, (1, 2.0**5))]),
    (8, 2, [(2.0**-1000, (1, 2.0**200))]),  # finite weighted, but the power of the vector is not
    (8, 2, [(2.0**-1000, (1, 2.0**100))]),
    (2, 3, [(2.0**1000, (1, 2.0**100, 2.0**-100))]),  # x2 * x3 is 2^1000, the weighted head x2 is not finite
    (2, 3, [(2.0**800, (1, 2.0**100, 2.0**-100))]),
    (4, 3, [(1.5 * 2.0**1023, (1, 0.5, 0.25)), (1.5 * 2.0**1023, (1, -0.5, 0.25))]),  # the sum passes the range
    (4, 3, [(1.5 * 2.0**1023, (1, 0.5, 0.25)), (-1.5 * 2.0**1023, (1, -0.5, 0.25))]),
    (6, 5, [(2.0**300, (1, 2.0**100, 1j, 2.0**-50, 0)), (2.0**-300, (0, 1, 2.0**-50, 3, 1j))]),
])
def test_reconstruct_refuses_exactly_the_non_finite_loop_sums(k, n, terms):
    from waring.decompose import make_decomposition, reconstruct

    D = make_decomposition(k, n, terms)
    if _loop_sum_is_finite(D.terms, k, n):
        scale = sum(abs(w) * max(abs(c) for c in v) ** k for w, v in D.terms)
        got, want = reconstruct(D).coeffs, ref_reconstruct(D.terms, k, n)
        assert all(abs(got.get(p, 0j) - w) <= 1e-12 * scale for p, w in want.items())
    else:
        with pytest.raises(ValidationError, match="finite"):
            reconstruct(D)


def test_reconstruct_needs_no_scratch_of_heads_times_tails():
    # (8, 12) has 75,582 classes but 1365 heads and 1365 tails: one product of all of them is 25 times that
    import tracemalloc

    from waring.decompose import make_decomposition, reconstruct

    terms = [(1.0, tuple(random_entries(np.random.default_rng(8), 12)))]
    reconstruct(make_decomposition(8, 12, terms))  # builds the tables
    D = make_decomposition(8, 12, terms)  # a new record, which has not kept a reconstruction
    tracemalloc.start()
    try:
        reconstruct(D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(enumerate_exponents(8, 12)) * 16


def test_frobenius_norm_stays_finite_near_the_float_range():
    s = SymmetricTensor(3, 2, {(3, 0): 1e300, (2, 1): -1e300, (1, 2): 1e300, (0, 3): 1e300})
    assert frobenius_norm(s) == pytest.approx(math.sqrt(8) * 1e300, rel=1e-15)
    minus = SymmetricTensor(3, 2, {p: -v for p, v in s.coeffs.items()})
    assert frobenius_distance(s, minus) == pytest.approx(2 * math.sqrt(8) * 1e300, rel=1e-15)
    assert frobenius_norm(SymmetricTensor(1, 1, {(1,): 1.7e308})) == 1.7e308
    assert frobenius_norm(SymmetricTensor(1, 1, {(1,): 5e-324})) == 5e-324


def test_a_small_asymmetry_is_measured_against_the_entries_not_against_one():
    # with the tolerance relative to the largest entry, 1e-13 against 0 is a whole entry off
    a = np.zeros((2, 2, 2))
    a[0, 0, 1] = 1e-13
    assert not is_symmetric(DenseTensor(a))
    with pytest.raises(SymmetryError, match=r"= 1\.000e-13 exceeds 1\.0e-12 \* 1\.000e-13$"):
        compress(DenseTensor(a))
    a[0, 1, 0] = a[1, 0, 0] = 1e-13 * (1 + 2**-40)  # relative deviation 2^-40, below 1e-12
    assert is_symmetric(DenseTensor(a)) and compress(DenseTensor(a)).coeffs == {(2, 1): 1e-13}


def _binary_ones(k, value=1.0):
    """The tensor of value * (x1 + x2)^k: every class entry is value."""
    return SymmetricTensor(k, 2, {(k - j, j): value for j in range(k + 1)})


def test_the_norm_of_classes_whose_sizes_near_the_float_range_is_finite():
    # the class sizes of order 1024 sum to 2^1024, so the weighted sum of squares passes the float range
    assert frobenius_norm(_binary_ones(1024)) == 2.0**512
    assert frobenius_norm(_binary_ones(1024, 0.5)) == 2.0**511
    assert frobenius_distance(_binary_ones(1024, 2.0**511), SymmetricTensor(1024, 2, {})) == 2.0**1023
    assert frobenius_distance(_binary_ones(1024, 2.0**511), _binary_ones(1024, -(2.0**511))) == math.inf
    assert frobenius_norm(_binary_ones(1024, 2.0**512)) == math.inf


def test_constructors_reject_non_finite_values():
    for bad in (math.nan, math.inf, -math.inf, complex(0.0, math.nan)):
        with pytest.raises(ValidationError, match="finite"):
            DenseTensor(np.array([[1.0, bad], [bad, 0.0]]))
        with pytest.raises(ValidationError, match="finite"):
            SymmetricTensor(2, 2, {(2, 0): 1.0, (1, 1): bad})


def test_coefficient_vector_is_a_fresh_array():
    s = SymmetricTensor(2, 2, {(2, 0): 1.0, (0, 2): -2.0})
    raw = coefficient_vector(s, scaled=False)
    raw[0] = 7.0
    assert s.coeffs == {(2, 0): 1.0, (0, 2): -2.0}


# --- JSON round trip -----------------------------------------------------------------

_finite_complex = st.complex_numbers(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(k=st.integers(1, 3), n=st.integers(1, 3), data=st.data())
def test_json_round_trip_returns_the_same_tensor(k, n, data):
    entries = data.draw(st.lists(_finite_complex, min_size=n**k, max_size=n**k))
    dense = DenseTensor(np.array(entries, dtype=np.complex128).reshape((n,) * k))
    back = tensor_from_json_obj(json.loads(json.dumps(tensor_to_json_obj(dense))))
    assert isinstance(back, DenseTensor) and back.array.tobytes() == dense.array.tobytes()

    classes = enumerate_exponents(k, n)
    coeffs = data.draw(st.dictionaries(st.sampled_from(classes), _finite_complex))
    sym = SymmetricTensor(k, n, coeffs)
    back = tensor_from_json_obj(json.loads(json.dumps(tensor_to_json_obj(sym))))
    assert isinstance(back, SymmetricTensor)
    assert (back.order, back.dim, back.coeffs) == (k, n, sym.coeffs)


def test_library_results_that_overflow_are_rejected():
    from waring.decompose import make_decomposition, verify

    with np.errstate(all="ignore"), pytest.raises(ValidationError, match="finite"):
        outer_power((1e200, 1.0), 2)
    decomposition = make_decomposition(3, 2, [(1.0, (1.0, 1e200))])
    with np.errstate(all="ignore"), pytest.raises(ValidationError, match="finite"):
        verify(decomposition, SymmetricTensor(3, 2, {(3, 0): 1.0}))


@pytest.mark.parametrize("exponent", [[10**5000], [-(10**5000)], [10**5000, 0]])
def test_json_exponent_past_the_int_digit_limit_is_a_validation_error(exponent):
    # the messages must not format the entry: str() of a 5001-digit int raises ValueError
    obj = {"format": "sym", "order": 1, "dim": 1, "coeffs": [{"exponent": exponent, "value": [1, 0]}]}
    with pytest.raises(ValidationError, match="exponent"):
        tensor_from_json_obj(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {"format": "sym", "order": 2, "dim": 10**5000, "coeffs": []},
        {"format": "sym", "dim": 2, "coeffs": [{"exponent": [10**5000, 1], "value": [1, 0]}]},
    ],
)
def test_json_shape_past_the_int_digit_limit_is_an_overflow_error(obj):
    # sym_dimension must not format k or n: str() of a 5001-digit int raises ValueError
    from waring.errors import ArithmeticOverflowError

    with pytest.raises(ArithmeticOverflowError, match="sym_dimension of an argument past 600 digits"):
        tensor_from_json_obj(obj)


_SYMMETRIC = DenseTensor(np.ones((2, 2, 2)))


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda tol: is_symmetric(_SYMMETRIC, tol),
        lambda tol: compress(_SYMMETRIC, tol),
        lambda tol: compress(DenseTensor(np.arange(8.0).reshape(2, 2, 2)), tol),
        lambda tol: numerical_rank(np.eye(3), tol),
        lambda tol: power_span_rank([(1.0, 0.0), (0.0, 1.0)], 2, tol),
        lambda tol: is_symmetric(symmetrize(_SYMMETRIC), tol),
        lambda tol: compress(decompress(compress(_SYMMETRIC)), tol),
    ],
    ids=[
        "is_symmetric", "compress", "compress_asymmetric", "numerical_rank", "power_span_rank",
        "is_symmetric_kept_classes", "compress_kept_classes",
    ],
)
def test_negative_and_nan_tolerances_are_refused(call, tol):
    with pytest.raises(ValidationError, match="tolerance must be >= 0"):
        call(tol)


@pytest.mark.parametrize("matrix", [[[math.inf, 1]], [[1, math.nan]], [[1, complex(0, math.inf)]]])
def test_numerical_rank_rejects_a_non_finite_entry(matrix):
    with pytest.raises(ValidationError, match="finite"):
        numerical_rank(matrix)


def test_numerical_rank_refuses_an_array_of_three_axes():
    # svd took the 2 x 2 x 2 array as a stack of two 2 x 2 matrices and read rank 2
    with pytest.raises(ValidationError, match="numerical_rank needs a matrix, got 3 axes"):
        numerical_rank(np.ones((2, 2, 2)))
    assert numerical_rank(np.ones((2, 2))) == 1 and numerical_rank([1.0, 2.0]) == 1


@pytest.mark.parametrize("scale", [1e300, 1e-170])
def test_numerical_rank_of_huge_or_tiny_entries(scale):
    # the column norms of the unscaled matrix overflow or underflow, which read as rank 0
    assert numerical_rank([[scale], [scale]]) == 1
    assert numerical_rank(scale * np.array([[1, 1], [1, 1j]])) == 2


# --- the array JSON writers against the per-value writer they replaced --------------


def _complex_pair(value):
    c = complex(value)
    return [c.real, c.imag]


def _per_value_tensor_json(x):
    if isinstance(x, DenseTensor):
        entries = [_complex_pair(v) for v in x.array.reshape(-1)]
        return {"order": x.order, "dim": x.dim, "format": "dense", "entries": entries}
    coeffs = [{"exponent": list(p), "value": _complex_pair(v)} for p, v in x.coeffs.items()]
    return {"order": x.order, "dim": x.dim, "format": "sym", "coeffs": coeffs}


def _per_value_decomposition_json(D):
    terms = [{"weight": _complex_pair(w), "vector": [_complex_pair(c) for c in v]} for w, v in D.terms]
    return {"order": D.order, "dim": D.dim, "field": D.field_tag, "terms": terms}


def _dumps(obj):
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


def test_the_json_writers_print_the_fixtures_as_the_per_value_writers_do():
    from waring.decompose import decomposition_from_json_obj, decomposition_to_json_obj

    for name in ("a31_tensor.json", "cubic_3xyy_minus_xxx.json", "dense_asym222.json"):
        tensor = tensor_from_json_obj(json.loads((FIXTURES / name).read_text()))
        assert _dumps(tensor_to_json_obj(tensor)) == _dumps(_per_value_tensor_json(tensor))
        if isinstance(tensor, SymmetricTensor):
            dense = decompress(tensor)
            assert _dumps(tensor_to_json_obj(dense)) == _dumps(_per_value_tensor_json(dense))
    D = decomposition_from_json_obj(json.loads((FIXTURES / "a31_decomposition.json").read_text()))
    assert _dumps(decomposition_to_json_obj(D)) == _dumps(_per_value_decomposition_json(D))


_edge_part = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.7e308, -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_edge_complex = st.builds(complex, _edge_part, _edge_part)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(k=st.integers(1, 3), n=st.integers(1, 3), r=st.integers(1, 4), data=st.data())
def test_the_json_writers_print_edge_values_as_the_per_value_writers_do(k, n, r, data):
    from waring.decompose import SymmetricDecomposition, decomposition_to_json_obj

    entries = data.draw(st.lists(_edge_complex, min_size=n**k, max_size=n**k))
    dense = DenseTensor(np.array(entries, dtype=np.complex128).reshape((n,) * k))
    assert _dumps(tensor_to_json_obj(dense)) == _dumps(_per_value_tensor_json(dense))
    coeffs = data.draw(st.dictionaries(st.sampled_from(enumerate_exponents(k, n)), _edge_complex))
    sym = SymmetricTensor(k, n, coeffs)
    assert _dumps(tensor_to_json_obj(sym)) == _dumps(_per_value_tensor_json(sym))
    # weights and vectors as a decomposition stores them: the two column ranges of one block
    block = np.array(data.draw(st.lists(st.lists(_edge_complex, min_size=n + 1, max_size=n + 1),
                                        min_size=r, max_size=r)), dtype=np.complex128)
    D = SymmetricDecomposition(k, n, block[:, 0], block[:, 1:], "C")
    assert _dumps(decomposition_to_json_obj(D)) == _dumps(_per_value_decomposition_json(D))


def test_shared_tensors_refuse_assignment_and_deletion():
    from waring.decompose import make_decomposition, reconstruct
    from waring.quantics import parse_quantic, quantic_to_tensor, render_quantic

    s = symmetrize(DenseTensor([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(AttributeError, match="SymmetricTensor is immutable"):
        compress(s).order = 5
    with pytest.raises(AttributeError, match="DenseTensor is immutable"):
        s.array = np.zeros((2, 2))
    assert compress(s).order == 2 and compress(s) is compress(s)
    D = make_decomposition(3, 2, [(1.0, (1.0, 2.0)), (0.5, (1.0, -1.0))])
    with pytest.raises(AttributeError, match="cannot assign to 'dim'"):
        reconstruct(D).dim = 9
    with pytest.raises(AttributeError, match="cannot delete 'dim'"):
        del reconstruct(D).dim
    assert reconstruct(D).dim == 2
    q = parse_quantic("3*x1*x2^2 - x1^3")
    with pytest.raises(AttributeError, match="SymmetricTensor is immutable"):
        quantic_to_tensor(q)._vector = np.zeros(4, dtype=np.complex128)
    with pytest.raises(AttributeError, match="Quantic is immutable"):
        q._tensor = SymmetricTensor(3, 2, {})
    assert render_quantic(q) == "3*x1*x2^2 - x1^3"


def test_copy_and_pickle_rebuild_immutable_tensors():
    import copy
    import pickle

    from waring.quantics import parse_quantic

    dense = symmetrize(DenseTensor([[1.0, 2.0], [3.0, 4.0]]))
    for x in (dense, compress(dense), parse_quantic("x1^3 - 2*x1*x2^2")):
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is type(x) and repr(y) == repr(x)
            with pytest.raises(AttributeError, match="immutable"):
                y.order = 1
            inner = getattr(y, "_tensor", y)
            assert not (inner.array if isinstance(inner, DenseTensor) else inner._vector).flags.writeable
    assert np.array_equal(pickle.loads(pickle.dumps(dense)).array, dense.array)
    assert pickle.loads(pickle.dumps(compress(dense))).coeffs == compress(dense).coeffs


@pytest.mark.parametrize("exponent,message", [([], "at least one entry"), ([-5, 1], "negative entry"),
                                              ([1, -1, 2], "negative entry")])
def test_an_order_or_dim_inferred_from_an_invalid_first_exponent_names_that_exponent(exponent, message):
    for shape in ({}, {"order": 2}, {"dim": 2}, {"order": 2, "dim": 2}):
        obj = {"format": "sym", **shape, "coeffs": [{"exponent": exponent, "value": [1, 0]},
                                                    {"exponent": [1, 1], "value": [1, 0]}]}
        with pytest.raises(ValidationError, match=message):
            tensor_from_json_obj(obj)


@pytest.mark.parametrize("call, message", [
    (lambda: DenseTensor(np.zeros(0)), "a dense tensor needs dimension >= 1"),
    (lambda: outer_power([], 2), "outer power needs a nonempty vector"),
    (lambda: contract_mode1(DenseTensor(np.ones((2, 2))), DenseTensor(np.ones((3, 3)))),
     "first-mode dimensions differ: 2 vs 3"),
    (lambda: multilinear_transform(DenseTensor(np.ones((2, 2))), [np.ones(2), np.eye(2)]),
     "map for mode 0 is not a matrix"),
    (lambda: power_span_rank([], 2), "power_span_rank needs at least one vector"),
    (lambda: power_span_rank([(1.0, 2.0), (1.0, 2.0, 3.0)], 2), "vectors must share one dimension"),
])
def test_a_refused_shape_names_what_is_wrong(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert type(info.value) is ValidationError and str(info.value) == message


def test_a_dense_product_past_the_float_range_is_a_typed_error_with_no_warning():
    # pytest turns numpy's RuntimeWarning into an error, so these also assert there is none
    big = DenseTensor(np.full((2, 2), 1e300))
    with pytest.raises(ArithmeticOverflowError, match="^the contraction overflows the float range$"):
        contract_mode1(big, big)
    with pytest.raises(ArithmeticOverflowError, match="^the contraction overflows the float range$"):
        contract_mode1(DenseTensor(np.full(2, 1e300)), DenseTensor(np.full(2, -1e300)))
    with pytest.raises(ArithmeticOverflowError, match="^the transform overflows the float range$"):
        multilinear_transform(big, [np.full((2, 2), 1e300), np.eye(2)])
    assert contract_mode1(DenseTensor(np.full(2, 2.0**500)), DenseTensor(np.full(2, 2.0**500))) == 2.0**1001


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0, math.inf)])
@pytest.mark.parametrize("mode", [0, 1])
def test_a_non_finite_map_is_refused_before_the_transform(bad, mode):
    maps = [np.eye(2, dtype=complex), np.eye(2, dtype=complex)]
    maps[mode][0, 0] = bad
    with pytest.raises(ValidationError, match=rf"^map for mode {mode} must be finite$"):
        multilinear_transform(DenseTensor(np.ones((2, 2))), maps)
