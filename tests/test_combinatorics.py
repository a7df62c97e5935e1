from __future__ import annotations

import math

import numpy as np
import pytest

from waring.combinatorics import (
    degree,
    enumerate_exponents,
    index_to_exponent,
    multinomial,
    sym_dimension,
)
from waring.errors import ArithmeticOverflowError, ValidationError


def test_sym_dimension_small_values():
    assert sym_dimension(3, 3) == 10
    assert sym_dimension(2, 2) == 3
    assert sym_dimension(4, 2) == 5
    assert sym_dimension(0, 5) == 1
    assert sym_dimension(5, 1) == 1


def test_sym_dimension_matches_binomial():
    for k in range(0, 7):
        for n in range(1, 7):
            assert sym_dimension(k, n) == math.comb(n + k - 1, k)


def test_sym_dimension_validates():
    with pytest.raises(ValidationError):
        sym_dimension(-1, 3)
    with pytest.raises(ValidationError):
        sym_dimension(3, 0)


def test_sym_dimension_overflow():
    with pytest.raises(ArithmeticOverflowError):
        sym_dimension(500, 500)


def test_sym_dimension_decides_overflow_before_the_binomial():
    # C(39999, 20000) has about 12,000 digits and C(2*10**9 - 1, 10**9) about 6*10**8: the message
    # names k and n instead, and the edges of the int64 range still come out exact
    for k, n in ((20000, 20000), (10**9, 10**9), (34, 35), (1, 2**63), (2**63 - 1, 2)):
        with pytest.raises(ArithmeticOverflowError, match=rf"sym_dimension\({k}, {n}\) exceeds"):
            sym_dimension(k, n)
    assert sym_dimension(2**63 - 2, 2) == sym_dimension(1, 2**63 - 1) == 2**63 - 1
    assert sym_dimension(33, 34) == math.comb(66, 33)
    assert sym_dimension(10**400, 1) == 1


def test_multinomial_values():
    assert multinomial((3, 1)) == 4
    assert multinomial((1, 1, 1)) == 6
    assert multinomial((2, 2)) == 6
    assert multinomial((5,)) == 1
    assert multinomial((0, 0, 4)) == 1


def test_multinomial_sums_to_power():
    # sum over all exponents of degree k equals n^k
    for k in range(0, 6):
        for n in range(1, 5):
            total = sum(multinomial(p) for p in enumerate_exponents(k, n))
            assert total == n**k


def test_enumerate_exponents_complete_and_ordered():
    ps = enumerate_exponents(3, 3)
    assert len(ps) == sym_dimension(3, 3)
    assert len(set(ps)) == len(ps)
    assert all(degree(p) == 3 for p in ps)
    assert ps == sorted(ps, reverse=True)
    assert ps[0] == (3, 0, 0)
    assert ps[-1] == (0, 0, 3)


def test_enumerate_exponents_degree_zero():
    assert enumerate_exponents(0, 4) == [(0, 0, 0, 0)]


def test_index_to_exponent_basic():
    # 1-based indices of an order-3 entry in dimension 3
    assert index_to_exponent((1, 1, 1), 3) == (3, 0, 0)
    assert index_to_exponent((1, 2, 3), 3) == (1, 1, 1)
    assert index_to_exponent((2, 3, 3), 3) == (0, 1, 2)


def test_index_to_exponent_validates_range():
    with pytest.raises(ValidationError):
        index_to_exponent((0, 1), 2)
    with pytest.raises(ValidationError):
        index_to_exponent((1, 3), 2)


def test_exponent_validation():
    with pytest.raises(ValidationError):
        multinomial((1, -1))
    with pytest.raises(ValidationError):
        multinomial(())


@pytest.mark.parametrize("p", [(10**5000, 1), (1, 10**5000)])
def test_multinomial_past_the_float_range_does_not_format_a_huge_entry(p):
    # str() of a 5001-digit int raises ValueError, so the message must not print the entry
    with pytest.raises(ArithmeticOverflowError, match="multinomial of an argument past 600 digits"):
        multinomial(p)


@pytest.mark.parametrize("k,n", [(1, 1), (1, 5), (3, 1), (2, 3), (4, 3), (3, 12), (6, 5)])
def test_dense_tables_number_classes_in_storage_order(k, n):
    from waring.combinatorics import _class_id, _dense_tables, _exponents

    ids, canon = _dense_tables(k, n)
    exps = enumerate_exponents(k, n)
    assert ids.dtype == (np.uint8 if len(exps) <= 256 else np.uint16)
    assert [_class_id(p) for p in exps] == list(range(len(exps)))
    assert [tuple(p) for p in _exponents(k, n, [len(exps) - 1, 0]).T.tolist()] == [exps[-1], exps[0]]
    for flat, cls in zip(range(n**k), ids):
        assert index_to_exponent([i + 1 for i in np.unravel_index(flat, (n,) * k)], n) == exps[cls]
    for cls, flat in enumerate(canon):
        idx = np.unravel_index(flat, (n,) * k)
        assert list(idx) == sorted(idx) and ids[flat] == cls


def test_caps_bound_the_class_vector_and_the_exponent_table():
    from waring.combinatorics import CLASS_CAP, TABLE_CAP
    from waring.errors import CapacityError
    from waring.tensor_core import SymmetricTensor

    with pytest.raises(CapacityError, match="exponent classes"):
        SymmetricTensor(30, 30, {})  # C(59, 30) classes
    with pytest.raises(CapacityError, match="exponent classes"):
        enumerate_exponents(3, 2000)
    assert math.comb(2 + 1999, 2) <= CLASS_CAP < math.comb(2 + 2999, 2)
    wide = SymmetricTensor(2, 2000, {(1,) + (0,) * 1998 + (1,): 2.0})  # built without a table
    assert wide.coeffs == {(1,) + (0,) * 1998 + (1,): 2.0}
    assert 2000 * math.comb(2001, 2) > TABLE_CAP
    with pytest.raises(CapacityError, match="table entries"):
        enumerate_exponents(2, 2000)
    assert len(enumerate_exponents(1, 1100)) == 1100  # wide shapes enumerate without recursion
    with pytest.raises(CapacityError, match="exponent classes"):
        SymmetricTensor(10**7, 2, {(10**7, 0): 1.0})  # refused before anything is allocated


def test_class_sizes_are_correctly_rounded_past_the_int64_range():
    import time

    from waring.combinatorics import _class_size, _class_sizes
    from waring.errors import ArithmeticOverflowError

    assert _class_sizes(70, 2).tolist() == [float(math.comb(70, j)) for j in range(71)]
    assert _class_sizes(4, 3).tolist() == [float(multinomial(p)) for p in enumerate_exponents(4, 3)]
    assert _class_sizes(10**6, 1).tolist() == [1.0]
    with pytest.raises(ArithmeticOverflowError):
        _class_sizes(1100, 2)
    _class_sizes.cache_clear()
    start = time.perf_counter()
    assert _class_sizes(1028, 2).tolist() == [float(math.comb(1028, j)) for j in range(1029)]
    assert time.perf_counter() - start < 1.0  # a table of (k+1)**2 math.comb calls took about 7 s
    for k, n in ((100, 3), (40, 4)):
        assert _class_sizes(k, n).tolist() == [float(_class_size(p)) for p in enumerate_exponents(k, n)]


def test_every_table_cache_keeps_the_same_bounded_number_of_shapes():
    from waring.combinatorics import _class_count, _class_sizes, _dense_tables, _head_tail_blocks, _id_sums

    caches = (_class_count, _id_sums, _class_sizes, _dense_tables, _head_tail_blocks)
    (bound,) = {cache.cache_info().maxsize for cache in caches}
    assert bound is not None
    for n in range(2, 14):  # 12 shapes, each into every cache
        _class_sizes(2, n)
        _dense_tables(2, n)
        _head_tail_blocks(2, n)
    assert all(cache.cache_info().currsize <= bound for cache in caches)


@pytest.mark.parametrize("k,n", [(1, 1), (1, 6), (2, 1), (2, 5), (3, 1), (3, 2), (3, 7), (4, 3), (5, 4), (6, 2), (9, 3)])
def test_head_tail_blocks_hold_every_class_once(k, n):
    from waring.combinatorics import _class_columns, _head_tail_blocks

    factors, heads, blocks, where = _head_tail_blocks(k, n)
    b = k - k // 2
    assert factors.shape[0] == min(b, n) and factors.dtype == np.min_scalar_type(n * (b + 1) - 1)
    # a column lists the factors x_(i+1)^e, e > 0, as ids i (b + 1) + e in ascending i, then pads with id 0, x_1^0
    variables, exponents = divmod(factors.astype(np.int64), b + 1)
    used = factors != 0
    assert (exponents[used] > 0).all() and (used[:-1] >= used[1:]).all()
    assert ((variables[1:] > variables[:-1]) | ~used[1:]).all()
    columns = np.zeros((n, factors.shape[1]), dtype=np.int64)  # the exponent columns the ids decode to
    np.add.at(columns, (variables, np.arange(factors.shape[1])), exponents)
    assert columns[:, :heads].sum(axis=0).tolist() == [k // 2] * heads
    assert columns[:, heads:].sum(axis=0).tolist() == [b] * (columns.shape[1] - heads)
    m, filled = sym_dimension(k, n), 0
    entries = np.zeros((n, m), dtype=np.int64)  # the exponents each buffer entry gets: head plus tail
    for rows, tails, out, shape in blocks:
        assert out.start == filled  # the blocks tile the buffer in order
        sums = columns[:, rows, None] + columns[:, None, tails]
        assert sums.shape[1:] == shape
        entries[:, out] = sums.reshape(n, -1)
        filled = out.stop
    assert filled == m and sorted(where.tolist()) == list(range(m))
    assert entries[:, where].tolist() == _class_columns(k, n).tolist()


@pytest.mark.parametrize("k,n", [(0, 5), (1, 2), (3, 4), (3, 10), (4, 6), (5, 5), (2, 300), (1, 1000), (1028, 2)])
def test_id_sums_add_up_the_class_id_steps(k, n):
    from waring.combinatorics import _id_sums

    steps = [[math.comb(n - i - 2 + t, n - i - 1) for t in range(k + 1)] for i in range(n - 1)]
    assert _id_sums(k, n).tolist() == np.cumsum([[0] * (k + 1)] + steps, axis=0).tolist()


def test_a_second_exponents_call_builds_no_table():
    from waring.combinatorics import _exponents, _id_sums

    ids = np.arange(sym_dimension(3, 10))
    _exponents(3, 10, ids)
    misses = _id_sums.cache_info().misses
    assert _exponents(3, 10, ids).tolist() == _exponents(3, 10, ids).tolist()
    assert _id_sums.cache_info().misses == misses


@pytest.mark.parametrize("k,n", [(1, 1), (7, 1), (5, 2), (3, 4), (2, 9), (4, 6)])
def test_class_id_and_exponents_invert_each_other(k, n):
    from waring.combinatorics import _class_id, _class_keys, _exponents

    exps = enumerate_exponents(k, n)
    ids = np.arange(len(exps))
    assert [tuple(p) for p in _exponents(k, n, ids).T.tolist()] == exps
    assert [_class_id(p) for p in exps] == ids.tolist()
    assert _class_keys(k, n, ids[-3:]) == exps[-3:]  # the memo path
    assert _class_keys(k, n, ids) == exps  # the array path


def test_class_ids_of_wide_and_tall_shapes_need_no_table():
    from waring.combinatorics import _class_id, _class_keys

    wide = (0,) * 150 + (1,) + (0,) * 148 + (1,)  # x151*x300 among the 45150 quadratics
    assert _class_keys(2, 300, np.array([_class_id(wide)])) == [wide]
    assert _class_id((1, 0) + (0,) * 298) == 0 and _class_id((0,) * 299 + (2,)) == math.comb(301, 2) - 1
    assert _class_id((10**6, 1)) == 1
    assert _class_keys(10**6 + 1, 2, np.array([1, 10**6 + 1])) == [(10**6, 1), (0, 10**6 + 1)]


def _cwr_exponents(k, n, ids):
    """Exponent tuples of the given positions of itertools.combinations_with_replacement order."""
    import itertools

    wanted, out = set(ids), {}
    for c, combo in enumerate(itertools.combinations_with_replacement(range(n), k)):
        if c in wanted:
            out[c] = tuple(np.bincount(np.array(combo, dtype=np.intp), minlength=n).tolist())
            if len(out) == len(wanted):
                break
    return [out[c] for c in ids]


@pytest.mark.parametrize(
    "k,n,ids",
    [
        (0, 5, None), (1, 1000, None), (3, 4, None), (3, 10, None), (3, 40, None), (4, 8, None),
        (5, 12, None), (2, 300, [*range(0, 45_150, 101), 45_149]), (1, 10**5, [0, 1, 12_345, 99_999]),
    ],
)
def test_exponents_walk_either_side_in_combinations_order(k, n, ids):
    # with more variables than degrees the walk goes over the k degrees, not the n - 1 variables
    from waring.combinatorics import _class_id, _exponents

    ids = list(range(sym_dimension(k, n))) if ids is None else ids
    exps = [tuple(p) for p in _exponents(k, n, np.array(ids)).T.tolist()]
    assert exps == _cwr_exponents(k, n, ids)
    assert [_class_id(p) for p in exps] == ids


def test_exponents_of_a_tall_binary_shape():
    from waring.combinatorics import _class_id, _exponents

    k = 10**6 + 1
    assert _exponents(k, 2, [0, 777_777]).T.tolist() == [[k, 0], [k - 777_777, 777_777]]
    assert _class_id((k - 777_777, 777_777)) == 777_777


def test_first_coeffs_of_a_wide_order_1_tensor_is_fast():
    import time

    from waring.tensor_core import SymmetricTensor

    s = SymmetricTensor(1, 10**6, {(0,) * 999_999 + (1,): 1.0})
    start = time.perf_counter()
    assert s.coeffs == {(0,) * 999_999 + (1,): 1.0}
    assert time.perf_counter() - start < 1.0  # one searchsorted per variable took 8 s


def test_coeffs_of_a_wide_tensor_leave_no_key_in_a_memo():
    from waring.combinatorics import _class_id, _class_key
    from waring.tensor_core import SymmetricTensor

    key = (0,) * 99_999 + (1,)
    wide = SymmetricTensor(1, 10**5, {key: 1.0})
    _class_key.cache_clear()
    assert wide.coeffs == {key: 1.0}
    assert _class_key.cache_info().currsize == 0 and not hasattr(_class_id, "cache_info")
    assert SymmetricTensor(3, 2, {(1, 2): 1.0}).coeffs == {(1, 2): 1.0}
    assert _class_key.cache_info().currsize == 1  # a binary form's key still comes from the memo


def test_every_functools_cache_in_waring_is_bounded():
    import importlib
    import pkgutil

    import waring

    caches = set()
    for info in pkgutil.iter_modules(waring.__path__):
        for value in vars(importlib.import_module(f"waring.{info.name}")).values():
            for obj in [value, *vars(value).values()] if isinstance(value, type) else [value]:
                if hasattr(obj, "cache_parameters"):
                    caches.add(obj)
    assert {"_class_count", "_class_key", "_id_sums", "_head_tail_blocks"} <= {c.__name__ for c in caches}
    assert [c.__name__ for c in caches if c.cache_parameters()["maxsize"] is None] == []


def _nonzero_factor_ids(k, n):
    """The factor table of _head_tail_blocks built from the (column, variable) pairs of a 2-D np.nonzero."""
    from waring.combinatorics import _class_count, _exponents

    heads, tails = (_exponents(d, n, np.arange(_class_count(d, n))) for d in (k // 2, k - k // 2))
    last = np.argmax(np.cumsum(heads, axis=0) == k // 2, axis=0)
    columns = np.concatenate([heads[:, np.argsort(last, kind="stable")], tails], axis=1)
    b, (c, i) = k - k // 2, np.nonzero(columns.T)
    factors = np.zeros((min(b, n), columns.shape[1]), dtype=np.min_scalar_type(n * (b + 1) - 1))
    factors[np.arange(len(c)) - np.searchsorted(c, c), c] = i * (b + 1) + columns[i, c]
    return factors


@pytest.mark.parametrize("k,n", [(1, 1), (1, 5), (3, 2), (2, 300), (5, 4), (6, 6), (8, 12), (9, 3)])
def test_head_tail_factor_ids_equal_the_two_dimensional_nonzero_construction(k, n):
    from waring.combinatorics import _head_tail_blocks

    factors, reference = _head_tail_blocks(k, n)[0], _nonzero_factor_ids(k, n)
    assert (factors.shape, factors.dtype) == (reference.shape, reference.dtype)
    assert factors.tobytes() == reference.tobytes()
