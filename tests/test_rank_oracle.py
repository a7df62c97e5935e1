from __future__ import annotations

import pytest

from waring.combinatorics import sym_dimension
from waring.errors import NotApplicableError, UnsupportedOrderError, ValidationError
from waring.rank_oracle import (
    EXCEPTIONAL_PAIRS,
    fiber_dimension,
    fiber_table,
    finitely_many_generic_decompositions,
    generic_rank_table,
    generic_symmetric_rank,
    is_exceptional,
    max_symmetric_rank_binary,
    rank_report,
    symmetric_rank_bounds,
)

KS = range(3, 7)
NS = range(2, 11)

# generic symmetric rank over C, k = 3..6 down, n = 2..10 across
GENERIC_RANK = [
    [2, 4, 5, 8, 10, 12, 15, 19, 22],
    [3, 6, 10, 15, 21, 30, 42, 55, 72],
    [3, 7, 14, 26, 42, 66, 99, 143, 201],
    [4, 10, 21, 42, 77, 132, 215, 334, 501],
]

# dimension of the fiber of generic decompositions, same grid
FIBER = [
    [0, 2, 0, 5, 4, 0, 0, 6, 0],
    [1, 3, 5, 5, 0, 0, 6, 0, 5],
    [0, 0, 0, 4, 0, 0, 0, 0, 8],
    [1, 2, 0, 0, 0, 0, 4, 3, 5],
]

EXPECTED_EXCEPTIONS = {(3, 5), (4, 3), (4, 4), (4, 5)}


def test_exceptional_pairs():
    assert EXCEPTIONAL_PAIRS == frozenset(EXPECTED_EXCEPTIONS)
    for k, n in EXPECTED_EXCEPTIONS:
        assert is_exceptional(k, n)
    assert not is_exceptional(3, 3)
    assert not is_exceptional(5, 5)


def test_generic_rank_grid_matches():
    for i, k in enumerate(KS):
        for j, n in enumerate(NS):
            assert generic_symmetric_rank(k, n) == GENERIC_RANK[i][j], (k, n)


def test_fiber_grid_matches():
    for i, k in enumerate(KS):
        for j, n in enumerate(NS):
            assert fiber_dimension(k, n) == FIBER[i][j], (k, n)


def test_exceptions_exceed_the_ceiling_by_one():
    for k, n in EXPECTED_EXCEPTIONS:
        dim = sym_dimension(k, n)
        assert generic_symmetric_rank(k, n) == -(-dim // n) + 1


def test_non_exceptions_equal_the_ceiling():
    for k in KS:
        for n in NS:
            if (k, n) in EXPECTED_EXCEPTIONS:
                continue
            dim = sym_dimension(k, n)
            assert generic_symmetric_rank(k, n) == -(-dim // n)


def test_bounds_bracket_the_generic_rank():
    for k in KS:
        for n in NS:
            lo, hi = symmetric_rank_bounds(k, n)
            assert lo <= generic_symmetric_rank(k, n) <= hi
            assert hi == sym_dimension(k - 1, n)


def test_fiber_consistent_with_rank():
    for k in KS:
        for n in NS:
            expected = n * generic_symmetric_rank(k, n) - sym_dimension(k, n)
            assert fiber_dimension(k, n) == expected


def test_finiteness_matches_divisibility():
    assert finitely_many_generic_decompositions(3, 2)  # dim 4, n 2
    assert not finitely_many_generic_decompositions(3, 3)  # dim 10, n 3
    assert finitely_many_generic_decompositions(5, 2)
    for k, n in EXPECTED_EXCEPTIONS:
        with pytest.raises(NotApplicableError):
            finitely_many_generic_decompositions(k, n)


def test_low_order_unsupported():
    with pytest.raises(UnsupportedOrderError):
        generic_symmetric_rank(2, 3)
    with pytest.raises(UnsupportedOrderError):
        generic_symmetric_rank(1, 3)
    with pytest.raises(UnsupportedOrderError):  # the order's verdict comes before the dimension's
        rank_report(2, 1)


def test_dimension_one_rejected():
    with pytest.raises(ValidationError):
        generic_symmetric_rank(3, 1)


def test_max_symmetric_rank_binary():
    assert max_symmetric_rank_binary(3) == 3
    assert max_symmetric_rank_binary(5) == 5
    with pytest.raises(ValidationError):
        max_symmetric_rank_binary(0)


def test_table_builders_match_grids():
    values, mask = generic_rank_table(KS, NS)
    assert values == GENERIC_RANK
    fib, fib_mask = fiber_table(KS, NS)
    assert fib == FIBER
    marked = {(k, n) for i, k in enumerate(KS) for j, n in enumerate(NS) if mask[i][j]}
    assert marked == EXPECTED_EXCEPTIONS
    assert fib_mask == mask


def test_rank_report_fields():
    rep = rank_report(4, 3)
    assert rep.order == 4 and rep.dim == 3
    assert rep.generic_rank == 6
    assert rep.is_exception
    assert rep.lower_bound == 5 and rep.upper_bound == 10
    assert rep.fiber_dim == 3
    assert rep.finitely_many_decompositions is None

    rep = rank_report(3, 3)
    assert rep.generic_rank == 4
    assert not rep.is_exception
    assert rep.finitely_many_decompositions is False
