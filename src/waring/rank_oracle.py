"""Closed-form answers about generic symmetric rank.

The Alexander-Hirschowitz theorem gives the generic symmetric rank of
order-k tensors over C^n for k > 2: ceil(C(n+k-1, k) / n), plus one on
exactly four exceptional pairs.  This module exposes that formula, the
classical lower and upper bounds, the dimension of the generic
decomposition fiber, the finiteness criterion for generic decompositions,
and the binary maximal rank.

k = 2 is rejected rather than special-cased: the matrix answer (generic
rank n) follows different formulas and would silently mislead here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinatorics import sym_dimension
from .errors import NotApplicableError, UnsupportedOrderError, _integer

EXCEPTIONAL_PAIRS = frozenset({(3, 5), (4, 3), (4, 4), (4, 5)})


def _validate_pair(k: int, n: int) -> tuple[int, int]:
    """(k, n) as ints; an order of 1 or 2 is one the formulas do not cover, not a bad integer."""
    k = _integer(k, "order", 1)
    if k <= 2:
        raise UnsupportedOrderError(f"generic-rank formulas need order k >= 3, got k = {k}")
    return k, _integer(n, "dim", 2)


def is_exceptional(k: int, n: int) -> bool:
    """True on the four pairs where the generic rank exceeds the naive count."""
    return _validate_pair(k, n) in EXCEPTIONAL_PAIRS


@dataclass(frozen=True)
class RankReport:
    """Everything the closed forms say about one (order, dimension) pair."""

    order: int
    dim: int
    generic_rank: int
    is_exception: bool
    lower_bound: int
    upper_bound: int
    fiber_dim: int
    finitely_many_decompositions: bool | None


def rank_report(k: int, n: int) -> RankReport:
    """Every closed form, each stated once; finiteness is None on the exceptional pairs."""
    k, n = _validate_pair(k, n)
    exceptional = (k, n) in EXCEPTIONAL_PAIRS
    size, upper = sym_dimension(k, n), sym_dimension(k - 1, n)
    lower = -(-size // n)
    rank = lower + exceptional
    return RankReport(
        order=k, dim=n, generic_rank=rank, is_exception=exceptional, lower_bound=lower,
        upper_bound=upper, fiber_dim=n * rank - size,
        finitely_many_decompositions=None if exceptional else size % n == 0,
    )


def generic_symmetric_rank(k: int, n: int) -> int:
    """ceil(C(n+k-1, k) / n), plus one on the four exceptional pairs."""
    return rank_report(k, n).generic_rank


def symmetric_rank_bounds(k: int, n: int) -> tuple[int, int]:
    """(ceil(C(n+k-1, k)/n), C(n+k-2, k-1)); the generic rank lies between."""
    report = rank_report(k, n)
    return report.lower_bound, report.upper_bound


def fiber_dimension(k: int, n: int) -> int:
    """Free parameters of a generic decomposition: n * rank - C(n+k-1, k)."""
    return rank_report(k, n).fiber_dim


def finitely_many_generic_decompositions(k: int, n: int) -> bool:
    """True iff n divides C(n+k-1, k); undefined on the exceptional pairs."""
    finite = rank_report(k, n).finitely_many_decompositions
    if finite is None:
        raise NotApplicableError(f"finiteness criterion is not applicable on the exceptional pair ({k}, {n})")
    return finite


def max_symmetric_rank_binary(k: int) -> int:
    """Maximal symmetric rank over C^2 at order k: exactly k."""
    return _integer(k, "order", 1)


def _grid_table(cell, k_range, n_range) -> tuple[list[list[int]], list[list[bool]]]:
    """cell(k, n) over a (k, n) grid plus the exceptional-cell mask."""
    ks, ns = list(k_range), list(n_range)
    values = [[cell(k, n) for n in ns] for k in ks]
    mask = [[is_exceptional(k, n) for n in ns] for k in ks]
    return values, mask


def generic_rank_table(k_range, n_range) -> tuple[list[list[int]], list[list[bool]]]:
    """Generic ranks over a (k, n) grid plus the exceptional-cell mask."""
    return _grid_table(generic_symmetric_rank, k_range, n_range)


def fiber_table(k_range, n_range) -> tuple[list[list[int]], list[list[bool]]]:
    """Fiber dimensions over a (k, n) grid plus the exceptional-cell mask."""
    return _grid_table(fiber_dimension, k_range, n_range)
