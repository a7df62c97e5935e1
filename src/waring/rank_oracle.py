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
from .errors import NotApplicableError, UnsupportedOrderError, ValidationError

EXCEPTIONAL_PAIRS = frozenset({(3, 5), (4, 3), (4, 4), (4, 5)})


def _validate_pair(k: int, n: int) -> None:
    if k <= 2:
        raise UnsupportedOrderError(
            f"generic-rank formulas need order k >= 3, got k = {k}"
        )
    if n < 2:
        raise ValidationError(f"generic-rank formulas need dimension n >= 2, got n = {n}")


def is_exceptional(k: int, n: int) -> bool:
    """True on the four pairs where the generic rank exceeds the naive count."""
    _validate_pair(k, n)
    return (k, n) in EXCEPTIONAL_PAIRS


def generic_symmetric_rank(k: int, n: int) -> int:
    """ceil(C(n+k-1, k) / n), plus one on the four exceptional pairs."""
    return symmetric_rank_bounds(k, n)[0] + is_exceptional(k, n)


def symmetric_rank_bounds(k: int, n: int) -> tuple[int, int]:
    """(ceil(C(n+k-1, k)/n), C(n+k-2, k-1)); the generic rank lies between."""
    _validate_pair(k, n)
    lower = -(-sym_dimension(k, n) // n)
    upper = sym_dimension(k - 1, n)
    return lower, upper


def fiber_dimension(k: int, n: int) -> int:
    """Free parameters of a generic decomposition: n * rank - C(n+k-1, k)."""
    _validate_pair(k, n)
    return n * generic_symmetric_rank(k, n) - sym_dimension(k, n)


def finitely_many_generic_decompositions(k: int, n: int) -> bool:
    """True iff n divides C(n+k-1, k); undefined on the exceptional pairs."""
    _validate_pair(k, n)
    if (k, n) in EXCEPTIONAL_PAIRS:
        raise NotApplicableError(
            f"finiteness criterion is not applicable on the exceptional pair ({k}, {n})"
        )
    return sym_dimension(k, n) % n == 0


def max_symmetric_rank_binary(k: int) -> int:
    """Maximal symmetric rank over C^2 at order k: exactly k."""
    if k < 1:
        raise ValidationError("order k must be >= 1")
    return k


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
    """Assemble the full report; finiteness is None on the exceptional pairs."""
    lower, upper = symmetric_rank_bounds(k, n)
    exceptional = is_exceptional(k, n)
    return RankReport(
        order=k,
        dim=n,
        generic_rank=generic_symmetric_rank(k, n),
        is_exception=exceptional,
        lower_bound=lower,
        upper_bound=upper,
        fiber_dim=fiber_dimension(k, n),
        finitely_many_decompositions=(
            None if exceptional else finitely_many_generic_decompositions(k, n)
        ),
    )


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
