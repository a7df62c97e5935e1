"""Multi-index machinery underlying symmetric tensor storage.

An exponent vector p = (p1, ..., pn) of degree k = sum(p) labels one monomial class of an
order-k symmetric tensor over C^n; an index tuple j = (j1, ..., jk) over {1, ..., n} addresses
one dense entry, whose class is the multiplicity vector of its values.  Both are int tuples.

The per-(k, n) tables that tensor_core's kernels read take each decision by one rule: classes
are numbered by the graded-lex steps summed in _id_sums, a shape's class sizes fit a float
exactly when its largest (balanced) class does, and each table cache keeps the 8 latest shapes.
Public integer counts are checked against the signed 64-bit range, so no wraparound or infinity
reaches a kernel.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from functools import lru_cache

import numpy as np

from .errors import ArithmeticOverflowError, CapacityError, ValidationError, _integer

_INT64_MAX = 2**63 - 1


def as_exponent(p) -> tuple[int, ...]:
    """Validate and normalize an exponent vector to an int tuple, each entry by operator.index (a bool reads 0 or 1)."""
    try:
        exps = tuple(map(operator.index, p))
    except TypeError:
        raise ValidationError("exponent vector entries must be integers") from None
    if not exps:
        raise ValidationError("exponent vector must have at least one entry")
    if min(exps) < 0:
        raise ValidationError("exponent vector has a negative entry")
    return exps


def degree(p) -> int:
    """Total degree |p| of an exponent vector."""
    return sum(as_exponent(p))


def sym_dimension(k: int, n: int) -> int:
    """Dimension C(n+k-1, k) of the space of order-k symmetric tensors over C^n."""
    k, n = _integer(k, "order", 0), _integer(n, "dim", 1)
    # C(n+k-1, s) is at least n+k-1 once s >= 1 and at least C(68, 34) > 2**63 once s >= 34, so
    # neither case computes a binomial that may have millions of digits
    s = min(k, n - 1)
    if s and (s >= 34 or n + k - 1 > _INT64_MAX or math.comb(n + k - 1, s) > _INT64_MAX):
        raise ArithmeticOverflowError(f"sym_dimension{_arguments((k, n))} exceeds the signed 64-bit range")
    return math.comb(n + k - 1, s)


def _arguments(args: tuple[int, ...]) -> str:
    """args as a message prints them, unless one is past int-to-string's digit limit."""
    return f"{args}" if max(args).bit_length() < 2000 else " of an argument past 600 digits"


def multinomial(p) -> int:
    """Multinomial coefficient k!/(p1! ... pn!) for an exponent vector p.

    Equals the number of distinct index tuples in the class of p.  Computed
    as a product of binomials over prefix sums, which stays integral at
    every step.
    """
    exps = as_exponent(p)
    size = _class_size(exps)
    if size > _INT64_MAX:
        raise ArithmeticOverflowError(f"multinomial({exps}) = {size} exceeds the signed 64-bit range")
    return size


def _class_size(p: tuple[int, ...], what: str = "") -> int:
    """multinomial(p) without the int64 limit: exact, checked against the float range only.

    A product of binomials C(total, s), s = min(e, total - e).  Such a binomial is at least total
    once s >= 1 and at least C(1200, 600) > 1e359 once s >= 600, so both cases are past the float
    range before a binomial of possibly millions of digits is computed.
    """
    size, top = 1, sys.float_info.max
    for total, e in itertools.compress(zip(itertools.accumulate(p), p), p):  # a zero e's factor C(total, 0) is 1
        s = min(e, total - e)
        size = math.inf if s >= 600 or (s and total > top) else size * math.comb(total, s)
        if size > top:
            raise ArithmeticOverflowError(f"{what or f'class size multinomial{_arguments(p)}'} exceeds the float range")
    return size


def enumerate_exponents(k: int, n: int) -> list[tuple[int, ...]]:
    """All exponent vectors of degree k in n variables, in graded-lex order.

    Graded-lex on a fixed degree reduces to descending lexicographic order,
    so (2,0) precedes (1,1) precedes (0,2).
    """
    return [tuple(p) for p in _class_columns(_integer(k, "order", 0), _integer(n, "dim", 1)).T.tolist()]


def index_to_exponent(indices, n: int) -> tuple[int, ...]:
    """Multiplicity vector of a 1-based index tuple: p[i-1] = count of value i.

    Invariant under permutations of the tuple.
    """
    n = _integer(n, "dim", 1)
    counts = [0] * n
    for idx in indices:
        if (i := _integer(idx, "index", 1)) > n:
            raise ValidationError(f"index {i} outside 1..{n}")
        counts[i - 1] += 1
    return tuple(counts)


# A symmetric tensor stores at most CLASS_CAP classes (16 bytes each); the array
# kernels build exponent tables of at most TABLE_CAP entries (one byte each below order 256).
CLASS_CAP = 1 << 22
TABLE_CAP = 1 << 26
_SHAPES_CACHED = 8  # the latest shapes each per-(k, n) cache of arrays keeps; one can take 96 MiB


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=_SHAPES_CACHED)
def _class_count(k: int, n: int) -> int:
    m = sym_dimension(k, n)
    if m > CLASS_CAP:
        raise CapacityError(f"order {k} over C^{n} has {m} exponent classes, above the cap of {CLASS_CAP}")
    return m


@lru_cache(maxsize=_SHAPES_CACHED)
def _id_sums(k: int, n: int) -> np.ndarray:
    """Row s, entry t: C(n-1+t, t) - C(n-1-s+t, t), s = 0..n-1, the sum over x_1..x_s of the step of a variable that
    leaves degree t: C(n-i-2+t, n-i-1) for x_(i+1), the classes that leave less there.  The one table that numbers
    the classes; every entry is below the class count."""
    square = np.ones(sorted((n, k + 1)), dtype=np.int64)  # [a, t]: C(a+t, a), either way round
    for a in range(1, len(square)):  # one running sum per row of the shorter side, exact
        square[a] = np.cumsum(square[a - 1])
    square = square.T if n > k + 1 else square
    return _frozen(square[-1] - square[::-1])


def _exponents(k: int, n: int, ids) -> np.ndarray:
    """(n, len(ids)) exponent columns of graded-lex class ids, _class_ids inverted: (k - c, c) or (k,) with n <= 2, else
    one searchsorted per variable or, with fewer degrees, one per degree finding s_l of _dense_tables' sum."""
    out = np.zeros((n, len(ids)), dtype=np.min_scalar_type(k))
    rank, left = np.array(ids, dtype=np.int64), k
    if n <= 2:  # no table for an order that may be 10**12
        out[0] = k if n == 1 else k - rank
        out[1:] = rank
        return out
    sums = _id_sums(k, n)
    if n - 1 > k:
        cols = np.arange(len(rank))
        for t in range(k - 1, -1, -1):
            s = np.searchsorted(sums[:, t + 1], rank, side="right") - 1
            rank -= sums[s, t + 1] - sums[s, t]
            out[s, cols] += 1
        return out
    for i, steps in enumerate(np.diff(sums, axis=0)):
        t = np.searchsorted(steps, rank, side="right") - 1
        rank -= steps[t]
        out[i], left = left - t, t
    out[-1] = left
    return out


def _class_ids(k: int, n: int, keys) -> np.ndarray:
    """Graded-lex ids of exponent tuples of degree k >= 1, read in one pass of an iterable: p_n, or 0 with one variable,
    and else the sum over the nonzero p_i of _id_sums' S[i, t_i + p_i] - S[i, t_i], t_i the degree left after x_(i+1):
    the classes that leave less there come first.  Only the nonzero entries of the keys are kept."""
    if n <= 2:
        return np.array([p[-1] if n == 2 else 0 for p in keys], dtype=np.int64)
    sums, ids, rows, exps = _id_sums(k, n), [], [], []
    for p in itertools.chain(keys, [()]):  # the empty key, no exponent vector, ranks the last block
        rows.extend(itertools.compress(itertools.count(), p))
        exps.extend(filter(None, p))
        if len(rows) >= 1 << 14 or not p:  # whole keys ranked a block at a time, so the scratch stays small
            exps = np.array(exps, dtype=np.int64)
            left = -np.cumsum(exps) % k  # each key's entries add up to k, so a key ends where none is left
            ids.append(np.diff(np.cumsum(sums[rows, left + exps] - sums[rows, left])[left == 0], prepend=0))
            rows, exps = [], []
    return np.concatenate(ids)


def _check_table(k: int, n: int) -> None:
    if (entries := max(_class_count(k, n), k + 1) * n) > TABLE_CAP:  # k + 1 powers per coordinate count too
        raise CapacityError(f"order {k} over C^{n} needs {entries} table entries, above the cap of {TABLE_CAP}")


def _class_columns(k: int, n: int) -> np.ndarray:
    """(n, m) exponents of every class in graded-lex order: entry [i, c] is the exponent of x_(i+1)."""
    _check_table(k, n)
    return _frozen(_exponents(k, n, np.arange(_class_count(k, n))))


@lru_cache(maxsize=_SHAPES_CACHED)
def _head_tail_blocks(k: int, n: int) -> tuple[np.ndarray, int, list, np.ndarray]:
    """Each order-k class as a head, the first a = k // 2 of its sorted indices j_1 <= ... <= j_k, times a tail.

    Graded-lex is ascending lex order on these tuples, so a head's classes are consecutive, their tails those whose
    smallest index is at least j_a: a suffix of the tails.  The heads ending at one j form a block.  Returns the
    monomial factors of the heads, block by block, then of the tails: a column lists those not 1, ids i (b + 1) + e
    of x_(i+1)^e, e > 0, b = k - a, in ascending i, padded to min(b, n) with id 0, x_1^0; the head count; per block
    its head and tail columns, its slice of one buffer holding all blocks and its shape; and the buffer position of
    every class."""
    _check_table(k, n)
    heads, tails = (_exponents(d, n, np.arange(_class_count(d, n))) for d in (k // 2, k - k // 2))
    m_a, m_b = heads.shape[1], tails.shape[1]
    last = np.argmax(np.cumsum(heads, axis=0) == k // 2, axis=0)  # j_a of each head, 0 for the empty one
    order = np.argsort(last, kind="stable")
    bounds = np.searchsorted(last[order], np.arange(n + 1))  # block j holds the heads bounds[j]:bounds[j + 1]
    starts = np.searchsorted(np.argmax(tails != 0, axis=0), np.arange(n))  # suffix j starts at tail x_j^b
    lengths, sizes = m_b - starts[last], np.diff(bounds) * (m_b - starts)  # classes per head, per block
    rows = (np.cumsum(lengths[order]) - lengths[order])[np.argsort(order)]  # each head's classes in the buffer
    where = np.arange(lengths.sum()) + np.repeat(rows - (np.cumsum(lengths) - lengths), lengths)
    spans = zip(*(x.tolist() for x in (bounds[:-1], bounds[1:], starts, np.cumsum(sizes) - sizes, sizes)))
    blocks = [(slice(h0, h1), slice(m_a + s, None), slice(o, o + size), (h1 - h0, m_b - s))
              for h0, h1, s, o, size in spans if size]
    columns = np.concatenate([heads[:, order], tails], axis=1)
    b, (c, i) = k - k // 2, divmod(np.flatnonzero(columns.T), n)  # by column, then variable
    factors = np.zeros((min(b, n), m_a + m_b), dtype=np.min_scalar_type(n * (b + 1) - 1))
    factors[np.arange(len(c)) - np.searchsorted(c, c), c] = i * (b + 1) + columns[i, c]
    return _frozen(factors), m_a, blocks, _frozen(where.astype(np.min_scalar_type(len(where) - 1)))


@lru_cache(maxsize=_SHAPES_CACHED)
def _class_sizes(k: int, n: int) -> np.ndarray:
    """Every class size multinomial(p), correctly rounded: a product of binomials C(p1+...+pi, pi),
    in float64 while the largest, balanced class is at most 2**53 (so exactly) and in ints above."""
    columns = _class_columns(k, n)
    q, r = divmod(k, n)
    largest = _class_size((q + 1,) * r + (q,) * (n - r), f"the largest class size of order {k} over C^{n}")
    dtype = object if largest > 2**53 else np.float64
    sizes, total = np.ones(columns.shape[1], dtype=dtype), columns[0].astype(np.intp)
    if n > 1:  # C(p1, p1) = 1, so a single variable needs no table
        binom = np.tril(np.ones((k + 1, k + 1), dtype=dtype))  # [s, e]: C(s, e), none past the largest class
        for e in range(1, k + 1):  # Pascal's rule summed down column e: C(s, e) = sum of C(s', e - 1), s' < s
            binom[e:, e] = np.cumsum(binom[e - 1:-1, e - 1])
        for col in columns[1:]:
            total += col
            sizes *= binom[total, col]
    return _frozen(sizes.astype(np.float64))


@lru_cache(maxsize=_SHAPES_CACHED)
def _dense_tables(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Class id of every dense entry, row-major, and the flat index of each class's canonical entry.

    The id is _class_ids' sum of S[i, t_i + p_i] - S[i, t_i]; the p_i sorted 0-based indices s_l equal to i are
    consecutive, so it splits into one rise S[s_l, k - l] - S[s_l, k - l - 1] per index, l = 0..k-1.  Built in
    blocks so the scratch stays small; a class's canonical entry is the one already sorted."""
    m, total = _class_count(k, n), n**k
    rises = np.diff(_id_sums(k, n), axis=1)
    ids, canon = np.empty(total, dtype=np.min_scalar_type(m - 1)), np.empty(m, dtype=np.intp)
    for start in range(0, total, 1 << 14):
        flat = np.arange(start, min(start + (1 << 14), total))
        idx = np.array(np.unravel_index(flat, (n,) * k))
        ids[flat] = cls = rises[np.sort(idx, axis=0), np.arange(k - 1, -1, -1)[:, None]].sum(axis=0)
        sorted_ = (np.diff(idx, axis=0) >= 0).all(axis=0)
        canon[cls[sorted_]] = flat[sorted_]
    return _frozen(ids), _frozen(canon)
