"""Multi-index machinery underlying symmetric tensor storage.

An exponent vector p = (p1, ..., pn) of degree k = sum(p) labels one
monomial class of an order-k symmetric tensor over C^n.  An index tuple
j = (j1, ..., jk) with entries in {1, ..., n} addresses one dense entry;
its class is the multiplicity vector of the values it contains.  Both are
represented as plain int tuples; the array kernels of tensor_core read the
per-(k, n) index tables built and cached here.

Public integer counts are validated against the signed 64-bit range and the
class sizes that storage and quantics use against the float range, so that
a silent wraparound or an infinity can never corrupt downstream bilinear forms.
"""

from __future__ import annotations

import itertools
import math
import sys
from functools import lru_cache

import numpy as np

from .errors import ArithmeticOverflowError, CapacityError, ValidationError

_INT64_MAX = 2**63 - 1


def _check_int64(value: int, what: str) -> int:
    if value > _INT64_MAX:
        raise ArithmeticOverflowError(f"{what} = {value} exceeds the signed 64-bit range")
    return value


def as_exponent(p) -> tuple[int, ...]:
    """Validate and normalize an exponent vector to an int tuple."""
    exps = tuple(int(e) for e in p)
    if not exps:
        raise ValidationError("exponent vector must have at least one entry")
    if any(e < 0 for e in exps):
        raise ValidationError(f"exponent vector {exps} has a negative entry")
    return exps


def degree(p) -> int:
    """Total degree |p| of an exponent vector."""
    return sum(as_exponent(p))


def sym_dimension(k: int, n: int) -> int:
    """Dimension C(n+k-1, k) of the space of order-k symmetric tensors over C^n."""
    if k < 0:
        raise ValidationError("order k must be >= 0")
    if n < 1:
        raise ValidationError("dimension n must be >= 1")
    return _check_int64(math.comb(n + k - 1, k), f"sym_dimension({k}, {n})")


def multinomial(p) -> int:
    """Multinomial coefficient k!/(p1! ... pn!) for an exponent vector p.

    Equals the number of distinct index tuples in the class of p.  Computed
    as a product of binomials over prefix sums, which stays integral at
    every step.
    """
    exps = as_exponent(p)
    return _check_int64(_class_size(exps), f"multinomial({exps})")


def _class_size(p: tuple[int, ...]) -> int:
    """multinomial(p) without the int64 limit: exact, checked against the float range only."""
    size = math.prod(math.comb(total, e) for total, e in zip(itertools.accumulate(p), p))
    if size > sys.float_info.max:
        raise ArithmeticOverflowError(f"class size multinomial({p}) exceeds the float range")
    return size


def enumerate_exponents(k: int, n: int) -> list[tuple[int, ...]]:
    """All exponent vectors of degree k in n variables, in graded-lex order.

    Graded-lex on a fixed degree reduces to descending lexicographic order,
    so (2,0) precedes (1,1) precedes (0,2).
    """
    return [tuple(p) for p in _class_columns(k, n).T.tolist()]


def index_to_exponent(indices, n: int) -> tuple[int, ...]:
    """Multiplicity vector of a 1-based index tuple: p[i-1] = count of value i.

    Invariant under permutations of the tuple.
    """
    if n < 1:
        raise ValidationError("dimension n must be >= 1")
    counts = [0] * n
    for idx in indices:
        i = int(idx)
        if not 1 <= i <= n:
            raise ValidationError(f"index {i} outside 1..{n}")
        counts[i - 1] += 1
    return tuple(counts)


# A symmetric tensor stores at most CLASS_CAP classes (16 bytes each); the array
# kernels build exponent tables of at most TABLE_CAP entries (one byte each below order 256).
CLASS_CAP = 1 << 22
TABLE_CAP = 1 << 26


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def _class_count(k: int, n: int) -> int:
    m = sym_dimension(k, n)
    if m > CLASS_CAP:
        raise CapacityError(f"order {k} over C^{n} has {m} exponent classes, above the cap of {CLASS_CAP}")
    return m


@lru_cache(maxsize=1024)
def _class_id(p: tuple[int, ...]) -> int:
    """Graded-lex position of an exponent vector p, without a table: where p leaves degree t
    after x_(i+1), the C(n-i-2+t, n-i-1) classes that leave less come first."""
    n, t, c = len(p), sum(p), 0
    for i, e in enumerate(p[:-1]):
        t -= e
        c += math.comb(n - i - 2 + t, n - i - 1)
    return c


@lru_cache(maxsize=None)
def _id_steps(k: int, n: int) -> list[np.ndarray]:
    """Row i, entry t: C(n-i-2+t, n-i-1), what _class_id adds for x_(i+1), below the class count."""
    cum, rows = np.ones(k + 1, dtype=np.int64), []
    for _ in range(n - 1):
        cum = np.cumsum(cum)  # applied a times to ones: C(a+t, t), exact
        rows.append(np.concatenate(([0], cum[:-1])))
    return rows[::-1]


def _exponents(k: int, n: int, ids) -> np.ndarray:
    """(n, len(ids)) exponent columns of the given graded-lex class ids: _class_id inverted."""
    out = np.empty((n, len(ids)), dtype=np.min_scalar_type(k))
    rank, left = np.array(ids, dtype=np.int64), k
    for i, steps in enumerate(_id_steps(k, n)):
        t = np.searchsorted(steps, rank, side="right") - 1
        rank -= steps[t]
        out[i], left = left - t, t
    out[-1] = left
    return out


def _class_keys(k: int, n: int, ids: np.ndarray) -> list[tuple[int, ...]]:
    """Exponent tuples of graded-lex class ids; a few at a time come from a memo, not array calls."""
    if len(ids) <= 8:
        return [_class_key(k, n, c) for c in ids.tolist()]
    return [tuple(p) for p in _exponents(k, n, ids).T.tolist()]


@lru_cache(maxsize=1024)
def _class_key(k: int, n: int, c: int) -> tuple[int, ...]:
    return tuple(_exponents(k, n, [c])[:, 0].tolist())


@lru_cache(maxsize=None)
def _class_columns(k: int, n: int) -> np.ndarray:
    """(n, m) exponents of every class in graded-lex order: entry [i, c] is the exponent of x_(i+1)."""
    m = _class_count(k, n)
    if m * n > TABLE_CAP:
        raise CapacityError(f"order {k} over C^{n} needs {m * n} table entries, above the cap of {TABLE_CAP}")
    return _frozen(_exponents(k, n, np.arange(m)))


@lru_cache(maxsize=None)
def _class_sizes(k: int, n: int) -> np.ndarray:
    """Every class size multinomial(p), correctly rounded: a product of binomials C(p1+...+pi, pi),
    in float64 while every size is below 2**53 (so exactly) and in Python integers above."""
    q, r = divmod(k, n)
    largest = math.lgamma(k + 1) - r * math.lgamma(q + 2) - (n - r) * math.lgamma(q + 1)
    if largest > 709:  # the balanced class; the float maximum is e**709.78
        raise ArithmeticOverflowError(f"class sizes of order {k} over C^{n} exceed the float range")
    dtype = object if largest > 36 else np.float64  # e**36 < 2**53
    columns = _class_columns(k, n)
    sizes, total = np.ones(columns.shape[1], dtype=dtype), columns[0].astype(np.intp)
    if n > 1:  # C(p1, p1) = 1, so a single variable needs no table
        binom = np.array([[math.comb(s, e) for e in range(k + 1)] for s in range(k + 1)], dtype=dtype)
        for col in columns[1:]:
            total += col
            sizes *= binom[total, col]
    return _frozen(sizes.astype(np.float64))


@lru_cache(maxsize=8)
def _dense_tables(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Class id of every dense entry, row-major, and the flat index of each class's canonical entry.

    A sorted index tuple i_1 <= ... <= i_k shifted to c_j = i_j + j is a k-subset of n+k-1 values;
    its lexicographic rank m - 1 - sum_j C(n+k-2-c_j, k-j) is the class id.  Built in blocks of
    entries so the scratch stays small; a class's canonical entry is the one already sorted."""
    m, total = _class_count(k, n), n**k
    binom = np.array([[math.comb(s, j) for j in range(k + 1)] for s in range(n + k - 1)], dtype=np.int64)
    ids, canon = np.empty(total, dtype=np.min_scalar_type(m - 1)), np.empty(m, dtype=np.intp)
    j = np.arange(k)[:, None]
    for start in range(0, total, 1 << 14):
        flat = np.arange(start, min(start + (1 << 14), total))
        idx = np.array(np.unravel_index(flat, (n,) * k))
        ids[flat] = cls = m - 1 - binom[n + k - 2 - j - np.sort(idx, axis=0), k - j].sum(axis=0)
        sorted_ = (np.diff(idx, axis=0) >= 0).all(axis=0)
        canon[cls[sorted_]] = flat[sorted_]
    return _frozen(ids), _frozen(canon)
