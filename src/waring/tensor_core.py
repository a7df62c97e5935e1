"""Dense and compressed symmetric tensor representations and operations.

A DenseTensor holds all n^k complex entries of a cubical k-way array,
row-major with the first index slowest.  A SymmetricTensor holds one complex
value per exponent class p: the common entry a_j shared by every index tuple
j whose multiplicity vector is p.  The compressed form is canonical; dense
arrays are materialized on demand under a configurable entry cap.

One read-only graded-lex class vector is shared with a Quantic of the same data;
class positions come from exponents by arithmetic, kernels run over exponent tables
cached per (k, n), and only the dense conversions map every dense entry to its class
(1-2 bytes per entry, 8 shapes cached).  Both containers are immutable and reject non-finite values.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .combinatorics import (
    _class_columns, _class_count, _class_id, _class_keys, _class_sizes, _dense_tables, _frozen, as_exponent,
)
from .errors import CapacityError, SymmetryError, ValidationError

DENSE_ENTRY_CAP = 10_000_000
DEFAULT_SYMMETRY_TOL = 1e-12
DEFAULT_RANK_TOL = 1e-10


def _frozen_finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} must be finite")
    return _frozen(arr)


class DenseTensor:
    """Cubical order-k dim-n complex array."""

    __slots__ = ("order", "dim", "array")

    def __init__(self, array):
        arr = np.array(array, dtype=np.complex128)
        if arr.ndim < 1:
            raise ValidationError("a dense tensor needs order >= 1")
        n = arr.shape[0]
        if n < 1:
            raise ValidationError("a dense tensor needs dimension >= 1")
        if any(s != n for s in arr.shape):
            raise ValidationError(f"non-cubical shape {arr.shape}")
        self.order = arr.ndim
        self.dim = n
        self.array = _frozen_finite(arr, "dense tensor entries")

    def __repr__(self):
        return f"DenseTensor(order={self.order}, dim={self.dim})"


class SymmetricTensor:
    """Order-k dim-n symmetric tensor keyed by exponent class.

    `coeffs` maps each nonzero class to its entry in graded-lex order; absent
    classes are zero and exact zeros are pruned.
    """

    __slots__ = ("order", "dim", "_vector")

    def __init__(self, order: int, dim: int, coeffs):
        if order < 1:
            raise ValidationError("a symmetric tensor needs order >= 1")
        if dim < 1:
            raise ValidationError("a symmetric tensor needs dimension >= 1")
        vec = np.zeros(_class_count(order, dim), dtype=np.complex128)
        for p, v in dict(coeffs).items():
            key = as_exponent(p)
            if len(key) != dim:
                raise ValidationError(f"exponent {key} has {len(key)} entries, expected {dim}")
            if sum(key) != order:
                raise ValidationError(f"exponent {key} has degree {sum(key)}, expected {order}")
            value = complex(v)
            if value != 0:
                vec[_class_id(key)] = value
        self.order, self.dim, self._vector = order, dim, _frozen_finite(vec, "coefficients")

    @classmethod
    def _of(cls, order: int, dim: int, vector: np.ndarray) -> SymmetricTensor:
        """Take over a fresh class vector the library computed for this shape; no key validation."""
        vector[vector == 0] = 0  # a pruned class reads +0, never -0
        self = object.__new__(cls)
        self.order, self.dim, self._vector = order, dim, _frozen_finite(vector, "coefficients")
        return self

    @property
    def coeffs(self) -> dict[tuple[int, ...], complex]:
        nz = np.flatnonzero(self._vector)
        return dict(zip(_class_keys(self.order, self.dim, nz), self._vector[nz].tolist()))

    def __repr__(self):
        return f"SymmetricTensor(order={self.order}, dim={self.dim}, classes={len(self.coeffs)})"


def _worst_asymmetry(A: DenseTensor) -> tuple[float, tuple, tuple, float]:
    """Largest |a_j - a_canonical(j)|, its first row-major location, and the max entry magnitude."""
    flat = A.array.reshape(-1)
    ids, canon = _dense_tables(A.order, A.dim)
    dev = np.abs(flat - flat[canon[ids]])
    j = int(np.argmax(dev))
    idx = tuple(int(i) for i in np.unravel_index(j, A.array.shape))
    return dev[j], idx, tuple(sorted(idx)), float(np.abs(flat).max())


def is_symmetric(A: DenseTensor, tol: float = DEFAULT_SYMMETRY_TOL) -> bool:
    """True iff every entry matches its canonical (sorted-index) representative.

    The deviation is compared against tol * (1 + max entry magnitude).
    """
    if tol < 0:
        raise ValidationError("tolerance must be >= 0")
    worst, _, _, scale = _worst_asymmetry(A)
    return worst <= tol * (1.0 + scale)


def symmetrize(A: DenseTensor) -> DenseTensor:
    """Average each entry over all permutations of its index tuple.

    Computed by class averaging over canonical index multisets rather than
    an explicit k! permutation sum; the two agree because every permutation
    class member appears the same number of times.  The class sums add the
    entries in row-major order.
    """
    flat = A.array.reshape(-1)
    ids, canon = _dense_tables(A.order, A.dim)
    sums = np.empty(len(canon), dtype=np.complex128)
    sums.real = np.bincount(ids, weights=flat.real, minlength=len(canon))
    sums.imag = np.bincount(ids, weights=flat.imag, minlength=len(canon))
    means = sums / _class_sizes(A.order, A.dim)
    return DenseTensor(means[ids].reshape(A.array.shape))


def compress(A: DenseTensor, tol: float = DEFAULT_SYMMETRY_TOL) -> SymmetricTensor:
    """Store one value per exponent class of a symmetric dense tensor.

    The stored value is the entry at the canonical index tuple, so the
    round trip through decompress is exact for exactly symmetric input.
    """
    worst, idx, canon, scale = _worst_asymmetry(A)
    if worst > tol * (1.0 + scale):
        raise SymmetryError(
            f"tensor is not symmetric: |a{idx} - a{canon}| = {worst:.3e} "
            f"exceeds {tol:.1e} * (1 + {scale:.3e})",
            index=idx,
            canonical=canon,
        )
    canon = _dense_tables(A.order, A.dim)[1]
    return SymmetricTensor._of(A.order, A.dim, A.array.reshape(-1)[canon])


def decompress(S: SymmetricTensor, max_entries: int = DENSE_ENTRY_CAP) -> DenseTensor:
    """Materialize the full n^k dense array of a compressed symmetric tensor."""
    total = S.dim**S.order
    if total > max_entries:
        raise CapacityError(
            f"dense form needs {total} entries, above the cap of {max_entries}"
        )
    return DenseTensor(S._vector[_dense_tables(S.order, S.dim)[0]].reshape((S.dim,) * S.order))


def _monomials(points: np.ndarray, k: int, columns: np.ndarray) -> np.ndarray:
    """Row r, column c: prod_i points[r, i] ** p_i for the order-k exponent column c."""
    powers = points[:, :, None] ** np.arange(k + 1)
    out = powers[:, 0, columns[0]]
    for i in range(1, len(columns)):
        out *= powers[:, i, columns[i]]
    return out


def outer_power(v, k: int) -> SymmetricTensor:
    """k-fold symmetric outer power of a vector: coeffs[p] = prod_i v_i^p_i."""
    if k < 1:
        raise ValidationError("outer power needs order k >= 1")
    vec = np.array([complex(c) for c in v], dtype=np.complex128)
    if len(vec) < 1:
        raise ValidationError("outer power needs a nonempty vector")
    with np.errstate(over="ignore", invalid="ignore"):  # SymmetricTensor._of rejects non-finite powers
        powers = _monomials(vec[None, :], k, _class_columns(k, len(vec)))[0]
    return SymmetricTensor._of(k, len(vec), powers)


def contract_mode1(A: DenseTensor, B: DenseTensor):
    """Contract the first modes: c[i2.., j2..] = sum_a a[a, i2..] b[a, j2..].

    Two vectors contract to a plain complex scalar.
    """
    if A.dim != B.dim:
        raise ValidationError(f"first-mode dimensions differ: {A.dim} vs {B.dim}")
    out = np.tensordot(A.array, B.array, axes=([0], [0]))
    if out.ndim == 0:
        return complex(out)
    return DenseTensor(out)


def multilinear_transform(A: DenseTensor, maps) -> DenseTensor:
    """Apply one matrix per mode: a'[p..] = sum L1[p,i] L2[q,j] ... a[ij..].

    Every map must have column count equal to the tensor dimension and all
    maps must share one row count, since the result stays cubical.
    """
    mats = [np.asarray(M, dtype=np.complex128) for M in maps]
    if len(mats) != A.order:
        raise ValidationError(f"need {A.order} maps for an order-{A.order} tensor, got {len(mats)}")
    for mode, M in enumerate(mats):
        if M.ndim != 2:
            raise ValidationError(f"map for mode {mode} is not a matrix")
        if M.shape[1] != A.dim:
            raise ValidationError(
                f"map for mode {mode} has {M.shape[1]} columns, expected {A.dim}"
            )
    rows = {M.shape[0] for M in mats}
    if len(rows) != 1:
        raise ValidationError("maps must share one row count so the result stays cubical")
    arr = A.array
    for mode, M in enumerate(mats):
        arr = np.moveaxis(np.tensordot(M, arr, axes=([1], [mode])), 0, mode)
    return DenseTensor(arr)


def numerical_rank(matrix, tol: float = DEFAULT_RANK_TOL) -> int:
    """Singular values above tol times the largest column norm."""
    m = np.atleast_2d(np.asarray(matrix, dtype=np.complex128))
    if m.size == 0:
        return 0
    col_scale = float(np.linalg.norm(m, axis=0).max())
    if col_scale == 0.0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(s > tol * col_scale))


def coefficient_vector(S: SymmetricTensor, scaled: bool = True) -> np.ndarray:
    """Graded-lex coefficient vector of a symmetric tensor, as a new array.

    With scaled=True each class entry is multiplied by sqrt(multinomial(p)),
    so Euclidean inner products of these vectors equal dense Frobenius inner
    products.
    """
    if not scaled:
        return S._vector.copy()
    return S._vector * np.sqrt(_class_sizes(S.order, S.dim))


def power_span_rank(vectors, k: int, tol: float = DEFAULT_RANK_TOL) -> int:
    """Numerical rank of the span of the outer powers v_i^xk.

    Rows are sqrt(multinomial)-scaled compressed coefficient vectors, so the
    rank decision matches dense Frobenius geometry.
    """
    vecs = list(vectors)
    if not vecs:
        raise ValidationError("power_span_rank needs at least one vector")
    if any(len(v) != len(vecs[0]) for v in vecs):
        raise ValidationError("vectors must share one dimension")
    return numerical_rank(np.array([coefficient_vector(outer_power(v, k)) for v in vecs]), tol)


def mode1_unfolding(A: DenseTensor) -> np.ndarray:
    """Flatten a dense tensor to the n x n^(k-1) matrix of its first mode."""
    return np.reshape(A.array, (A.dim, -1))


def _class_norm(order: int, dim: int, vec: np.ndarray) -> float:
    """sqrt(sum multinomial(p) |v_p|^2), summed at a power-of-two scale so no square overflows."""
    w = np.abs(vec)
    top = float(w.max())
    if top == 0.0 or not math.isfinite(top):
        return top
    scale = math.ldexp(1.0, math.frexp(top)[1] - 1)  # top / scale lies in [1, 2)
    w /= scale
    return scale * math.sqrt(_class_sizes(order, dim) @ (w * w))


def frobenius_norm(A: SymmetricTensor) -> float:
    """Dense-array Euclidean norm computed in compressed form."""
    return _class_norm(A.order, A.dim, A._vector)


def frobenius_distance(A: SymmetricTensor, B: SymmetricTensor) -> float:
    """Dense-array Euclidean distance computed in compressed form."""
    if (A.order, A.dim) != (B.order, B.dim):
        raise ValidationError(
            f"shape mismatch: ({A.order}, {A.dim}) vs ({B.order}, {B.dim})"
        )
    with np.errstate(over="ignore"):  # an overflowing difference gives an infinite distance
        diff = A._vector - B._vector
    return _class_norm(A.order, A.dim, diff)


def _complex_pair(value: complex) -> list[float]:
    c = complex(value)
    return [c.real, c.imag]


def tensor_to_json_obj(x) -> dict:
    """JSON object for a DenseTensor (format dense) or SymmetricTensor (format sym)."""
    if isinstance(x, DenseTensor):
        flat = x.array.reshape(-1)
        return {
            "order": x.order,
            "dim": x.dim,
            "format": "dense",
            "entries": [_complex_pair(v) for v in flat],
        }
    if isinstance(x, SymmetricTensor):
        return {
            "order": x.order,
            "dim": x.dim,
            "format": "sym",
            "coeffs": [
                {"exponent": list(p), "value": _complex_pair(v)}
                for p, v in x.coeffs.items()
            ],
        }
    raise ValidationError(f"cannot serialize {type(x).__name__} as a tensor")


def _read_pair(obj, field: str) -> complex:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in obj)
    ):
        raise ValidationError(f"field '{field}': expected a [re, im] number pair")
    try:
        value = complex(obj[0], obj[1])
    except OverflowError:  # an integer beyond the float range
        value = complex(math.inf)
    if not cmath.isfinite(value):
        raise ValidationError(f"field '{field}': expected finite numbers")
    return value


def _read_size(value, field: str) -> int:
    if not isinstance(value, int) or value < 1:
        raise ValidationError(f"field '{field}': expected a positive integer")
    return value


def tensor_from_json_obj(obj):
    """Parse the tensor JSON format back into a DenseTensor or SymmetricTensor."""
    if not isinstance(obj, dict):
        raise ValidationError("field '<root>': expected a JSON object")
    fmt = obj.get("format")
    if fmt == "dense":
        for key in ("order", "dim", "entries"):
            if key not in obj:
                raise ValidationError(f"field '{key}': missing")
        order, dim = _read_size(obj["order"], "order"), _read_size(obj["dim"], "dim")
        entries = obj["entries"]
        if not isinstance(entries, list) or len(entries) != dim**order:
            got = len(entries) if isinstance(entries, list) else type(entries).__name__
            raise ValidationError(f"field 'entries': expected {dim**order} pairs, got {got}")
        flat = [_read_pair(e, "entries") for e in entries]
        return DenseTensor(np.array(flat, dtype=np.complex128).reshape((dim,) * order))
    if fmt == "sym":
        coeffs_json = obj.get("coeffs")
        if not isinstance(coeffs_json, list):
            raise ValidationError("field 'coeffs': expected a list")
        coeffs = {}
        for item in coeffs_json:
            if not isinstance(item, dict) or "exponent" not in item or "value" not in item:
                raise ValidationError("field 'coeffs': each item needs 'exponent' and 'value'")
            exp = item["exponent"]
            if not isinstance(exp, list) or not all(isinstance(e, int) for e in exp):
                raise ValidationError("field 'exponent': expected a list of integers")
            p = as_exponent(exp)
            coeffs[p] = coeffs.get(p, 0j) + _read_pair(item["value"], "value")
        order = obj.get("order")
        dim = obj.get("dim")
        if order is None or dim is None:
            if not coeffs:
                raise ValidationError(
                    "field 'order'/'dim': required when 'coeffs' is empty"
                )
            some = next(iter(coeffs))
            order = sum(some) if order is None else order
            dim = len(some) if dim is None else dim
        return SymmetricTensor(_read_size(order, "order"), _read_size(dim, "dim"), coeffs)
    raise ValidationError("field 'format': must be 'dense' or 'sym'")
