"""Dense and compressed symmetric tensor representations and operations.

A DenseTensor holds all n^k complex entries of a cubical k-way array,
row-major with the first index slowest.  A SymmetricTensor holds one complex
value per exponent class p: the common entry a_j shared by every index tuple
j whose multiplicity vector is p.  The compressed form is canonical; dense
arrays are materialized on demand under a configurable entry cap.  A dense
result of symmetrize or decompress keeps its classes, so is_symmetric and
compress answer from them; other dense tensors are scanned entry by entry.

One read-only graded-lex class vector is shared with a Quantic of the same data, and the JSON writer reads it, or the
dense array, as it is; coeffs derives a dict.  Class positions and exponents convert in batches, kernels read
per-(k, n) tables of the 8 latest shapes through ndarray.take, only _power_sum forms class monomials, from their
factors that are not 1, and only the dense conversions map each dense entry to its class (1-2 bytes).  Both
containers are immutable and finite-valued.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .combinatorics import (
    _class_count, _class_ids, _class_sizes, _dense_tables, _exponents, _frozen, _head_tail_blocks, as_exponent,
)
from .errors import (
    ArithmeticOverflowError, CapacityError, SymmetryError, ValidationError, _check_tol, _excerpt, _integer,
)

DENSE_ENTRY_CAP = 10_000_000
try:  # numpy's limit on the number of array axes: 64 from numpy 2, 32 before
    _DENSE_ORDER_CAP = np.empty((1,) * 64).ndim
except ValueError:
    _DENSE_ORDER_CAP = 32
DEFAULT_SYMMETRY_TOL = 1e-12
DEFAULT_RANK_TOL = 1e-10


def _pow2_exponent(values: np.ndarray) -> int:
    """e with 2^e <= the largest |re| or |im| < 2^(e+1) of a real array or a complex one contiguous in its last axis,
    but at least -1022 so 2^-e is finite: dividing by 2^e is exact above the subnormals, and leaves |re|, |im| < 2."""
    return max(math.frexp(abs(values.view(float)).max())[1] - 1, -1022)


def _frozen_finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} must be finite")
    return _frozen(arr)


class _Immutable:
    """Slots that only a constructor, copy or pickle sets, through _fill: assigning or deleting one raises
    AttributeError."""

    __slots__ = ()

    def _fill(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to '{name}': a {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete '{name}': a {type(self).__name__} is immutable")

    def __getstate__(self):
        return {name: getattr(self, name) for name in type(self).__slots__}

    def __setstate__(self, state):  # a copied or unpickled array is writable until frozen again
        self._fill(**{name: _frozen(v) if isinstance(v, np.ndarray) else v for name, v in state.items()})


class DenseTensor(_Immutable):
    """Cubical order-k dim-n complex array."""

    __slots__ = ("order", "dim", "array", "_classes")

    def __init__(self, array):
        arr = np.array(array, dtype=np.complex128)
        if arr.ndim < 1:
            raise ValidationError("a dense tensor needs order >= 1")
        n = arr.shape[0]
        if n < 1:
            raise ValidationError("a dense tensor needs dimension >= 1")
        if any(s != n for s in arr.shape):
            raise ValidationError(f"non-cubical shape {arr.shape}")
        self._fill(order=arr.ndim, dim=n, array=_frozen_finite(arr, "dense tensor entries"), _classes=None)

    @classmethod
    def _of(cls, S: SymmetricTensor, flat: np.ndarray) -> DenseTensor:
        """Take over a fresh row-major expansion of S's classes, keeping S for is_symmetric and compress."""
        array = _frozen(flat.reshape((S.dim,) * S.order))
        return object.__new__(cls)._fill(order=S.order, dim=S.dim, array=array, _classes=S)

    def __repr__(self):
        return f"DenseTensor(order={self.order}, dim={self.dim})"


class SymmetricTensor(_Immutable):
    """Order-k dim-n symmetric tensor keyed by exponent class, the one door for exponent keys from outside.

    `coeffs` maps exponents to entries (anything dict() reads through keys), or is an iterable of (exponent, value)
    pairs whose values for one class add in order from 0.  Graded-lex storage; exact zeros are pruned.
    """

    __slots__ = ("order", "dim", "_vector")

    def __init__(self, order: int, dim: int, coeffs):
        order, dim = _integer(order, "order", 1), _integer(dim, "dim", 1)
        vec, values = np.zeros(_class_count(order, dim), dtype=np.complex128), []
        mapping = hasattr(coeffs, "keys")

        def nonzero_keys():  # each key checked and its value read in turn; no key, and no copy of a dict, is kept
            for p, v in (coeffs if type(coeffs) is dict else dict(coeffs)).items() if mapping else coeffs:
                key = as_exponent(p)
                if len(key) != dim:
                    raise ValidationError(f"an exponent has {len(key)} entries, expected {dim}")
                if sum(key) != order:
                    if max(key) > order:  # say so without formatting an entry past int's digit limit
                        raise ValidationError(f"an exponent has an entry above the order {order}")
                    raise ValidationError(f"exponent {_excerpt(key)} has degree {sum(key)}, expected {order}")
                if (value := complex(v)) != 0:
                    values.append(value)
                    yield key
        ids = _class_ids(order, dim, nonzero_keys())
        for c, v in zip(ids.tolist(), values):  # Python's sum of pairs in order: an overflow reads inf, with no warning
            vec[c] = v if mapping else vec.item(c) + v
        self._fill(order=order, dim=dim, _vector=_frozen_finite(vec, "coefficients"))

    @classmethod
    def _of(cls, order: int, dim: int, vector: np.ndarray) -> SymmetricTensor:
        """Take over a fresh class vector the library computed for this shape; no key validation."""
        vector[vector == 0] = 0  # a pruned class reads +0, never -0
        return object.__new__(cls)._fill(order=order, dim=dim, _vector=_frozen_finite(vector, "coefficients"))

    @property
    def coeffs(self) -> dict[tuple[int, ...], complex]:
        nz = np.flatnonzero(self._vector)
        return dict(zip(map(tuple, _exponents(self.order, self.dim, nz).T.tolist()), self._vector[nz].tolist()))

    def __repr__(self):
        return f"SymmetricTensor(order={self.order}, dim={self.dim}, classes={np.count_nonzero(self._vector)})"


def _worst_asymmetry(A: DenseTensor) -> tuple[float, tuple, tuple, float, int]:
    """Largest |a_j - a_canonical(j)|, its first row-major location and the max entry magnitude, of the entries
    divided by 2^e for the _pow2_exponent e of the tensor, and e."""
    e = _pow2_exponent(flat := A.array.reshape(-1))
    flat = flat / 2.0**e
    ids, canon = _dense_tables(A.order, A.dim)
    dev = np.abs(flat - flat.take(canon.take(ids)))
    j = int(np.argmax(dev))
    idx = tuple(int(i) for i in np.unravel_index(j, A.array.shape))
    return float(dev[j]), idx, tuple(sorted(idx)), float(np.abs(flat).max()), e


def is_symmetric(A: DenseTensor, tol: float = DEFAULT_SYMMETRY_TOL) -> bool:
    """True iff every entry matches its canonical (sorted-index) representative.

    The deviation is compared against tol * max entry magnitude, both divided by the power of two of the largest
    |re| or |im|.  A tensor expanded from classes (symmetrize, decompress) is symmetric by construction.
    """
    _check_tol(tol)
    if A._classes is not None:
        return True
    worst, _, _, scale, _ = _worst_asymmetry(A)
    return worst <= tol * scale


def symmetrize(A: DenseTensor) -> DenseTensor:
    """Average each entry over all permutations of its index tuple.

    Computed by class averaging over canonical index multisets rather than
    an explicit k! permutation sum; the two agree because every permutation
    class member appears the same number of times.  The class sums add the
    entries in row-major order; a class whose sum overflows is summed again
    at the power-of-two scale of the largest |re| or |im|.
    """
    flat = A.array.reshape(-1)
    ids = _dense_tables(A.order, A.dim)[0]
    sizes = _class_sizes(A.order, A.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        means = _class_means(flat, ids, sizes)
        bad = ~np.isfinite(means)
        if bad.any():  # the mean of finite entries is finite
            p = 2.0 ** _pow2_exponent(flat)
            means[bad] = _class_means(flat / p, ids, sizes)[bad] * p
    dense = means.take(ids)  # before _of turns a -0 mean into +0, as the dense entries keep it
    return DenseTensor._of(SymmetricTensor._of(A.order, A.dim, means), dense)


def _class_means(flat: np.ndarray, ids: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    sums = np.zeros(len(sizes), dtype=np.complex128)
    np.add.at(sums, ids, flat)  # entry by entry in row-major order, the order symmetrize states
    return sums / sizes


def compress(A: DenseTensor, tol: float = DEFAULT_SYMMETRY_TOL) -> SymmetricTensor:
    """Store one value per exponent class of a dense tensor that is_symmetric accepts.

    The stored value is the entry at the canonical index tuple, so the
    round trip through decompress is exact for exactly symmetric input.
    A tensor expanded from classes returns them.  The error states its
    numbers divided by 2^e only where the largest magnitude overflows.
    """
    _check_tol(tol)
    if A._classes is not None:
        return A._classes
    worst, idx, canon, scale, e = _worst_asymmetry(A)
    if worst > tol * scale:
        unit = f" * 2^{e}" if math.isinf(scale * 2.0**e) else ""
        worst, scale = (worst, scale) if unit else (worst * 2.0**e, scale * 2.0**e)
        raise SymmetryError(f"tensor is not symmetric: |a{idx} - a{canon}| = {worst:.3e}{unit} exceeds {tol:.1e} * "
                            f"{scale:.3e}{unit}", index=idx, canonical=canon)
    canon = _dense_tables(A.order, A.dim)[1]
    return SymmetricTensor._of(A.order, A.dim, A.array.reshape(-1).take(canon))


def _check_dense_order(order: int) -> None:
    if order > _DENSE_ORDER_CAP:
        raise CapacityError(f"a dense form of order {order} needs more than numpy's {_DENSE_ORDER_CAP} axes")


def decompress(S: SymmetricTensor, max_entries: int = DENSE_ENTRY_CAP) -> DenseTensor:
    """Materialize the full n^k dense array of a compressed symmetric tensor."""
    max_entries = _integer(max_entries, "max_entries", 1)
    _check_dense_order(S.order)
    total = S.dim**S.order
    if total > max_entries:
        raise CapacityError(
            f"dense form needs {total} entries, above the cap of {max_entries}"
        )
    return DenseTensor._of(S, S._vector.take(_dense_tables(S.order, S.dim)[0]))


def _power_sum(weights: np.ndarray, vectors: np.ndarray, k: int) -> np.ndarray:
    """Class vector of sum_r weights[r] * vectors[r]^xk, left non-finite where it overflows.  A class is a head, the
    monomial of its first k // 2 sorted indices, times a tail; the classes whose heads end at one variable are one
    matrix product of the weighted heads and a suffix of the tails per _head_tail_blocks block: O(r m) multiply-adds
    for r terms and m classes, plus min(ceil(k / 2), n) gathered factors for each head and tail monomial."""
    factors, m_a, blocks, where = _head_tail_blocks(k, vectors.shape[1])
    buffer = np.empty(len(where), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        # row i (b + 1) + e of powers holds x_(i+1)^e of each term, b = k - k // 2; a row of monomials is a head or tail
        powers = (vectors.T[:, None, :] ** np.arange(k - k // 2 + 1)[:, None]).reshape(-1, len(vectors))
        monomials = powers.take(factors[0], axis=0)
        for ids in factors[1:]:
            monomials *= powers.take(ids, axis=0)
        heads = monomials[:m_a] * weights
        for rows, tails, out, shape in blocks:
            np.dot(heads[rows], monomials[tails].T, out=buffer[out].reshape(shape))
    return buffer.take(where)


def outer_power(v, k: int) -> SymmetricTensor:
    """k-fold symmetric outer power of a vector: coeffs[p] = prod_i v_i^p_i."""
    k = _integer(k, "order", 1)
    vec = np.array([complex(c) for c in v], dtype=np.complex128)
    if len(vec) < 1:
        raise ValidationError("outer power needs a nonempty vector")
    return SymmetricTensor._of(k, len(vec), _power_sum(np.ones(1, dtype=np.complex128), vec[None, :], k))


def _dense_result(arr: np.ndarray, what: str):
    """arr, products of finite factors, as a DenseTensor or a scalar, if no entry overflowed to inf or nan."""
    if not np.isfinite(arr).all():
        raise ArithmeticOverflowError(f"{what} overflows the float range")
    return complex(arr) if arr.ndim == 0 else DenseTensor(arr)


@np.errstate(over="ignore", invalid="ignore")  # an overflowing product reads inf or nan, refused by _dense_result
def contract_mode1(A: DenseTensor, B: DenseTensor):
    """Contract the first modes: c[i2.., j2..] = sum_a a[a, i2..] b[a, j2..].

    Two vectors contract to a plain complex scalar.
    """
    if A.dim != B.dim:
        raise ValidationError(f"first-mode dimensions differ: {A.dim} vs {B.dim}")
    return _dense_result(np.tensordot(A.array, B.array, axes=([0], [0])), "the contraction")


@np.errstate(over="ignore", invalid="ignore")  # as contract_mode1
def multilinear_transform(A: DenseTensor, maps) -> DenseTensor:
    """Apply one matrix per mode: a'[p..] = sum L1[p,i] L2[q,j] ... a[ij..].

    Every map must be a finite matrix with column count equal to the tensor
    dimension, and all maps must share one row count, since the result stays cubical.
    """
    mats = [np.asarray(M, dtype=np.complex128) for M in maps]
    if len(mats) != A.order:
        raise ValidationError(f"need {A.order} maps for an order-{A.order} tensor, got {len(mats)}")
    for mode, M in enumerate(mats):
        if M.ndim != 2:
            raise ValidationError(f"map for mode {mode} is not a matrix")
        if not np.isfinite(M).all():
            raise ValidationError(f"map for mode {mode} must be finite")
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
    return _dense_result(arr, "the transform")


def numerical_rank(matrix, tol: float = DEFAULT_RANK_TOL) -> int:
    """Singular values above tol times the largest column norm."""
    _check_tol(tol)
    m = _frozen_finite(np.atleast_2d(np.array(matrix, dtype=np.complex128, order="C")), "matrix entries")
    if m.ndim > 2:  # svd would take it as a stack of matrices
        raise ValidationError(f"numerical_rank needs a matrix, got {m.ndim} axes")
    if not m.any():  # also an empty matrix
        return 0
    m = m / 2.0 ** _pow2_exponent(m)  # C order, as _pow2_exponent needs: exact, and no column norm overflows
    col_scale = float(np.linalg.norm(m, axis=0).max())
    return int(np.count_nonzero(np.linalg.svd(m, compute_uv=False) > tol * col_scale))


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
    """sqrt(sum multinomial(p) |v_p|^2) of a class vector with |re|, |im| < 4, as one or a difference of two over the
    2^e of _pow2_exponent: terms are below 32 multinomial(p), and the sizes are divided by 4^h, h > 0 only where
    the sum, below 32 n^k, could pass the float range, so times 2^e the norm is inf only where it is."""
    sizes = _class_sizes(order, dim)
    h = max((dim**order).bit_length() - 1017, 0) // 2
    w = np.abs(vec)
    return math.sqrt((sizes * 4.0**-h if h else sizes) @ (w * w)) * 2.0**h


def _at_one_scale(*tensors: SymmetricTensor) -> tuple[float, np.ndarray]:
    """2^e for the _pow2_exponent e of the tensors' class vectors, and those vectors over 2^e as rows."""
    vectors = np.concatenate([T._vector for T in tensors])
    p = 2.0 ** _pow2_exponent(vectors)
    return p, np.divide(vectors, p, out=vectors).reshape(len(tensors), -1)


def frobenius_norm(A: SymmetricTensor) -> float:
    """Dense-array Euclidean norm computed in compressed form."""
    p, (a,) = _at_one_scale(A)
    return _class_norm(A.order, A.dim, a) * p


def frobenius_distance(A: SymmetricTensor, B: SymmetricTensor) -> float:
    """Dense-array Euclidean distance computed in compressed form, inf where it passes the float range."""
    if (A.order, A.dim) != (B.order, B.dim):
        raise ValidationError(f"shape mismatch: ({A.order}, {A.dim}) vs ({B.order}, {B.dim})")
    p, (a, b) = _at_one_scale(A, B)
    return _class_norm(A.order, A.dim, a - b) * p


def _pairs(values: np.ndarray) -> list:
    """[re, im] lists of Python floats, nested as the complex array values is: the float view of a trailing axis."""
    return values[..., None].view(float).tolist()


def tensor_to_json_obj(x) -> dict:
    """JSON object for a DenseTensor (format dense) or SymmetricTensor (format sym)."""
    if isinstance(x, DenseTensor):
        return {"order": x.order, "dim": x.dim, "format": "dense", "entries": _pairs(x.array.reshape(-1))}
    if isinstance(x, SymmetricTensor):
        nz = np.flatnonzero(x._vector)
        coeffs = zip(_exponents(x.order, x.dim, nz).T.tolist(), _pairs(x._vector[nz]))
        return {"order": x.order, "dim": x.dim, "format": "sym",
                "coeffs": [{"exponent": p, "value": v} for p, v in coeffs]}
    raise ValidationError(f"cannot serialize {type(x).__name__} as a tensor")


def _fields(obj, keys: tuple[str, ...]) -> list:
    """obj[key] for each key, obj a JSON object that holds them all."""
    if not isinstance(obj, dict):
        raise ValidationError("field '<root>': expected a JSON object")
    if missing := [key for key in keys if key not in obj]:
        raise ValidationError(f"field '{missing[0]}': missing")
    return [obj[key] for key in keys]


def _read_pair(obj, field: str) -> complex:
    if (  # each component checked in place, with no generator: the readers call this once per number pair
        not isinstance(obj, (list, tuple)) or len(obj) != 2
        or not (isinstance(re := obj[0], (int, float)) and isinstance(im := obj[1], (int, float)))
        or type(re) is bool or type(im) is bool  # a JSON true is no number; bool has no subclass
    ):
        raise ValidationError(f"field '{field}': expected a [re, im] number pair")
    try:
        value = complex(re, im)
    except OverflowError:  # an integer beyond the float range
        value = complex(math.inf)
    if not cmath.isfinite(value):
        raise ValidationError(f"field '{field}': expected finite numbers")
    return value


def tensor_from_json_obj(obj):
    """Parse the tensor JSON format back into a DenseTensor or SymmetricTensor."""
    _fields(obj, ())  # a JSON object
    fmt = obj.get("format")
    if fmt == "dense":
        order, dim, entries = _fields(obj, ("order", "dim", "entries"))
        order, dim = _integer(order, "field 'order'", 1), _integer(dim, "field 'dim'", 1)
        _check_dense_order(order)
        # dim > len(entries) already mismatches, and otherwise dim**order stays a few hundred digits
        if not isinstance(entries, list) or dim > len(entries) or len(entries) != dim**order:
            got = len(entries) if isinstance(entries, list) else type(entries).__name__
            raise ValidationError(f"field 'entries': expected {dim}**{order} pairs, got {got}")
        return DenseTensor(np.array([_read_pair(e, "entries") for e in entries]).reshape((dim,) * order))
    if fmt == "sym":
        coeffs_json = obj.get("coeffs")
        if not isinstance(coeffs_json, list):
            raise ValidationError("field 'coeffs': expected a list")
        coeffs = []  # (exponent list, value) pairs, which the constructor checks, ranks and sums
        for item in coeffs_json:
            if not isinstance(item, dict) or "exponent" not in item or "value" not in item:
                raise ValidationError("field 'coeffs': each item needs 'exponent' and 'value'")
            exp = item["exponent"]
            if not isinstance(exp, list) or not {*map(type, exp)} <= {int}:
                raise ValidationError("field 'exponent': expected a list of integers")
            coeffs.append((exp, _read_pair(item["value"], "value")))
        order, dim = obj.get("order"), obj.get("dim")
        if order is None or dim is None:
            if not coeffs:
                raise ValidationError("field 'order'/'dim': required when 'coeffs' is empty")
            some = as_exponent(coeffs[0][0])
            order = sum(some) if order is None else order
            dim = len(some) if dim is None else dim
        return SymmetricTensor(_integer(order, "field 'order'", 1), _integer(dim, "field 'dim'", 1), coeffs)
    raise ValidationError("field 'format': must be 'dense' or 'sym'")
