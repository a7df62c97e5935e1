"""Constructive symmetric outer product decompositions.

Binary tensors go through one route, Sylvester's, on arrays: the moments m_j = a_(k-j, j) are the class vector, the
nodes are the homogeneous roots of a form apolar to them, and one Vandermonde solve gives the weights.  The apolar
form is t^k - rho^k for the monomial z1*z2^(k-1), and the catalecticant kernel for 2x2x2 tensors; over R with a
negative discriminant it is a cubic whose three real roots lie 60 degrees apart.  All three leave through one exit,
_sylvester, which returns a decomposition only where verify accepts it and raises DecompositionError otherwise.
Three border-rank sequences, sums of tangents, have members of low symmetric rank but limits that do not.  verify
measures any stated decomposition against any target tensor through tensor_core's one power-sum kernel.

A decomposition stores read-only arrays, weights (r,) and vectors (r, n), that every producer hands to one normalizer:
each vector leads with 1, its scale moved into the weight, and the terms are sorted by the second component so
output is deterministic.  reconstruct, once per record, and the JSON writer read the arrays; terms derives pairs.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .combinatorics import _SHAPES_CACHED, _class_sizes, _frozen, enumerate_exponents
from .errors import DecompositionError, DegeneratePencilError, ValidationError, _check_tol, _integer
from .tensor_core import (
    SymmetricTensor,
    _at_one_scale,
    _class_norm,
    _fields,
    _pairs,
    _pow2_exponent,
    _power_sum,
    _read_pair,
    frobenius_distance,
    numerical_rank,
)

DEFAULT_VERIFY_TOL = 1e-9
PENCIL_DEGENERACY_TOL = 1e-12
REAL_FIELD_TOL = 1e-12
DEFAULT_EPSILONS = tuple(2.0**-i for i in range(3, 11))


@dataclass(frozen=True, eq=False)
class SymmetricDecomposition:
    """sum_i weights[i] * vectors[i]^xk, with weights (r,) and vectors (r, n) read-only complex arrays.  Its
    reconstruction is computed once per record, and reconstruct returns that one shared, immutable tensor."""

    order: int
    dim: int
    weights: np.ndarray
    vectors: np.ndarray
    field_tag: str

    def __post_init__(self):  # a record built directly takes its order and dim through the integer rule too
        for name in ("order", "dim"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, 1))

    @property
    def terms(self) -> tuple[tuple[complex, tuple[complex, ...]], ...]:
        """The terms as (weight, vector) pairs of Python complex numbers, in storage order."""
        return tuple(zip(self.weights.tolist(), map(tuple, self.vectors.tolist())))

    def __eq__(self, other) -> bool:  # value equality, so the record is not hashable; the shapes carry r and n
        return (isinstance(other, SymmetricDecomposition) and self.order == other.order
                and self.field_tag == other.field_tag and np.array_equal(self.weights, other.weights)
                and np.array_equal(self.vectors, other.vectors))

    @cached_property  # not a field, so out of ==, repr and JSON; a refusal is not kept and raises on every read
    def _reconstruction(self) -> SymmetricTensor:
        summed = _power_sum(self.weights, self.vectors, self.order)
        with np.errstate(over="ignore", invalid="ignore"):  # a modulus or its k-th power past the float range reads inf
            if self.order > 1 and np.abs(self.vectors).max(initial=0.0) ** self.order == np.inf:  # bounds the classes
                raise ValidationError("coefficients must be finite")
        return SymmetricTensor._of(self.order, self.dim, summed)


def make_decomposition(order: int, dim: int, terms, field_tag: str | None = None) -> SymmetricDecomposition:
    """Normalize, validate, and deterministically order decomposition terms, (weight, vector) pairs.

    Each vector is scaled so its first nonzero component is 1, the k-th power
    of the scale moving into the weight; a non-finite result is rejected.
    field_tag None auto-detects: R when every weight and component is real,
    C otherwise; "R" accepts imaginary parts up to 1e-12 of the real parts and zeroes them.
    """
    order, dim = _integer(order, "order", 1), _integer(dim, "dim", 1)
    rows = [(w, *v) for w, v in terms]
    if bad := [tuple(map(complex, row[1:])) for row in rows if len(row) != dim + 1]:
        raise ValidationError(f"vector {bad[0]} has {len(bad[0])} components, expected {dim}")
    block = np.array(rows, dtype=np.complex128).reshape(len(rows), dim + 1)
    return _normalized(order, block[:, 0], block[:, 1:], field_tag)


@np.errstate(all="ignore")  # a term past the float range reads inf or nan, and so does a zero vector
def _normalized(order: int, weights: np.ndarray, vectors: np.ndarray, field_tag: str | None) -> SymmetricDecomposition:
    """make_decomposition's rule on arrays: each vector's pivot is its first nonzero component, and one lexsort orders
    the terms by (vector[1], or vector[0] where n = 1; weight).  The record keeps the two parts of one new block."""
    rows = np.arange(len(vectors))
    lead = (vectors != 0).argmax(axis=1)
    pivot = vectors[rows, lead][:, None]
    unit = vectors / pivot
    unit.real[rows, lead] = 1.0  # numpy divides by a reciprocal, which leaves x / x = 1 - 2^-53 for some x
    unit.imag[rows, lead] *= 0.0  # and an imaginary part below 1e-16, whose signed zero normalizes again to itself
    block = np.concatenate((weights[:, None] * pivot**order, unit), axis=1, dtype=np.complex128)
    if not np.isfinite(block).all():
        raise ValidationError("decomposition vectors must be nonzero" if not pivot.all()
                              else "decomposition terms must be finite once each vector leads with 1")
    if field_tag is None:
        field_tag = "C" if block.imag.any() else "R"
    elif field_tag not in ("R", "C"):
        raise ValidationError("field tag must be 'R' or 'C'")
    if field_tag == "R":
        if block.imag.any() and (abs(block.imag) > REAL_FIELD_TOL * abs(block.real)).any():
            raise ValidationError(f"field tag R requires imaginary parts at most {REAL_FIELD_TOL} of the real parts")
        block.imag = 0.0
    block = _frozen(block.take(np.lexsort((block[:, 0], block[:, min(2, block.shape[1] - 1)])), axis=0))
    return SymmetricDecomposition(order, block.shape[1] - 1, block[:, 0], block[:, 1:], field_tag)


def reconstruct(D: SymmetricDecomposition) -> SymmetricTensor:
    """Sum of weighted outer powers in compressed form, computed once per record: each call returns that shared,
    immutable tensor.  A term of order k > 1 with |v_i|^k past the float range is refused whatever its weight."""
    return D._reconstruction


@dataclass(frozen=True)
class VerifyReport:
    residual: float
    ok: bool
    stated_rank: int
    bound: float


def verify(D: SymmetricDecomposition, A: SymmetricTensor, tol: float = DEFAULT_VERIFY_TOL) -> VerifyReport:
    """Frobenius residual ||R - A|| of R = reconstruct(D), passed where it is at most the bound tol * ||A||.

    Both norms are taken of R and A divided by the one 2^e of their largest |re| or |im|, so the comparison
    holds at any scale; the residual and the bound are the scaled ones times 2^e, inf only where they pass the
    float range.  With no absolute floor, only an exactly zero reconstruction verifies against the zero tensor.
    """
    if (D.order, D.dim) != (A.order, A.dim):
        raise ValidationError(f"shape mismatch: decomposition ({D.order}, {D.dim}) vs tensor ({A.order}, {A.dim})")
    _check_tol(tol)
    p, (r, a) = _at_one_scale(reconstruct(D), A)
    distance, bound = _class_norm(A.order, A.dim, r - a), tol * _class_norm(A.order, A.dim, a)
    return VerifyReport(distance * p, distance <= bound, len(D.weights), bound * p)


def binary_monomial_tensor(k: int) -> SymmetricTensor:
    """The symmetric tensor of the quantic z1 * z2^(k-1): one class entry 1/k."""
    k = _integer(k, "order", 2)
    return SymmetricTensor(k, 2, {(1, k - 1): 1.0 / k})


def _sylvester(A: SymmetricTensor, label: str, p: float, unit: np.ndarray, nodes: np.ndarray, field_tag: str,
               rho: float = 1.0) -> SymmetricDecomposition:
    """The one exit of the binary route: A's decomposition over field_tag with nodes (alpha_i, rho beta_i), (alpha_i,
    beta_i) the rows of an (r, 2) array of roots of a form apolar to A's moments m_j = a_(k-j, j), given as unit =
    m_j / (p rho^j), p the power of two of _scaled_entries, if verify accepts it; else DecompositionError, naming label.

    Each node is divided by its largest modulus, a component below rounding level set to zero, and one least-squares
    solve of the Vandermonde system sum_i w_i alpha_i^(k-j) beta_i^j = unit_j, formed by broadcasting, real over R,
    gives the weights over p, so no product overflows.  Each power z^e is z^(e mod 64) (z^64)^(e div 64): numpy's
    ** takes an exponent from 100 up through the complex log and exponential; below 128 these are Python's squarings.
    At order 494 the residual reads 0.98 of the bound.  The stretch multiplies the float view, as _over divides,
    so a -0 part keeps its sign."""
    j = np.arange(len(unit))
    moduli = np.hypot(nodes.real, nodes.imag)
    top = moduli.max(axis=1, keepdims=True)
    points = np.where(moduli > np.finfo(float).eps * top, _over(nodes, top), 0)
    q, e = np.divmod(np.array([j[::-1], j])[..., None], 64)  # the exponents k - j of alpha and j of beta
    powers = points.T[:, None] ** e * (points.T[:, None] ** 64) ** q
    vander = powers[0] * powers[1]
    if field_tag == "R":
        vander = vander.real
    weights = p * np.linalg.lstsq(vander, unit, rcond=None)[0]
    points = (points.astype(np.complex128).view(float) * [1, 1, rho, rho]).view(complex)
    decomposition = _normalized(A.order, weights, points, field_tag)
    if not (report := verify(decomposition, A)).ok:
        raise DecompositionError(f"{label} decomposition of order {A.order} does not verify: residual "
                                 f"{report.residual:.3g} exceeds the bound {report.bound:.3g}")
    return decomposition


def _roots_of_unity_decomposition(A: SymmetricTensor) -> SymmetricDecomposition:
    """k terms over C with nodes (1, rho u_i), u_i the k-th roots of unity, roots of the apolar form t^k - rho^k.

    Exact whenever m_k equals rho^k m_0, as for every multiple of z1 * z2^(k-1), the only tensors taken:
    binary, of order >= 2, with no class but (1, k - 1), id k - 1, above 1e-12 of that one.  rho = sqrt(k - 1)
    minimizes the rounding sum_j C(k, j) rho^(2(j-k+1)) of the terms, capped at 2^(1000/k) so that rho^k stays
    finite.  The weights solve sum_i w_i u_i^j = m_j / rho^j, a system as well conditioned as the discrete
    Fourier transform, where the nodes' own rows would span a factor rho^k.  A result that verify refuses raises.
    """
    if A.dim != 2:
        raise ValidationError("method monomial needs a binary tensor (dim 2)")
    k = A.order
    if k < 2:
        raise ValidationError("method monomial needs order >= 2")
    _class_sizes(k, 2)  # an order whose class sizes pass the float range, which verify refuses, fails before the solve
    p, unit = _scaled_entries(A._vector, "C")
    if np.flatnonzero(np.abs(unit) > 1e-12 * abs(unit[k - 1])).tolist() != [k - 1]:
        raise ValidationError(
            "method monomial needs a tensor proportional to z1*z2^(k-1): "
            f"exactly the exponent class {[1, k - 1]} may be nonzero"
        )
    rho = min(math.sqrt(k - 1), 2.0 ** (1000 / k))
    roots = np.array([(1.0, cmath.exp(2j * cmath.pi * i / k)) for i in range(k)])
    return _sylvester(A, "monomial", p, _over(unit, np.repeat(rho ** np.arange(k + 1), 2)), roots, "C", rho)


@lru_cache(maxsize=_SHAPES_CACHED, typed=True)  # typed: an equal float, bool or numpy key is a call of its own
def decompose_monomial_rank_k(k: int) -> SymmetricDecomposition:
    """Rank-k decomposition of the tensor of z1 * z2^(k-1) over C.

    The directions are (1, beta_i), beta_i the roots of t^k - rho^k, rho = min(sqrt(k - 1), 2^(1000/k)); the
    weights come out as beta_i / (k^2 rho^k).  From order 496 verify refuses most; those raise DecompositionError.
    The immutable records of the 8 latest orders are kept; a refusal is not, and raises on every call.
    """
    return _roots_of_unity_decomposition(binary_monomial_tensor(k))


def pencil_quadratic(A: SymmetricTensor) -> tuple[complex, complex, complex]:
    """Coefficients (a, b, c) of det(A0 - t*A1) = a t^2 + b t + c.

    A0 and A1 are the two slices of a 2x2x2 symmetric tensor along the first
    index; with class entries c30, c21, c12, c03 the coefficients are
    a = c21 c03 - c12^2, b = c21 c12 - c30 c03, c = c30 c12 - c21^2.  The
    same vector spans the kernel of the 2x3 catalecticant
    [[c30, c21, c12], [c21, c12, c03]], so a s^2 + b s t + c t^2 is the
    quadratic form apolar to A.
    """
    _require_sym222(A)
    return _catalecticant_kernel(*A._vector.tolist())


def _catalecticant_kernel(m0, m1, m2, m3):
    """Cross product of the two rows of the 2x3 catalecticant of (m0, m1, m2, m3)."""
    return m1 * m3 - m2 * m2, m1 * m2 - m0 * m3, m0 * m2 - m1 * m1


_PENCIL_CONDITIONS = (
    "pencil determinant vanishes identically",
    "pencil determinant is constant in the eigenvalue",
    "double eigenvalue",
)


def _pencil_rule(a, b, c):
    """Masks in the order of _PENCIL_CONDITIONS, and the discriminant, of a t^2 + b t + c.

    Scalars or arrays alike; each mask is judged relative to max(|a|, |b|, |c|).
    """
    head = np.maximum(abs(a), abs(b))
    scale = np.maximum(head, abs(c))
    disc = b * b - 4.0 * a * c
    tol = PENCIL_DEGENERACY_TOL * scale
    return (scale == 0.0, head <= tol, abs(disc) <= tol * scale), disc


def _over(values: np.ndarray, scale) -> np.ndarray:
    """values / scale, positive reals that broadcast against the float view, as Python divides by a float: a complex
    z as the float view of z (1 - 0j), which is (re + im 0, im - re 0), so even the signs of zero parts agree."""
    if values.dtype.kind != "c":
        return values / scale
    return ((values * complex(1.0, -0.0)).view(float) / scale).view(complex)


def _scaled_entries(values: np.ndarray, field: str) -> tuple[float, np.ndarray]:
    """(p, values / p), p = 2^e for the _pow2_exponent e of values: exact, so every |re| and |im| is below 2 and a rule
    homogeneous in the entries reads on them as on values.  Over R the real parts, as a real array, once every |im| is
    at most 1e-12 of the largest modulus, a hypot as Python's abs takes it."""
    p = 2.0 ** _pow2_exponent(values)
    unit = values / p
    if field == "R" and abs(unit.imag).max() > REAL_FIELD_TOL * np.abs(unit).max():
        raise ValidationError("field R needs a real tensor")
    return p, unit.real if field == "R" else unit


def _require_sym222(A: SymmetricTensor) -> None:
    if (A.order, A.dim) != (3, 2):
        raise ValidationError(
            f"the pencil method handles order 3 dimension 2, got ({A.order}, {A.dim})"
        )


@dataclass(frozen=True)
class PencilResult:
    """Classification plus the witnessing decomposition."""

    classification: str
    decomposition: SymmetricDecomposition


def decompose_sym222_pencil(A: SymmetricTensor, field: str = "C") -> PencilResult:
    """Decompose a 2x2x2 symmetric tensor through its catalecticant kernel.

    Sylvester's method: the kernel (a, b, c) of the 2x3 catalecticant, which is also the slice-pencil determinant
    det(A0 - t*A1) = a t^2 + b t + c, is a quadratic form apolar to A.  Its two homogeneous roots (q, a) and (c, q),
    q the cancellation-free root of the quadratic, are the directions of a two-term decomposition; a vanishing a
    gives the direction (1, 0) with no special case.  One least-squares Vandermonde solve gives the weights.
    Over R with complex-conjugate roots no real two-term decomposition exists and a three-term real decomposition
    is returned instead, classified real_rank_3: its nodes (cos phi, sin phi), phi = theta + j pi/3,
    are the roots of the cubic g = cos 3theta (3 s^2 t - t^3) - sin 3theta (s^3 - 3 s t^2),
    which is apolar, sum_j g_j m_j = 0, when cos 3theta (3 m1 - m3) = sin 3theta (m0 - 3 m2).
    3theta is taken in [0, pi), by an exact fmod, so no node lies at 180 degrees.
    Degenerate pencils (zero or constant determinant, double eigenvalue) raise DegeneratePencilError.  Either branch
    returns only what verify accepts, else raises DecompositionError: near a double eigenvalue the two terms blow
    up, and for the nodes (1, 0.3) and (1, 0.3 + d) their rounding passes verify's bound from d = 1e-5 over C.
    """
    _require_sym222(A)
    if field not in ("R", "C"):
        raise ValidationError("field must be 'R' or 'C'")
    p, unit = _scaled_entries(A._vector, field)
    a, b, c = _catalecticant_kernel(*unit)
    masks, disc = _pencil_rule(a, b, c)
    for condition, hit in zip(_PENCIL_CONDITIONS, masks):
        if hit:
            raise DegeneratePencilError(condition)
    if field == "R" and disc < 0:
        turn = math.fmod(math.atan2(3 * unit[1] - unit[3], unit[0] - 3 * unit[2]) + math.pi, math.pi)
        nodes = np.array([(math.cos(phi), math.sin(phi)) for phi in ((turn + j * math.pi) / 3 for j in range(3))])
        return PencilResult("real_rank_3", _sylvester(A, "real_rank_3", p, unit, nodes, "R"))
    sq = cmath.sqrt(disc)
    q = -(b + sq) / 2 if abs(b + sq) >= abs(b - sq) else -(b - sq) / 2
    return PencilResult("rank_2", _sylvester(A, "rank_2", p, unit, np.array([(q, a), (c, q)]), field))


def _tangent_vector(u, v, k: int) -> np.ndarray:
    """Class vector of the tangent T(u, v) = d/de (u + e v)^xk at e = 0."""
    us, vs = u.tolist(), v.tolist()
    return np.array([
        sum(
            e * vs[i] * math.prod(us[ell] ** (q - (ell == i)) for ell, q in enumerate(p))
            for i, e in enumerate(p)
            if e
        )
        for p in enumerate_exponents(k, len(us))
    ], dtype=np.complex128)


@dataclass(frozen=True)
class BorderSequenceSpec:
    """One border-rank demonstration family with its epsilon schedule."""

    kind: str
    base_vectors: tuple[tuple[complex, ...], ...]
    order: int
    epsilons: tuple[float, ...]


# Each limit is a sum of tangents T(u, v), (u, v) positions in the base vectors (x, y[, z]):
# 2 T(y, x) for rank2_to_3, T(x, y) for rank2_to_k, T(x, y) + T(z, x) for tangent_sum.
_TANGENT_PAIRS = {"rank2_to_3": ((1, 0), (1, 0)), "rank2_to_k": ((0, 1),), "tangent_sum": ((0, 1), (2, 0))}
BORDER_KINDS = tuple(_TANGENT_PAIRS)


def make_border_spec(
    kind: str,
    base_vectors=None,
    order: int | None = None,
    epsilons=None,
) -> BorderSequenceSpec:
    """Validate and default a border-sequence specification.

    rank2_to_3 and rank2_to_k take two independent base vectors (default
    e1, e2 over C^2); tangent_sum takes three (default e1, e2, e3 over C^3).
    Only rank2_to_k accepts an order other than 3.
    """
    if kind not in BORDER_KINDS:
        raise ValidationError(f"kind must be one of {BORDER_KINDS}")
    wanted = 3 if kind == "tangent_sum" else 2
    if base_vectors is None:
        base_vectors = np.eye(wanted)
    base = tuple(tuple(complex(c) for c in v) for v in base_vectors)
    if len(base) != wanted:
        raise ValidationError(f"{kind} needs {wanted} base vectors, got {len(base)}")
    if len({len(v) for v in base}) != 1:
        raise ValidationError("base vectors must share one dimension")
    for i, j in itertools.combinations(range(len(base)), 2):
        if numerical_rank(np.array([base[i], base[j]])) != 2:
            raise ValidationError(f"base vectors {i} and {j} are linearly dependent")
    order = 3 if order is None else _integer(order, "order", 3)
    if kind != "rank2_to_k" and order != 3:
        raise ValidationError(f"{kind} is an order-3 family")
    eps = DEFAULT_EPSILONS if epsilons is None else tuple(float(e) for e in epsilons)
    if not all(0 < e < math.inf for e in eps):  # NaN fails too
        raise ValidationError("epsilon schedule must be positive and finite")
    return BorderSequenceSpec(kind, base, order, eps)


@dataclass(frozen=True)
class BorderStep:
    """One sequence member, the sequence limit, and the low-rank witness."""

    a_eps: SymmetricTensor
    a_limit: SymmetricTensor
    witness: SymmetricDecomposition


def _tangent_pairs(spec: BorderSequenceSpec) -> tuple[np.ndarray, np.ndarray]:
    """Rows u and v of the pairs whose tangents T(u, v) = d/de (u + e v)^xk at e = 0 sum to the limit."""
    return tuple(np.array(spec.base_vectors)[list(ids)] for ids in zip(*_TANGENT_PAIRS[spec.kind]))


def border_sequence(spec: BorderSequenceSpec, epsilon: float) -> BorderStep:
    """Evaluate one member of a border-rank family.

    The limit A_0 is the sum of the tangents T(u, v) of the family's pairs,
    and the member A_eps is reconstructed exactly from its low-rank witness,
    so frobenius_distance(A_eps, A_0) measures the approach; it shrinks
    linearly in epsilon for every kind.  The witness of each pair is the
    forward difference (1/eps)(u + eps v)^xk - (1/eps) u^xk.  rank2_to_3
    instead takes the central difference of (y, x) along eta = sqrt(epsilon),
    the schedule that makes the approach linear, written as the two terms
    eta^2 (x + y/eta)^x3 + eta^2 (x - y/eta)^x3.
    """
    if not 0 < epsilon < math.inf:
        raise ValidationError("epsilon must be positive and finite; the witness is undefined at the limit")
    k, (u, v) = spec.order, _tangent_pairs(spec)
    if spec.kind == "rank2_to_3":  # its two pairs are both (y, x), so the rows are x + y/eta and x - y/eta
        eta = math.sqrt(epsilon)
        weights, vectors = np.full(2, eta**2), v + np.array([[1.0 / eta], [-1.0 / eta]]) * u
    else:
        weights, vectors = np.repeat([1 / epsilon, -1 / epsilon], len(u)), np.concatenate([u + epsilon * v, u])
    witness = _normalized(k, weights, vectors, None)
    limit = SymmetricTensor._of(k, u.shape[1], sum(_tangent_vector(a, b, k) for a, b in zip(u, v)))
    return BorderStep(reconstruct(witness), limit, witness)


def limit_decomposition(spec: BorderSequenceSpec) -> SymmetricDecomposition:
    """An explicit higher-rank decomposition of the sequence limit.

    rank2_to_3: the three-term identity (x+y)^x3 + (x-y)^x3 - 2 x^x3.
    Otherwise k terms k*w_i (v + beta_i u)^xk per tangent pair (u, v), from
    the monomial construction with the variable roles swapped.
    """
    x, y = np.array(spec.base_vectors[:2])
    if spec.kind == "rank2_to_3":
        return _normalized(3, np.array([1.0, 1.0, -2.0]), np.array([x + y, x - y, x]), None)
    k, (u, v) = spec.order, _tangent_pairs(spec)
    mono = decompose_monomial_rank_k(k)
    # monomial vectors arrive normalized as (1, beta_i); the terms run over the pairs within each beta_i
    vectors = (v + mono.vectors[:, 1, None, None] * u).reshape(-1, len(x))
    return _normalized(k, np.repeat(k * mono.weights, len(u)), vectors, "C")


def border_distance_table(spec: BorderSequenceSpec) -> list[tuple[float, float]]:
    """(epsilon, frobenius distance to the limit) over the stored schedule."""
    steps = [border_sequence(spec, eps) for eps in spec.epsilons]
    return [(eps, frobenius_distance(step.a_eps, step.a_limit)) for eps, step in zip(spec.epsilons, steps)]


def fit_loglog_slope(table) -> float:
    """Least-squares slope of log distance against log epsilon, over the pairs of positive distance: a zero distance
    has no log and is dropped.  Every epsilon must be positive and finite, every distance finite."""
    eps, dist = np.array([(e, d) for e, d in table], dtype=float).reshape(-1, 2).T
    bad = not ((0 < eps) & (eps < math.inf)).all() or not np.isfinite(dist).all()  # NaN fails too
    if bad or len(set(eps[dist > 0].tolist())) < 2:
        raise ValidationError("a slope needs finite pairs, epsilons > 0 and two distinct epsilons of distance > 0")
    return float(np.polyfit(np.log(eps[dist > 0]), np.log(dist[dist > 0]), 1)[0])


def decomposition_to_json_obj(D: SymmetricDecomposition) -> dict:
    """JSON object for a decomposition: every weight and vector component as a [re, im] pair."""
    terms = [{"weight": w, "vector": v} for w, v in zip(_pairs(D.weights), _pairs(D.vectors))]
    return {"order": D.order, "dim": D.dim, "field": D.field_tag, "terms": terms}


def decomposition_from_json_obj(obj) -> SymmetricDecomposition:
    """Parse the decomposition JSON format; terms are renormalized on input."""
    order, dim, field, terms_json = _fields(obj, ("order", "dim", "field", "terms"))
    order, dim = _integer(order, "field 'order'", 1), _integer(dim, "field 'dim'", 1)
    if field not in ("R", "C"):
        raise ValidationError("field 'field': must be 'R' or 'C'")
    if not isinstance(terms_json, list) or not terms_json:
        raise ValidationError("field 'terms': expected a nonempty list")
    rows = []
    for item in terms_json:
        if not isinstance(item, dict) or "weight" not in item or "vector" not in item:
            raise ValidationError("field 'terms': each item needs 'weight' and 'vector'")
        if not isinstance(vec := item["vector"], list) or len(vec) != dim:
            raise ValidationError(f"field 'vector': expected {dim} component pairs")
        rows.append([_read_pair(item["weight"], "weight")] + [_read_pair(c, "vector") for c in vec])
    block = np.array(rows)
    return _normalized(order, block[:, 0], block[:, 1:], field)
