"""Constructive symmetric outer product decompositions.

Binary tensors go through one route, Sylvester's: the nodes are the
homogeneous roots of a form apolar to the moments m_j = a_(k-j, j), and one
Vandermonde solve gives the weights.  The apolar form is t^k - 1 for the
monomial z1*z2^(k-1), and the catalecticant kernel for 2x2x2 tensors over R
or C, real rank 3 included.  Three border-rank sequences, sums of tangents,
have members of low symmetric rank but limits that do not.  A universal
verifier measures any stated decomposition against any target tensor.

Decomposition terms are normalized so the first nonzero component of each
vector is 1, with the scale absorbed into the weight, and sorted by the
second vector component so serialized output is deterministic.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .combinatorics import _class_columns, enumerate_exponents
from .errors import DegeneratePencilError, ValidationError
from .tensor_core import (
    SymmetricTensor,
    _complex_pair,
    _monomials,
    _read_pair,
    _read_size,
    frobenius_distance,
    frobenius_norm,
    numerical_rank,
)

DEFAULT_VERIFY_TOL = 1e-9
PENCIL_DEGENERACY_TOL = 1e-12
REAL_FIELD_TOL = 1e-12
DEFAULT_EPSILONS = tuple(2.0**-i for i in range(3, 11))


@dataclass(frozen=True)
class SymmetricDecomposition:
    """Terms (weight, vector) representing sum_i weight_i * vector_i^xk."""

    order: int
    dim: int
    terms: tuple[tuple[complex, tuple[complex, ...]], ...]
    field_tag: str


def make_decomposition(order: int, dim: int, terms, field_tag: str | None = None) -> SymmetricDecomposition:
    """Normalize, validate, and deterministically order decomposition terms.

    Each vector is scaled so its first nonzero component is 1, the k-th power
    of the scale moving into the weight; a non-finite result is rejected.
    field_tag None auto-detects: R when every weight and component has an
    imaginary part at most 1e-12, C otherwise; "R" also zeroes those parts.
    """
    if order < 1:
        raise ValidationError("a decomposition needs order >= 1")
    if dim < 1:
        raise ValidationError("a decomposition needs dimension >= 1")
    normalized: list[tuple[complex, tuple[complex, ...]]] = []
    for weight, vector in terms:
        v = tuple(complex(c) for c in vector)
        if len(v) != dim:
            raise ValidationError(f"vector {v} has {len(v)} components, expected {dim}")
        pivot = next((c for c in v if c != 0), None)
        if pivot is None:
            raise ValidationError("decomposition vectors must be nonzero")
        try:
            normalized.append((complex(weight) * pivot**order, tuple(c / pivot for c in v)))
        except OverflowError:  # complex ** raises where float arithmetic gives inf
            normalized.append((complex(math.inf), v))

    flat = [w for w, _ in normalized] + [c for _, v in normalized for c in v]
    if not all(map(cmath.isfinite, flat)):
        raise ValidationError("decomposition terms must be finite once each vector leads with 1")
    imag_span = max((abs(x.imag) for x in flat), default=0.0)
    if field_tag is None:
        field_tag = "R" if imag_span <= REAL_FIELD_TOL else "C"
    if field_tag not in ("R", "C"):
        raise ValidationError("field tag must be 'R' or 'C'")
    if field_tag == "R":
        if imag_span > REAL_FIELD_TOL:
            raise ValidationError(f"field tag R requires imaginary parts at most {REAL_FIELD_TOL}")
        normalized = [
            (complex(w.real, 0.0), tuple(complex(c.real, 0.0) for c in v))
            for w, v in normalized
        ]

    def sort_key(term):
        w, v = term
        anchor = v[1] if len(v) > 1 else v[0]
        return (anchor.real, anchor.imag, w.real, w.imag)

    return SymmetricDecomposition(order, dim, tuple(sorted(normalized, key=sort_key)), field_tag)


def reconstruct(D: SymmetricDecomposition) -> SymmetricTensor:
    """Sum of weighted outer powers, in compressed form, added term by term."""
    vectors = np.array([v for _, v in D.terms], dtype=np.complex128).reshape(-1, D.dim)
    with np.errstate(over="ignore", invalid="ignore"):  # SymmetricTensor._of rejects a non-finite sum
        powers = _monomials(vectors, D.order, _class_columns(D.order, D.dim))
        powers *= np.array([w for w, _ in D.terms], dtype=np.complex128)[:, None]
        total = powers.sum(axis=0)
    return SymmetricTensor._of(D.order, D.dim, total)


@dataclass(frozen=True)
class VerifyReport:
    residual: float
    ok: bool
    stated_rank: int


def verify(D: SymmetricDecomposition, A: SymmetricTensor, tol: float = DEFAULT_VERIFY_TOL) -> VerifyReport:
    """Frobenius residual of reconstruct(D) against A, passed at tol*(1+||A||).

    Where that threshold overflows, both sides are compared at the shared scale 2^-600.
    """
    if (D.order, D.dim) != (A.order, A.dim):
        raise ValidationError(
            f"shape mismatch: decomposition ({D.order}, {D.dim}) vs tensor ({A.order}, {A.dim})"
        )
    if tol < 0:
        raise ValidationError("tolerance must be >= 0")
    R = reconstruct(D)
    residual, bound = frobenius_distance(R, A), tol * (1.0 + frobenius_norm(A))
    ok = residual <= bound
    if math.isinf(bound):  # 2^22 classes of size below 2^1024 keep every norm below 2^(1547-600) there
        R, A = (SymmetricTensor._of(A.order, A.dim, T._vector * 2.0**-600) for T in (R, A))
        ok = frobenius_distance(R, A) <= tol * (2.0**-600 + frobenius_norm(A))
    return VerifyReport(residual, ok, len(D.terms))


def binary_monomial_tensor(k: int) -> SymmetricTensor:
    """The symmetric tensor of the quantic z1 * z2^(k-1): one class entry 1/k."""
    if k < 2:
        raise ValidationError("the monomial construction needs order k >= 2")
    return SymmetricTensor(k, 2, {(1, k - 1): 1.0 / k})


def _moments(A: SymmetricTensor) -> list[complex]:
    """Moments m_j = a_(k-j, j), j = 0..k, of a binary tensor: its graded-lex class vector."""
    return A._vector.tolist()


def _sylvester(m: list, nodes, field_tag: str) -> SymmetricDecomposition:
    """Decomposition with homogeneous nodes (alpha_i, beta_i), roots of a form apolar to m.

    Every node is scaled to unit max-norm, a component below rounding level
    set to zero, and one least-squares solve of the Vandermonde system
    sum_i w_i alpha_i^(k-j) beta_i^j = m_j over all k+1 moments gives the
    weights.  The moments are divided by their largest magnitude first, so no
    product overflows.
    """
    k = len(m) - 1
    scale = max(abs(v) for v in m)
    eps = np.finfo(float).eps
    points = [
        tuple(c / s if abs(c) > eps * s else 0.0 for c in node)
        for node in nodes
        for s in [max(abs(node[0]), abs(node[1]))]
    ]
    vander = np.array([[x ** (k - j) * y**j for x, y in points] for j in range(k + 1)])
    rhs = np.array(m) / scale
    if field_tag == "R":
        vander, rhs = vander.real, rhs.real
    weights = scale * np.linalg.lstsq(vander, rhs, rcond=None)[0]
    return make_decomposition(k, 2, zip(weights.tolist(), points), field_tag=field_tag)


def _roots_of_unity_decomposition(A: SymmetricTensor) -> SymmetricDecomposition:
    """k terms over C with nodes (1, beta_i), beta_i the roots of the apolar form t^k - 1.

    Exact whenever m_k equals m_0, as for every multiple of z1 * z2^(k-1).
    """
    k = A.order
    return _sylvester(_moments(A), [(1.0, cmath.exp(2j * cmath.pi * i / k)) for i in range(k)], "C")


def decompose_monomial_rank_k(k: int) -> SymmetricDecomposition:
    """Rank-k decomposition of the tensor of z1 * z2^(k-1) over C.

    The directions are (1, beta_i), beta_i the k-th roots of unity; the
    weights come out as beta_i / k^2.
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
    return _catalecticant_kernel(*_moments(A))


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


def _scaled_entries(values: list, field: str) -> tuple[list, list]:
    """values, real parts only over R (checked real), and values over their largest magnitude."""
    scale = max(abs(v) for v in values)
    if field == "R":
        if max(abs(v.imag) for v in values) > REAL_FIELD_TOL * (1.0 + scale):
            raise ValidationError("field R needs a real tensor")
        values = [v.real for v in values]
    return values, [v / (scale or 1.0) for v in values]


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

    Sylvester's method: the kernel (a, b, c) of the 2x3 catalecticant, which
    is also the slice-pencil determinant det(A0 - t*A1) = a t^2 + b t + c, is
    a quadratic form apolar to A.  Its two homogeneous roots (q, a) and (c, q),
    q the cancellation-free root of the quadratic, are the directions of a
    two-term decomposition; a vanishing a gives the direction (1, 0) with no
    special case.  One least-squares Vandermonde solve gives the weights.
    Over R with complex-conjugate roots no real two-term decomposition exists
    and a verified three-term real decomposition is returned instead,
    classified real_rank_3.  Degenerate pencils (zero or constant
    determinant, double eigenvalue) raise DegeneratePencilError.
    """
    _require_sym222(A)
    if field not in ("R", "C"):
        raise ValidationError("field must be 'R' or 'C'")
    m, unit = _scaled_entries(_moments(A), field)
    a, b, c = _catalecticant_kernel(*unit)
    masks, disc = _pencil_rule(a, b, c)
    for condition, hit in zip(_PENCIL_CONDITIONS, masks):
        if hit:
            raise DegeneratePencilError(condition)
    if field == "R" and disc < 0:
        return PencilResult("real_rank_3", _real_rank3_decomposition(A, m))
    sq = cmath.sqrt(disc)
    q = -(b + sq) / 2 if abs(b + sq) >= abs(b - sq) else -(b - sq) / 2
    return PencilResult("rank_2", _sylvester(m, [(q, a), (c, q)], field))


_RANK3_PAIRS = tuple(itertools.combinations(((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0)), 2))


def _sine(u, v) -> float:
    """|sin| of the angle between two real vectors; 0 when either vanishes."""
    norms = math.hypot(*u) * math.hypot(*v)
    return abs(u[0] * v[1] - u[1] * v[0]) / norms if norms else 0.0


def _real_rank3_decomposition(A: SymmetricTensor, m: list[float]) -> SymmetricDecomposition:
    """Three real powers of linear forms summing to a real 2x2x2 tensor.

    A cubic form g is apolar to A when sum_j g_j m_j = 0.  With g = h * l and
    h = l_P l_Q the quadratic vanishing at two real nodes P and Q, that reads
    l(H h) = 0 for the 2x3 catalecticant H, so the third root of g is the
    node R = H h.  Of the six pairs of the four fixed nodes (1, 0), (0, 1),
    (1, 1), (1, -1) the one whose three nodes are most separated is kept: R
    can fall on P or Q for at most five of them.  The result is verified once.
    """
    top = max(abs(v) for v in m)

    def with_third_node(P, Q):
        # l_P l_Q = (p1 s - p0 t)(q1 s - q0 t) in the basis s^2, s t, t^2
        h = (P[1] * Q[1], -(P[1] * Q[0] + P[0] * Q[1]), P[0] * Q[0])
        return P, Q, tuple(sum(hj * mj / top for hj, mj in zip(h, m[r : r + 3])) for r in (0, 1))

    def separation(nodes):
        return min(_sine(u, v) for u, v in itertools.combinations(nodes, 2))

    nodes = max(itertools.starmap(with_third_node, _RANK3_PAIRS), key=separation)
    decomposition = _sylvester(m, nodes, "R")
    if not verify(decomposition, A).ok:
        raise DegeneratePencilError("no real three-term decomposition verifies")
    return decomposition


def _vcombine(u, v, s) -> tuple[complex, ...]:
    return tuple(complex(a) + s * complex(b) for a, b in zip(u, v))


def _tangent_vector(u, v, k: int) -> np.ndarray:
    """Class vector of the tangent T(u, v) = d/de (u + e v)^xk at e = 0."""
    us = [complex(c) for c in u]
    vs = [complex(c) for c in v]
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
        base_vectors = tuple(
            tuple(1.0 + 0j if i == j else 0j for j in range(wanted)) for i in range(wanted)
        )
    base = tuple(tuple(complex(c) for c in v) for v in base_vectors)
    if len(base) != wanted:
        raise ValidationError(f"{kind} needs {wanted} base vectors, got {len(base)}")
    if len({len(v) for v in base}) != 1:
        raise ValidationError("base vectors must share one dimension")
    for i in range(len(base)):
        for j in range(i + 1, len(base)):
            if numerical_rank(np.array([base[i], base[j]])) != 2:
                raise ValidationError(f"base vectors {i} and {j} are linearly dependent")
    if order is None:
        order = 3
    if kind != "rank2_to_k" and order != 3:
        raise ValidationError(f"{kind} is an order-3 family")
    if order < 3:
        raise ValidationError("border sequences need order >= 3")
    eps = DEFAULT_EPSILONS if epsilons is None else tuple(float(e) for e in epsilons)
    if any(e <= 0 for e in eps):
        raise ValidationError("epsilon schedule must be positive")
    return BorderSequenceSpec(kind, base, order, eps)


@dataclass(frozen=True)
class BorderStep:
    """One sequence member, the sequence limit, and the low-rank witness."""

    a_eps: SymmetricTensor
    a_limit: SymmetricTensor
    witness: SymmetricDecomposition


def _tangent_pairs(spec: BorderSequenceSpec) -> list[tuple[tuple[complex, ...], ...]]:
    """The pairs (u, v) whose tangents T(u, v) = d/de (u + e v)^xk at e = 0 sum to the limit."""
    return [(spec.base_vectors[i], spec.base_vectors[j]) for i, j in _TANGENT_PAIRS[spec.kind]]


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
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive; the witness is undefined at the limit")
    k, n = spec.order, len(spec.base_vectors[0])
    pairs = _tangent_pairs(spec)
    if spec.kind == "rank2_to_3":
        x, y = spec.base_vectors
        eta = math.sqrt(epsilon)
        terms = [(eta**2, _vcombine(x, y, 1.0 / eta)), (eta**2, _vcombine(x, y, -1.0 / eta))]
    else:
        terms = [t for u, v in pairs for t in ((1 / epsilon, _vcombine(u, v, epsilon)), (-1 / epsilon, u))]
    witness = make_decomposition(k, n, terms)
    limit = SymmetricTensor._of(k, n, sum(_tangent_vector(u, v, k) for u, v in pairs))
    return BorderStep(reconstruct(witness), limit, witness)


def limit_decomposition(spec: BorderSequenceSpec) -> SymmetricDecomposition:
    """An explicit higher-rank decomposition of the sequence limit.

    rank2_to_3: the three-term identity (x+y)^x3 + (x-y)^x3 - 2 x^x3.
    Otherwise k terms k*w_i (v + beta_i u)^xk per tangent pair (u, v), from
    the monomial construction with the variable roles swapped.
    """
    x, y = spec.base_vectors[:2]
    if spec.kind == "rank2_to_3":
        terms = [
            (1.0 + 0j, _vcombine(x, y, 1.0)),
            (1.0 + 0j, _vcombine(x, y, -1.0)),
            (-2.0 + 0j, x),
        ]
        return make_decomposition(3, len(x), terms)
    k, pairs = spec.order, _tangent_pairs(spec)
    mono = decompose_monomial_rank_k(k)
    # monomial vectors arrive normalized as (1, beta_i)
    terms = [(k * w, _vcombine(v, u, vec[1])) for w, vec in mono.terms for u, v in pairs]
    return make_decomposition(k, len(x), terms, field_tag="C")


def border_distance_table(spec: BorderSequenceSpec) -> list[tuple[float, float]]:
    """(epsilon, frobenius distance to the limit) over the stored schedule."""
    out = []
    for eps in spec.epsilons:
        step = border_sequence(spec, eps)
        out.append((eps, frobenius_distance(step.a_eps, step.a_limit)))
    return out


def fit_loglog_slope(table) -> float:
    """Least-squares slope of log distance against log epsilon."""
    pairs = [(e, d) for e, d in table if d > 0]
    if len(pairs) < 2:
        raise ValidationError("need at least two positive distances to fit a slope")
    eps = np.log([e for e, _ in pairs])
    dist = np.log([d for _, d in pairs])
    return float(np.polyfit(eps, dist, 1)[0])


def decomposition_to_json_obj(D: SymmetricDecomposition) -> dict:
    """JSON object for a decomposition."""
    return {
        "order": D.order,
        "dim": D.dim,
        "field": D.field_tag,
        "terms": [
            {"weight": _complex_pair(w), "vector": [_complex_pair(c) for c in v]}
            for w, v in D.terms
        ],
    }


def decomposition_from_json_obj(obj) -> SymmetricDecomposition:
    """Parse the decomposition JSON format; terms are renormalized on input."""
    if not isinstance(obj, dict):
        raise ValidationError("field '<root>': expected a JSON object")
    for key in ("order", "dim", "field", "terms"):
        if key not in obj:
            raise ValidationError(f"field '{key}': missing")
    order, dim = (_read_size(obj[key], key) for key in ("order", "dim"))
    field = obj["field"]
    if field not in ("R", "C"):
        raise ValidationError("field 'field': must be 'R' or 'C'")
    terms_json = obj["terms"]
    if not isinstance(terms_json, list) or not terms_json:
        raise ValidationError("field 'terms': expected a nonempty list")
    terms = []
    for item in terms_json:
        if not isinstance(item, dict) or "weight" not in item or "vector" not in item:
            raise ValidationError("field 'terms': each item needs 'weight' and 'vector'")
        vec = item["vector"]
        if not isinstance(vec, list) or len(vec) != dim:
            raise ValidationError(f"field 'vector': expected {dim} component pairs")
        terms.append(
            (_read_pair(item["weight"], "weight"), tuple(_read_pair(c, "vector") for c in vec))
        )
    return make_decomposition(order, dim, terms, field_tag=field)
