from __future__ import annotations

import cmath
import dataclasses
import itertools
import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from waring.combinatorics import enumerate_exponents
from waring.decompose import (
    DEFAULT_EPSILONS,
    binary_monomial_tensor,
    border_distance_table,
    border_sequence,
    decompose_monomial_rank_k,
    decompose_sym222_pencil,
    decomposition_from_json_obj,
    decomposition_to_json_obj,
    fit_loglog_slope,
    limit_decomposition,
    make_border_spec,
    make_decomposition,
    pencil_quadratic,
    reconstruct,
    verify,
)
from waring.errors import ArithmeticOverflowError, DecompositionError, DegeneratePencilError, ValidationError
from waring.quantics import parse_quantic, quantic_to_tensor, render_quantic, tensor_to_quantic
from waring.rank_oracle import generic_symmetric_rank
from waring.tensor_core import (
    SymmetricTensor, frobenius_distance, frobenius_norm, outer_power, power_span_rank, tensor_from_json_obj,
)

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture(name):
    return json.loads((FIXTURES / name).read_text())


def random_sym222(rng, real=False):
    coeffs = {
        p: complex(rng.normal(), 0.0 if real else rng.normal())
        for p in enumerate_exponents(3, 2)
    }
    return SymmetricTensor(3, 2, coeffs)


# --- term normalization and verification -------------------------------------


def test_make_decomposition_normalizes_leading_component():
    d = make_decomposition(3, 2, [(2.0, (2.0, 4.0))])
    ((w, v),) = d.terms
    assert v == (1.0, 2.0)
    assert w == pytest.approx(16.0)  # 2 * 2^3


def test_make_decomposition_sorts_terms():
    d = make_decomposition(2, 2, [(1.0, (1.0, 3.0)), (1.0, (1.0, -3.0))])
    assert [v[1] for _, v in d.terms] == [-3.0, 3.0]


def test_make_decomposition_field_detection():
    assert make_decomposition(2, 2, [(1.0, (1.0, 1.0))]).field_tag == "R"
    assert make_decomposition(2, 2, [(1.0, (1.0, 1.0j))]).field_tag == "C"
    with pytest.raises(ValidationError):
        make_decomposition(2, 2, [(1.0j, (1.0, 1.0))], field_tag="R")


def test_make_decomposition_tags_r_only_when_every_imaginary_part_is_zero():
    # an imaginary part far below 1e-12 is still complex, and reconstruct keeps it
    d = make_decomposition(3, 2, [(2**-300 * 1j, (1.0, 0.5))])
    assert d.field_tag == "C"
    assert reconstruct(d).coeffs[(3, 0)] == 2**-300 * 1j


def test_make_decomposition_rejects_zero_vector():
    with pytest.raises(ValidationError):
        make_decomposition(2, 2, [(1.0, (0.0, 0.0))])


@pytest.mark.parametrize(
    "weight, vector",
    [
        (1.0, (1e200, 0.0)),  # the pivot's cube overflows: complex ** raises OverflowError
        (1e300, (1e3, 0.0)),  # the weight times the pivot's cube overflows to inf
        (1.0, (1e-300, 1e10)),  # dividing by the pivot overflows
    ],
)
def test_make_decomposition_rejects_terms_that_overflow_when_normalized(weight, vector):
    with pytest.raises(ValidationError, match="terms must be finite"):
        make_decomposition(3, 2, [(weight, vector)])


def test_reconstruct_single_power():
    v = (1.0, -2.0)
    d = make_decomposition(3, 2, [(1.0, v)])
    assert frobenius_distance(reconstruct(d), outer_power(v, 3)) == 0.0


def test_verify_reports_residual_and_rank():
    a = quantic_to_tensor(parse_quantic("3*x1*x2^2 - 1*x1^3"))
    d = make_decomposition(3, 2, [(0.5, (1, 1)), (0.5, (1, -1)), (-2, (1, 0))])
    rep = verify(d, a, 1e-12)
    assert rep.ok and rep.residual <= 1e-12 and rep.stated_rank == 3

    wrong = make_decomposition(3, 2, [(1.0, (1, 1))])
    rep = verify(wrong, a)
    assert not rep.ok and rep.residual > 0.1


def _count_power_sums(monkeypatch) -> list:
    import waring.decompose as dc

    calls, kernel = [], dc._power_sum
    monkeypatch.setattr(dc, "_power_sum", lambda *args: calls.append(args) or kernel(*args))
    return calls


def _round_trip(d):
    return decomposition_from_json_obj(json.loads(json.dumps(decomposition_to_json_obj(d))))


def test_reconstruct_then_verify_twice_runs_one_power_sum(monkeypatch):
    # what every tensor-grid op does, plus a second tolerance
    rng = np.random.default_rng(21)
    terms = [(complex(*rng.normal(size=2)), tuple(rng.normal(size=3) + 1j * rng.normal(size=3))) for _ in range(6)]
    a = reconstruct(make_decomposition(4, 3, terms))
    calls = _count_power_sums(monkeypatch)
    d = make_decomposition(4, 3, terms)
    rebuilt = reconstruct(d)
    loose, tight = verify(d, a, 1e-3), verify(d, a)
    assert len(calls) == 1 and reconstruct(d) is rebuilt
    assert loose.ok and tight.ok and (loose.residual, loose.stated_rank) == (tight.residual, tight.stated_rank)


@pytest.mark.parametrize("a, decompose", [
    (quantic_to_tensor(parse_quantic("3*x1*x2^2 - 1*x1^3")), lambda a: decompose_sym222_pencil(a).decomposition),
    (quantic_to_tensor(parse_quantic("3*x1*x2^2 - 1*x1^3")), lambda a: decompose_sym222_pencil(a, "R").decomposition),
    (binary_monomial_tensor(5), lambda a: decompose_monomial_rank_k(a.order)),
], ids=["pencil C", "pencil R", "monomial"])
def test_verify_after_a_binary_decomposer_runs_no_second_power_sum(monkeypatch, a, decompose):
    # the decomposer's exit verified the very record it returns, and README's example verifies it again
    decompose_monomial_rank_k.cache_clear()  # else a kept monomial record runs no power sum at all
    calls = _count_power_sums(monkeypatch)
    d = decompose(a)
    assert verify(d, a).ok and len(calls) == 1


def test_a_kept_reconstruction_reads_as_a_new_record_bit_for_bit():
    # the pencil's exit kept d's reconstruction; a new record of the same arrays has none until it is read
    a = quantic_to_tensor(parse_quantic("3*x1*x2^2 - 1*x1^3 + 0.5j*x2^3"))
    d = decompose_sym222_pencil(a).decomposition
    new = dataclasses.replace(d)
    shown = repr(new), json.dumps(decomposition_to_json_obj(new))
    assert "_reconstruction" in vars(d) and "_reconstruction" not in vars(new)
    assert reconstruct(new)._vector.tobytes() == reconstruct(d)._vector.tobytes()
    assert "_reconstruction" in vars(new) and (repr(new), json.dumps(decomposition_to_json_obj(new))) == shown
    assert new == d and d == new and repr(d) == shown[0]
    assert [f.name for f in dataclasses.fields(d)] == ["order", "dim", "weights", "vectors", "field_tag"]
    for tol, renew in itertools.product((1e-9, 1e-15, 0.0), (dataclasses.replace, _round_trip)):
        kept, fresh = verify(d, a, tol), verify(renew(d), a, tol)
        assert (kept.residual.hex(), kept.bound.hex(), kept.ok) == (fresh.residual.hex(), fresh.bound.hex(), fresh.ok)


def test_a_reconstruction_that_overflows_is_refused_on_every_call():
    d = make_decomposition(3, 2, [(2.0**1000, (1, 2.0**10))])
    a = SymmetricTensor(3, 2, {(3, 0): 1.0})
    messages = []
    for call in (reconstruct, lambda d: verify(d, a), reconstruct, lambda d: verify(d, a, 1e-3)):
        with pytest.raises(ValidationError) as info:
            call(d)
        messages.append(str(info.value))
    assert messages == ["coefficients must be finite"] * 4 and "_reconstruction" not in vars(d)


# ||A|| = 2.1e308 overflows, so tol * (1 + ||A||) is infinite at the plain scale
HUGE_PAIR = SymmetricTensor(3, 2, {(3, 0): 1.5e308, (0, 3): 1.5e308})


@pytest.mark.parametrize("terms", [[(1e308, (1, 0))], [(-1.5e308, (1, 0))]])
def test_verify_fails_a_wrong_decomposition_when_the_norm_overflows(terms):
    # the first residual is 1.58e308, the second overflows to inf
    assert not verify(make_decomposition(3, 2, terms), HUGE_PAIR).ok


def test_verify_passes_the_exact_pair_when_the_norm_overflows():
    exact = make_decomposition(3, 2, [(1.5e308, (1, 0)), (1.5e308, (0, 1))])
    rep = verify(exact, HUGE_PAIR)
    assert rep.ok and rep.residual == 0.0
    assert verify(make_decomposition(3, 2, [(1.5e308, (1, 0)), (1.4e308, (0, 1))]), HUGE_PAIR, 0.1).ok


def test_verify_measures_a_small_tensor_against_its_own_norm():
    # 1e-12 (0, 1)^3 against 1e-12 x1^3: the residual is sqrt(2) times the tensor's norm
    small = SymmetricTensor(3, 2, {(3, 0): 1e-12})
    rep = verify(make_decomposition(3, 2, [(1e-12, (0, 1))]), small)
    assert not rep.ok and rep.residual == pytest.approx(math.sqrt(2) * 1e-12, rel=1e-15)
    assert verify(make_decomposition(3, 2, [(1e-12, (1, 0))]), small).ok
    # with no floor, only an exactly zero reconstruction verifies against the zero tensor
    zero = SymmetricTensor(3, 2, {})
    assert verify(make_decomposition(3, 2, [(1.0, (1, 0)), (-1.0, (1, 0))]), zero).ok
    assert not verify(make_decomposition(3, 2, [(1e-300, (1, 0))]), zero).ok


@pytest.mark.parametrize("weight, ok", [(2.0, False), (1.0, True), (1.0 + 1e-6, False), (1.0 + 1e-12, True)])
def test_verify_at_orders_whose_class_sizes_near_the_float_range(weight, ok):
    # (x1 + x2)^1024 has norm 2^512, though its weighted sum of squares is 2^1024
    ones = SymmetricTensor(1024, 2, {(1024 - j, j): 1.0 for j in range(1025)})
    rep = verify(make_decomposition(1024, 2, [(weight, (1, 1))]), ones)
    assert rep.ok == ok and rep.residual == pytest.approx(abs(weight - 1.0) * 2.0**512, rel=1e-9)


@pytest.mark.parametrize("terms, tag", [
    ([(1e-20 + 1e-13j, (1, 0.5))], None),  # an imaginary part 10^7 times the real one
    ([(1e10 + 1e-3j, (1, 0.5))], "R"),  # an imaginary part 1e-13 of the real one
    ([(1.0, (1, 0.5 + 4e-13j))], "R"),
    ([(1.0, (1, 0.5 + 1e-11j))], None),
])
def test_field_tag_r_bounds_each_imaginary_part_by_its_real_part(terms, tag):
    if tag is None:
        with pytest.raises(ValidationError, match="field tag R requires"):
            make_decomposition(3, 2, terms, "R")
    else:
        d = make_decomposition(3, 2, terms, "R")
        assert d.field_tag == tag and all(w.imag == 0 and all(c.imag == 0 for c in v) for w, v in d.terms)


def test_decompose_over_r_measures_imaginary_parts_against_the_entries():
    # an imaginary part 10^7 times every real entry is not real, however small both are
    tiny = SymmetricTensor(3, 2, {(3, 0): 1e-20 + 1e-13j, (2, 1): 2e-20, (1, 2): 3e-20, (0, 3): 0.5e-20})
    with pytest.raises(ValidationError, match="field R needs a real tensor"):
        decompose_sym222_pencil(tiny, "R")
    real = SymmetricTensor(3, 2, {(3, 0): 1e-20 + 1e-33j, (2, 1): 2e-20, (1, 2): 3e-20, (0, 3): 0.5e-20})
    assert verify(decompose_sym222_pencil(real, "R").decomposition, real).ok


def _loop_normalized(order, terms, field_tag=None):
    """The per-term normalization make_decomposition ran before its terms became arrays, kept as the reference."""
    normalized = []
    for weight, vector in terms:
        v = tuple(complex(c) for c in vector)
        pivot = next(c for c in v if c != 0)
        normalized.append((complex(weight) * pivot**order, tuple(c / pivot for c in v)))
    if field_tag is None:
        field_tag = "C" if any(w.imag or any(c.imag for c in v) for w, v in normalized) else "R"
    if field_tag == "R":
        normalized = [(complex(w.real, 0.0), tuple(complex(c.real, 0.0) for c in v)) for w, v in normalized]

    def sort_key(term):
        w, v = term
        anchor = v[1] if len(v) > 1 else v[0]
        return (anchor.real, anchor.imag, w.real, w.imag)

    return tuple(sorted(normalized, key=sort_key)), field_tag


def assert_normalized_like_the_loop(d, terms, field_tag=None):
    # numpy divides complex numbers by a reciprocal and multiplies them with a fused multiply-add, so a weight
    # or component may move by one ulp of the larger of its |re| and |im|; the order and the tag may not move
    want, tag = _loop_normalized(d.order, terms, field_tag)
    assert d.field_tag == tag and len(d.terms) == len(want)
    got, ref = (np.array([(w, *v) for w, v in t]) for t in (d.terms, want))
    ulp = np.spacing(np.maximum(abs(ref.real), abs(ref.imag)))
    assert (abs(got.real - ref.real) <= ulp).all() and (abs(got.imag - ref.imag) <= ulp).all()
    assert all(v[next(i for i, c in enumerate(v) if c)].real == 1.0 for _, v in d.terms)


@pytest.mark.parametrize("k,n", [(3, 10), (4, 8), (5, 6), (6, 5), (5, 8), (6, 6)])
def test_the_array_normalizer_equals_the_per_term_loop_on_the_grid_cells(k, n):
    # generic-rank terms as the benchmark's tensor grid draws them, some leading with zeros, complex and real
    rng = np.random.default_rng([k, n, 17])
    shape = (generic_symmetric_rank(k, n), n)
    vectors = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    vectors[::4, : n // 2] = 0
    terms = [(complex(*rng.normal(size=2)), tuple(v)) for v in vectors.tolist()]
    assert_normalized_like_the_loop(make_decomposition(k, n, terms), terms)
    real = [(w.real, tuple(c.real for c in v)) for w, v in terms]
    assert_normalized_like_the_loop(make_decomposition(k, n, real), real)
    assert_normalized_like_the_loop(make_decomposition(k, n, real, "R"), real, "R")


def test_the_array_normalizer_equals_the_per_term_loop_on_the_pencils(monkeypatch):
    # the pencil hands its weights and unit-max-norm nodes to the normalizer; the loop takes the same terms
    import waring.decompose as dc

    seen = []
    normalize = dc._normalized

    def recorded(order, weights, vectors, field_tag):
        seen.append((list(zip(weights.tolist(), map(tuple, vectors.tolist()))), field_tag))
        return normalize(order, weights, vectors, field_tag)

    monkeypatch.setattr(dc, "_normalized", recorded)
    rng = np.random.default_rng(29)
    tensors = [tensor_from_json_obj(load_fixture("cubic_3xyy_minus_xxx.json")),
               sym222_from_moments([0.3, 1.0, 1.0, 1.0 + 4e-6])]
    tensors += [random_sym222(rng, real=True) for _ in range(20)] + [random_sym222(rng) for _ in range(20)]
    checked = 0
    for A in tensors:
        for field in ("C", "R") if all(c.imag == 0 for c in A.coeffs.values()) else ("C",):
            d = decompose_sym222_pencil(A, field).decomposition
            terms, tag = seen[-1]
            assert_normalized_like_the_loop(d, terms, tag)
            checked += 1
    assert checked == 64


@pytest.mark.parametrize("terms, tag, message", [
    ([(1.0, (1.0, 2.0, 3.0))], None, "vector ((1+0j), (2+0j), (3+0j)) has 3 components, expected 2"),
    ([(1.0, (1.0, 1.0)), (1.0, (0.0, 0.0))], None, "decomposition vectors must be nonzero"),
    ([(1e300, (1e3, 0.0))], None, "decomposition terms must be finite once each vector leads with 1"),
    ([(1.0, (1e-300, 1e10))], "C", "decomposition terms must be finite once each vector leads with 1"),
    ([(1.0j, (1.0, 1.0))], "R", "field tag R requires imaginary parts at most 1e-12 of the real parts"),
    ([(1.0, (1.0, 1.0))], "Q", "field tag must be 'R' or 'C'"),
])
def test_make_decomposition_errors_keep_their_text(terms, tag, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        make_decomposition(3, 2, terms, tag)


def test_a_decomposition_stores_read_only_arrays_and_derives_its_terms():
    d = make_decomposition(3, 2, [(2.0, (2.0, 4.0)), (1.0, (1.0, -1.0))])
    assert d.weights.dtype == d.vectors.dtype == np.complex128 and (d.weights.shape, d.vectors.shape) == ((2,), (2, 2))
    assert not d.weights.flags.writeable and not d.vectors.flags.writeable
    assert d.terms == ((1 + 0j, (1 + 0j, -1 + 0j)), (16 + 0j, (1 + 0j, 2 + 0j)))
    assert all(type(w) is complex and all(type(c) is complex for c in v) for w, v in d.terms)
    # value equality over the arrays, which leaves the record unhashable
    same = make_decomposition(3, 2, [(1.0, (1.0, -1.0)), (16.0, (1.0, 2.0))])
    assert same == d and not d != same
    assert d != make_decomposition(3, 2, d.terms[:1]) and d != make_decomposition(4, 2, d.terms) and d != d.terms
    assert d != make_decomposition(3, 2, d.terms, "C") and d != make_decomposition(3, 3, [(1.0, (1.0, -1.0, 0.0))])
    with pytest.raises(TypeError, match="unhashable type: 'SymmetricDecomposition'"):
        hash(d)


_SCALE_SHAPES = [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]


@pytest.mark.parametrize("shift", [300, -300, 1000, -1000])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(shape=st.sampled_from(_SCALE_SHAPES), seed=st.integers(0, 2**32 - 1), nudge=st.floats(0.0, 3.0))
def test_a_power_of_two_scale_changes_no_decision(shift, shape, seed, nudge):
    # verify, is_symmetric and compress judge a tensor and that tensor times 2^shift alike, entries staying normal
    from waring.errors import SymmetryError
    from waring.tensor_core import DenseTensor, compress, decompress, is_symmetric

    k, n = shape
    rng = np.random.default_rng(seed)
    d = make_decomposition(k, n, [(complex(*rng.normal(size=2)), tuple(rng.normal(size=n) + 1j * rng.normal(size=n)))
                                  for _ in range(2)], "C")
    exact = reconstruct(d)._vector
    noise = rng.normal(size=exact.shape) + 1j * rng.normal(size=exact.shape)
    target = exact + nudge * 1e-9 * np.abs(exact).max() * noise / np.abs(noise).max()
    dense = decompress(SymmetricTensor._of(k, n, target.copy())).array.copy()
    dense.reshape(-1)[-2 if n**k > 1 else 0] += nudge * 1e-12 * np.abs(dense).max()

    def judged(p):
        scaled = make_decomposition(k, n, [(w * p, v) for w, v in d.terms], "C")
        report = verify(scaled, SymmetricTensor._of(k, n, target * p))
        try:
            compressed = compress(DenseTensor(dense * p)) is not None
        except SymmetryError:
            compressed = False
        return report.ok, is_symmetric(DenseTensor(dense * p)), compressed, report.residual / p

    *decisions, residual = judged(1.0)
    assert judged(2.0**shift) == (*decisions, pytest.approx(residual, rel=1e-12))


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_verify_refuses_negative_and_nan_tolerances(tol):
    exact = make_decomposition(3, 2, [(1.0, (1, 0))])
    with pytest.raises(ValidationError, match="tolerance must be >= 0"):
        verify(exact, reconstruct(exact), tol)


def test_verify_shape_mismatch():
    d = make_decomposition(2, 2, [(1.0, (1, 0))])
    a = SymmetricTensor(3, 2, {(3, 0): 1.0})
    with pytest.raises(ValidationError):
        verify(d, a)


# --- binary monomial construction ---------------------------------------------


def test_monomial_tensor_single_class():
    t = binary_monomial_tensor(4)
    assert t.coeffs == {(1, 3): 0.25}
    assert render_quantic(tensor_to_quantic(t)) == "x1*x2^3"


@pytest.mark.parametrize("k", range(2, 9))
def test_monomial_decomposition_rank_k(k):
    d = decompose_monomial_rank_k(k)
    assert len(d.terms) == k
    rep = verify(d, binary_monomial_tensor(k), 1e-10)
    assert rep.ok, rep.residual
    vectors = [v for _, v in d.terms]
    assert power_span_rank(vectors, k) == k


def test_monomial_directions_are_roots_of_unity():
    # on the circle of radius rho = sqrt(k - 1) = 2: the roots of t^5 - rho^5
    d = decompose_monomial_rank_k(5)
    betas = sorted((v[1] for _, v in d.terms), key=lambda z: cmath.phase(z))
    for b in betas:
        assert abs(abs(b) - 2.0) <= 1e-12
        assert abs(b**5 - 32.0) <= 1e-12 * 32
    assert abs(sum(betas)) <= 1e-12


@pytest.mark.parametrize("k", [47, 48, 53, 55, 60, 100, 166, 200, 250])
def test_monomial_decomposition_verifies_at_high_order(k):
    # unit-circle nodes failed from k = 53 at tol * (1 + ||A||), and would from k = 48 at tol * ||A||
    assert verify(decompose_monomial_rank_k(k), binary_monomial_tensor(k)).ok


def _record_bytes(d):
    return d.order, d.dim, d.field_tag, d.weights.tobytes(), d.vectors.tobytes()


def test_a_repeated_monomial_call_returns_the_kept_record():
    decompose_monomial_rank_k.cache_clear()
    d = decompose_monomial_rank_k(5)
    assert decompose_monomial_rank_k(5) is d and reconstruct(decompose_monomial_rank_k(5)) is reconstruct(d)
    limit_decomposition(make_border_spec("rank2_to_k", order=5))  # the limit reads the kept record
    assert decompose_monomial_rank_k.cache_info()[:2] == (3, 1)  # hits, misses
    assert decompose_monomial_rank_k.cache_info().maxsize == 8


@pytest.mark.parametrize("k", [*range(2, 61), 494, 495])
def test_the_kept_monomial_record_is_the_one_a_fresh_call_builds(k):
    # order 494's verdict depends on how BLAS splits the solve; within one process both calls see the same split
    kept, fresh = decompose_monomial_rank_k(k), decompose_monomial_rank_k.__wrapped__(k)
    assert decompose_monomial_rank_k(k) is kept and _record_bytes(kept) == _record_bytes(fresh)
    assert reconstruct(kept)._vector.tobytes() == reconstruct(fresh)._vector.tobytes()


def test_a_refused_monomial_order_is_not_kept():
    decompose_monomial_rank_k.cache_clear()
    for _ in range(2):
        for k in (496, 700, 1, 0, -3):
            with pytest.raises((DecompositionError, ValidationError)):
                decompose_monomial_rank_k(k)
    assert decompose_monomial_rank_k.cache_info().currsize == 0


def test_a_numpy_integer_order_gives_an_int_order_and_a_float_is_refused():
    decompose_monomial_rank_k.cache_clear()
    for k in (np.int64(5), 5, np.int32(5)):
        d = decompose_monomial_rank_k(k)
        assert type(d.order) is int and type(reconstruct(d).order) is int and verify(d, binary_monomial_tensor(k)).ok
        assert _record_bytes(d) == _record_bytes(decompose_monomial_rank_k(5))
    # a kept np.int64(5) record compares equal to 5.0 in an untyped key; the typed key still refuses the float
    for k in (5.0, np.float64(5.0), "5", None):
        with pytest.raises(ValidationError, match=r"^order must be an integer, got "):
            decompose_monomial_rank_k(k)
        with pytest.raises(ValidationError, match=r"^order must be an integer, got "):
            binary_monomial_tensor(k)


def test_numpy_integer_orders_reach_verify_the_pencil_and_the_border_tables_as_ints():
    # each died with "'numpy.int64' object has no attribute 'bit_length'" in the class norm
    A = SymmetricTensor(np.int64(3), np.int64(2), {(3, 0): -1.0, (1, 2): 1.0})
    d = make_decomposition(np.int64(3), np.int64(2), decompose_sym222_pencil(A, "R").decomposition.terms)
    assert (type(A.order), type(d.order), type(d.dim)) == (int, int, int) and verify(d, A).ok
    spec = make_border_spec("rank2_to_k", order=np.int64(5))
    assert type(spec.order) is int and border_distance_table(spec) == border_distance_table(
        make_border_spec("rank2_to_k", order=5))
    assert verify(limit_decomposition(spec), border_sequence(spec, 0.1).a_limit).ok


@pytest.mark.parametrize("make", [
    lambda order: make_decomposition(order, 2, [(1.0, (1.0, 2.0))]),
    lambda dim: make_decomposition(3, dim, [(1.0, (1.0, 2.0))]),
    lambda order: make_border_spec("rank2_to_k", order=order),
], ids=["make_decomposition order", "make_decomposition dim", "make_border_spec order"])
@pytest.mark.parametrize("bad", [3.0, 5.5, "3", np.float64(3)])
def test_a_non_integer_order_or_dim_of_a_decomposition_is_a_validation_error(make, bad):
    with pytest.raises(ValidationError, match=r"^(order|dim) must be an integer, got "):
        make(bad)


def test_the_monomial_method_returns_only_what_verify_accepts():
    # order 495 verifies; at 496 and 700 the rounding of the k terms passes the bound, and the method says so
    assert verify(decompose_monomial_rank_k(495), binary_monomial_tensor(495)).ok
    for k in (496, 700):  # residuals 6.15e-11 and 544 against bounds near 4.5e-11 and 3.8e-11
        with pytest.raises(DecompositionError, match=rf"order {k} does not verify: residual \S+ exceeds the bound"):
            decompose_monomial_rank_k(k)
    assert issubclass(DegeneratePencilError, DecompositionError)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), real=st.booleans(), shift=st.sampled_from([-300, 0, 300]),
       lead=st.sampled_from([None, 1e-3, 1e-6]), k=st.integers(2, 60))
def test_every_decomposition_a_public_decomposer_returns_verifies(seed, real, shift, lead, k):
    # cubics at 2^-300, 1 and 2^300, some with the pencil's lead c21 c03 - c12^2 pushed toward zero
    m = random_sym222(np.random.default_rng(seed), real)._vector * 2.0**shift
    if lead is not None and m[1] != 0:
        m[3] = m[2] * m[2] / m[1] * (1 + lead)
    A = sym222_from_moments(m.tolist())
    for field in ("C", "R") if real else ("C",):
        try:
            d = decompose_sym222_pencil(A, field).decomposition
        except DegeneratePencilError:
            continue
        assert verify(d, A).ok
    assert verify(decompose_monomial_rank_k(k), binary_monomial_tensor(k)).ok


def _near_double(d, t=1.0):
    """(x1 + 0.3 x2)^3 + t (x1 + (0.3 + d) x2)^3: its pencil eigenvalues meet as d goes to 0."""
    return reconstruct(make_decomposition(3, 2, [(1.0, (1.0, 0.3)), (t, (1.0, 0.3 + d))]))


@pytest.mark.parametrize("d", [10.0**-e for e in range(2, 9)])
def test_the_pencil_returns_only_what_verify_accepts_as_the_eigenvalues_meet(d):
    # rank 2 only through terms that blow up: the set of rank <= 2 is not closed
    for t in [1.0, *np.random.default_rng(20).uniform(-2.0, 2.0, 3)]:
        A = _near_double(d, t)
        for field in ("C", "R"):
            try:
                result = decompose_sym222_pencil(A, field)
            except DecompositionError:
                continue
            assert verify(result.decomposition, A).ok, (d, t, field)


@pytest.mark.parametrize("d", [10.0**-e for e in range(2, 9)])
def test_over_c_the_rank_2_branch_verifies_down_to_d_1e_4_and_raises_below(d):
    # the threshold the pencil's docstring states: base (1, 0.3), t = 1
    A = _near_double(d)
    if d >= 1e-4:
        result = decompose_sym222_pencil(A, "C")
        assert result.classification == "rank_2" and verify(result.decomposition, A).ok
    else:
        with pytest.raises(DecompositionError, match="^rank_2 decomposition of order 3 does not verify"):
            decompose_sym222_pencil(A, "C")


@pytest.mark.parametrize("field", ["C", "R"])
def test_a_rank_2_result_that_verify_refuses_raises(field):
    A = _near_double(1e-6)
    with pytest.raises(DecompositionError) as info:
        decompose_sym222_pencil(A, field)
    bound = verify(make_decomposition(3, 2, [(0.0, (1.0, 0.0))]), A).bound
    want = r"rank_2 decomposition of order 3 does not verify: residual \S+ exceeds the bound " + re.escape(f"{bound:.3g}")
    assert re.fullmatch(want, str(info.value))
    assert not isinstance(info.value, DegeneratePencilError)


@pytest.mark.parametrize("tol", [1e-9, 1e-12, 0.5])
def test_verify_reports_the_bound_it_compared_against(tol):
    fixtures = [(tensor_from_json_obj(load_fixture("a31_tensor.json")),
                 decomposition_from_json_obj(load_fixture("a31_decomposition.json")))]
    cubic = tensor_from_json_obj(load_fixture("cubic_3xyy_minus_xxx.json"))
    fixtures.append((cubic, decompose_sym222_pencil(cubic, "R").decomposition))
    fixtures.append((binary_monomial_tensor(60), decompose_monomial_rank_k(60)))
    for A, D in fixtures:
        report = verify(D, A, tol)
        want = tol * frobenius_norm(A)
        assert abs(report.bound - want) <= 4 * np.spacing(want)
        assert report.ok == (report.residual <= report.bound)


def test_the_monomial_error_prints_the_bound_verify_reports():
    A = binary_monomial_tensor(496)
    bound = verify(make_decomposition(496, 2, [(0.0, (1.0, 0.0))]), A).bound
    with pytest.raises(DecompositionError, match=rf"^monomial decomposition of order 496 does not verify: residual \S+ "
                                                 rf"exceeds the bound {re.escape(f'{bound:.3g}')}$"):
        decompose_monomial_rank_k(496)


def test_monomial_k2_is_the_classical_identity():
    # z1 z2 = 1/4 (z1+z2)^2 - 1/4 (z1-z2)^2
    d = decompose_monomial_rank_k(2)
    weights = sorted(w.real for w, _ in d.terms)
    assert weights == pytest.approx([-0.25, 0.25])



def _proportional_to_the_monomial(coeffs, k):
    """The rule the monomial method states: only the class (1, k - 1) above 1e-12 of it."""
    pivot = coeffs.get((1, k - 1), 0)
    off = max((abs(v) for p, v in coeffs.items() if p != (1, k - 1)), default=0.0)
    return pivot != 0 and off <= 1e-12 * abs(pivot)


@pytest.mark.parametrize(
    "coeffs",
    [
        {(1, 3): 2.0},
        {(1, 3): 2.0, (4, 0): 2e-12, (0, 4): -2e-12j},
        {(1, 3): 2.0, (2, 2): 2.1e-12},
        {(1, 3): 1e-300, (3, 1): 1e-300},
        {(2, 2): 1.0},
        {},
    ],
)
def test_the_monomial_method_takes_multiples_of_z1_z2_cubed_and_nothing_else(coeffs):
    from waring.decompose import _roots_of_unity_decomposition

    A = SymmetricTensor(4, 2, coeffs)
    if _proportional_to_the_monomial(coeffs, 4):
        assert verify(_roots_of_unity_decomposition(A), A).ok
    else:
        with pytest.raises(ValidationError, match=r"proportional to z1\*z2\^\(k-1\): exactly the exponent class \[1, 3\]"):
            _roots_of_unity_decomposition(A)


@pytest.mark.parametrize(
    "A, message", [(SymmetricTensor(3, 3, {(1, 1, 1): 1.0}), "dim 2"), (SymmetricTensor(1, 2, {(0, 1): 1.0}), "order >= 2")]
)
def test_the_monomial_method_states_its_shape_rule(A, message):
    from waring.decompose import _roots_of_unity_decomposition

    with pytest.raises(ValidationError, match=message):
        _roots_of_unity_decomposition(A)


@pytest.mark.parametrize("k", [1029, 1030])
def test_the_monomial_method_refuses_an_order_verify_cannot_take_before_solving(k):
    # from order 1030 the largest class size passes the float range; the Vandermonde solve took over a second
    from waring.decompose import _roots_of_unity_decomposition

    A = binary_monomial_tensor(k)
    if k == 1029:  # it solves, and its own check refuses the rounding of the 1029 terms
        with pytest.raises(DecompositionError, match="order 1029 does not verify: residual .* exceeds the bound"):
            _roots_of_unity_decomposition(A)
        return
    start = time.perf_counter()
    with pytest.raises(ArithmeticOverflowError, match="order 1030 over C\\^2 exceeds the float range"):
        _roots_of_unity_decomposition(A)
    assert time.perf_counter() - start < 0.1


# --- 2x2x2 pencil decomposition -----------------------------------------------


def test_pencil_quadratic_on_the_fixture_cubic():
    a = quantic_to_tensor(parse_quantic("3*x1*x2^2 - 1*x1^3"))
    qa, qb, qc = pencil_quadratic(a)
    assert (qa, qb, qc) == (-1.0 + 0j, 0j, -1.0 + 0j)


def test_fixture_cubic_complex_rank_two():
    a = quantic_to_tensor(parse_quantic("3*x1*x2^2 - 1*x1^3"))
    res = decompose_sym222_pencil(a, "C")
    assert res.classification == "rank_2"
    assert len(res.decomposition.terms) == 2
    assert verify(res.decomposition, a, 1e-12).ok
    directions = [v for _, v in res.decomposition.terms]
    assert directions[0][1] == pytest.approx(-1j)
    assert directions[1][1] == pytest.approx(1j)
    weights = [w for w, _ in res.decomposition.terms]
    assert weights[0] == pytest.approx(-0.5)
    assert weights[1] == pytest.approx(-0.5)


def test_fixture_cubic_real_rank_three():
    a = quantic_to_tensor(parse_quantic("3*x1*x2^2 - 1*x1^3"))
    res = decompose_sym222_pencil(a, "R")
    assert res.classification == "real_rank_3"
    d = res.decomposition
    assert d.field_tag == "R" and len(d.terms) == 3
    assert verify(d, a, 1e-12).ok
    # nodes 60 degrees apart: -4/3 x^3 + 1/6 (x + sqrt(3) y)^3 + 1/6 (x - sqrt(3) y)^3
    assert [v[0] for _, v in d.terms] == [1.0, 1.0, 1.0]
    assert [v[1] for _, v in d.terms] == pytest.approx([-math.sqrt(3), 0.0, math.sqrt(3)])
    assert [w for w, _ in d.terms] == pytest.approx([1 / 6, -4 / 3, 1 / 6])


def test_pencil_random_complex_draws_rank_two():
    rng = np.random.default_rng(41)
    for _ in range(200):
        a = random_sym222(rng)
        res = decompose_sym222_pencil(a, "C")
        assert res.classification == "rank_2"
        rep = verify(res.decomposition, a, 1e-9)
        assert rep.ok and rep.stated_rank == 2


def test_pencil_random_real_draws_split_by_discriminant():
    rng = np.random.default_rng(42)
    seen = set()
    for _ in range(120):
        a = random_sym222(rng, real=True)
        res = decompose_sym222_pencil(a, "R")
        assert res.decomposition.field_tag == "R"
        assert verify(res.decomposition, a, 1e-9).ok
        seen.add(res.classification)
    assert seen == {"rank_2", "real_rank_3"}


def test_pencil_linear_determinant_uses_infinite_direction():
    # x^3 + y^3: det pencil is linear, roots 0 and infinity
    a = quantic_to_tensor(parse_quantic("1*x1^3 + 1*x2^3"))
    res = decompose_sym222_pencil(a, "R")
    assert res.classification == "rank_2"
    table = {v: w for w, v in res.decomposition.terms}
    assert table[(1.0, 0.0)] == pytest.approx(1.0)
    assert table[(0.0, 1.0)] == pytest.approx(1.0)


def test_pencil_degenerate_cases_raise():
    # x^2 y has a constant nonzero pencil determinant
    with pytest.raises(DegeneratePencilError):
        decompose_sym222_pencil(quantic_to_tensor(parse_quantic("3*x1^2*x2")), "C")
    # a perfect cube has an identically zero determinant
    cube = reconstruct(make_decomposition(3, 2, [(1.0, (1.0, 2.0))]))
    with pytest.raises(DegeneratePencilError):
        decompose_sym222_pencil(cube, "C")


def test_pencil_rejects_complex_input_over_r():
    a = SymmetricTensor(3, 2, {(3, 0): 1.0j, (1, 2): 1.0})
    with pytest.raises(ValidationError):
        decompose_sym222_pencil(a, "R")
    with pytest.raises(ValidationError):
        decompose_sym222_pencil(a, "Q")


def test_pencil_needs_a_2x2x2_tensor():
    with pytest.raises(ValidationError):
        decompose_sym222_pencil(SymmetricTensor(4, 2, {(2, 2): 1.0}), "C")


def sym222_from_moments(m):
    return SymmetricTensor(3, 2, dict(zip(((3, 0), (2, 1), (1, 2), (0, 3)), m)))


@pytest.mark.parametrize("field", ["R", "C"])
def test_pencil_with_near_zero_leading_coefficient_verifies(field):
    # pencil a = 4e-6 against b = 0.7: one node lies close to the direction (1, 0)
    a = sym222_from_moments([0.3, 1.0, 1.0, 1.0 + 4e-6])
    res = decompose_sym222_pencil(a, field)
    assert res.classification == "rank_2" and len(res.decomposition.terms) == 2
    assert verify(res.decomposition, a).ok


@pytest.mark.parametrize("m3", [3.0, -3.0])
def test_real_rank_three_where_the_plus_minus_one_nodes_fail(m3):
    # m2 - m0 = 3 and m3 - m1 = +-3 put the third node of the pair (1, 1), (1, -1) on one of them
    a = sym222_from_moments([-1.0, 0.0, 2.0, m3])
    res = decompose_sym222_pencil(a, "R")
    assert res.classification == "real_rank_3"
    assert res.decomposition.field_tag == "R" and len(res.decomposition.terms) == 3
    assert verify(res.decomposition, a).ok


def test_real_rank_three_sweep_with_forced_moment_coincidences():
    rng = np.random.default_rng(43)
    solved = 0
    for i in range(400):
        m = list(rng.normal(size=4))
        if i % 4 == 0:
            m[1] = 0.0
        elif i % 4 == 1:
            m[2] = m[0]
        elif i % 4 == 2:
            m[3] = m[1]
        else:
            m[0] = 0.0
        a = sym222_from_moments(m)
        qa, qb, qc = (z.real for z in pencil_quadratic(a))
        if qb * qb - 4 * qa * qc >= 0:
            continue
        res = decompose_sym222_pencil(a, "R")
        assert res.classification == "real_rank_3", m
        assert res.decomposition.field_tag == "R" and len(res.decomposition.terms) == 3, m
        assert verify(res.decomposition, a).ok, m
        solved += 1
    assert solved > 100


def _sine(u, v):
    return abs(u[0] * v[1] - u[1] * v[0]) / (abs(complex(*u)) * abs(complex(*v)))


def test_real_rank_three_nodes_lie_60_degrees_apart_and_scale_exactly():
    rng = np.random.default_rng(44)
    checked = 0
    while checked < 300:
        m = rng.normal(size=4)
        qa, qb, qc = (z.real for z in pencil_quadratic(sym222_from_moments(m.tolist())))
        if qb * qb - 4 * qa * qc >= 0:
            continue
        checked += 1
        j = int(rng.integers(-300, 301))
        base = decompose_sym222_pencil(sym222_from_moments((m * 2.0**-j).tolist()), "R").decomposition
        nodes = [tuple(c.real for c in v) for _, v in base.terms]
        assert len(nodes) == 3
        for u, v in [(nodes[0], nodes[1]), (nodes[0], nodes[2]), (nodes[1], nodes[2])]:
            assert _sine(u, v) >= math.sin(math.pi / 3) - 1e-12, m
        for shift in (-300, 300):
            scaled = decompose_sym222_pencil(sym222_from_moments((m * 2.0 ** (shift - j)).tolist()), "R")
            assert [v for _, v in scaled.decomposition.terms] == [v for _, v in base.terms]
            assert [w for w, _ in scaled.decomposition.terms] == [w * 2.0**shift for w, _ in base.terms]


def test_a_subnormal_monomial_decomposes_without_a_warning():
    # pytest turns numpy's RuntimeWarning into an error; dividing by 2^-1074 would overflow 1/p
    from waring.decompose import _roots_of_unity_decomposition

    A = SymmetricTensor(3, 2, {(1, 2): 1e-310})
    assert verify(_roots_of_unity_decomposition(A), A).ok
    # at 2^-1074 the weights round to the subnormal grid, so the terms cannot verify and the method says so
    with pytest.raises(DecompositionError, match="residual 9.88e-324 exceeds the bound 0$"):
        _roots_of_unity_decomposition(SymmetricTensor(3, 2, {(1, 2): 5e-324}))


def test_pencil_rejects_non_finite_entries():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError):
            decompose_sym222_pencil(sym222_from_moments([1.0, bad, 0.0, 1.0]), "C")


@pytest.mark.parametrize("field", ["R", "C"])
def test_pencil_handles_entries_near_the_float_range(field):
    a = sym222_from_moments([1e300, -3e299, 2e300, 1e300])
    res = decompose_sym222_pencil(a, field)
    assert verify(res.decomposition, a).ok


_entry = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    field=st.sampled_from(["R", "C"]),
    re=st.lists(_entry, min_size=4, max_size=4),
    im=st.lists(_entry, min_size=4, max_size=4),
)
# a node (eps, 1) with eps^3 below the float range: normalizing it to (1, 1/eps) would overflow
@example(field="R", re=[1.0, 0.0, 6.952007064452484e-199, 1.0], im=[0.0] * 4)
def test_pencil_verifies_or_reports_a_degenerate_pencil(field, re, im):
    m = re if field == "R" else [complex(x, y) for x, y in zip(re, im)]
    a = sym222_from_moments(m)
    try:
        res = decompose_sym222_pencil(a, field)
    except DegeneratePencilError:
        return
    d = res.decomposition
    expected = {"rank_2": 2, "real_rank_3": 3} if field == "R" else {"rank_2": 2}
    assert expected.get(res.classification) == len(d.terms)
    assert d.field_tag == field
    assert verify(d, a).ok


# --- border sequences ----------------------------------------------------------


def test_border_spec_defaults_and_validation():
    spec = make_border_spec("rank2_to_3")
    assert spec.order == 3 and len(spec.base_vectors) == 2
    assert spec.epsilons == DEFAULT_EPSILONS
    with pytest.raises(ValidationError):
        make_border_spec("nonsense")
    with pytest.raises(ValidationError):
        make_border_spec("rank2_to_3", order=4)
    with pytest.raises(ValidationError):
        make_border_spec("rank2_to_3", base_vectors=[(1, 0), (2, 0)])
    with pytest.raises(ValidationError):
        make_border_spec("tangent_sum", base_vectors=[(1, 0), (0, 1)])
    with pytest.raises(ValidationError):
        make_border_spec("rank2_to_3", epsilons=[0.5, 0.0])


def random_base(kind, order, dim):
    """Seeded complex base vectors of dimension dim, as many as the kind takes; None for the default."""
    if dim is None:
        return None
    rng = np.random.default_rng(10 * order + dim)
    count = 3 if kind == "tangent_sum" else 2
    return (rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))).tolist()


# (kind, order, dimension of the seeded complex base vectors)
SEEDED_BORDER_CASES = [
    pytest.param(kind, order, dim, id=f"{kind}-order{order}-dim{dim}")
    for dim in (3, 4)
    for kind, order in [("rank2_to_3", 3), ("rank2_to_k", 3), ("rank2_to_k", 4), ("rank2_to_k", 6), ("tangent_sum", 3)]
]


@pytest.mark.parametrize(
    "kind,order,dim",
    [pytest.param(kind, 3, None, id=kind) for kind in ["rank2_to_3", "rank2_to_k", "tangent_sum"]]
    + SEEDED_BORDER_CASES,
)
def test_border_witness_verifies_at_low_rank(kind, order, dim):
    spec = make_border_spec(kind, base_vectors=random_base(kind, order, dim), order=order)
    expected_terms = {"rank2_to_3": 2, "rank2_to_k": 2, "tangent_sum": 4}[kind]
    for eps in (0.125, 0.015625):
        step = border_sequence(spec, eps)
        assert len(step.witness.terms) == expected_terms
        assert verify(step.witness, step.a_eps, 1e-9).ok


@pytest.mark.parametrize("kind", ["rank2_to_3", "rank2_to_k", "tangent_sum"])
def test_border_distance_slope_near_one(kind):
    spec = make_border_spec(kind)
    table = border_distance_table(spec)
    assert all(d > 0 for _, d in table)
    assert 0.9 <= fit_loglog_slope(table) <= 1.1


@pytest.mark.parametrize(
    "kind,order,dim",
    [
        pytest.param(kind, 3, None, id=f"{kind}-{terms}")
        for kind, terms in [("rank2_to_3", 3), ("rank2_to_k", 3), ("tangent_sum", 6)]
    ]
    + SEEDED_BORDER_CASES,
)
def test_limit_decompositions_verify(kind, order, dim):
    terms = {"rank2_to_3": 3, "rank2_to_k": order, "tangent_sum": 6}[kind]
    spec = make_border_spec(kind, base_vectors=random_base(kind, order, dim), order=order)
    step = border_sequence(spec, 0.25)
    lim = limit_decomposition(spec)
    assert len(lim.terms) == terms
    assert verify(lim, step.a_limit, 1e-9).ok


def test_rank2_to_3_limit_identity_terms():
    # (x+y)^3 + (x-y)^3 - 2 x^3 reproduces the limit exactly
    spec = make_border_spec("rank2_to_3")
    lim = limit_decomposition(spec)
    table = {v: w for w, v in lim.terms}
    assert table[(1.0, 1.0)] == pytest.approx(1.0)
    assert table[(1.0, -1.0)] == pytest.approx(1.0)
    assert table[(1.0, 0.0)] == pytest.approx(-2.0)
    step = border_sequence(spec, 0.5)
    assert frobenius_distance(reconstruct(lim), step.a_limit) <= 1e-12


def test_rank2_to_3_distance_is_twice_epsilon():
    # A_eps - A_0 = 2 eps x^x3 for unit x, so the distance is exactly 2 eps
    spec = make_border_spec("rank2_to_3")
    for eps, dist in border_distance_table(spec):
        assert dist == pytest.approx(2 * eps, rel=1e-12)


def test_rank2_to_k_higher_order():
    spec = make_border_spec("rank2_to_k", order=6)
    step = border_sequence(spec, 0.01)
    assert verify(step.witness, step.a_eps, 1e-9).ok
    lim = limit_decomposition(spec)
    assert len(lim.terms) == 6
    assert verify(lim, step.a_limit, 1e-9).ok
    assert 0.9 <= fit_loglog_slope(border_distance_table(spec)) <= 1.1


def test_border_sequence_rejects_nonpositive_epsilon():
    spec = make_border_spec("rank2_to_3")
    with pytest.raises(ValidationError):
        border_sequence(spec, 0.0)


def test_border_epsilons_refuse_nan():
    with pytest.raises(ValidationError, match="epsilon schedule"):
        make_border_spec("rank2_to_3", epsilons=[0.5, math.nan])
    with pytest.raises(ValidationError, match="epsilon must be positive"):
        border_sequence(make_border_spec("rank2_to_3"), math.nan)


def test_border_with_custom_base_vectors():
    spec = make_border_spec("rank2_to_3", base_vectors=[(1.0, 1.0), (2.0, -1.0)])
    step = border_sequence(spec, 0.125)
    assert verify(step.witness, step.a_eps, 1e-9).ok
    assert verify(limit_decomposition(spec), step.a_limit, 1e-9).ok


def test_fit_loglog_slope_validates():
    with pytest.raises(ValidationError):
        fit_loglog_slope([(0.5, 0.0)])


@pytest.mark.parametrize("table", [
    [(0.5, 1.0), (0.5, 2.0)],  # one epsilon twice: the slope read -0.25 with a RankWarning
    [(0.5, 0.0), (0.25, 1.0), (0.25, 2.0)],  # the zero distance goes, so one epsilon is left
    [(0.5, math.inf), (0.25, 1.0)],  # read nan
    [(math.nan, 1.0), (0.25, 1.0)],  # raised LinAlgError with LAPACK lines on stderr
    [(-0.5, 1.0), (0.25, 1.0)],  # a RuntimeWarning from np.log
    [(0.0, 1.0), (0.25, 1.0)],
    [(math.inf, 1.0), (0.25, 1.0)],
    [(0.5, math.nan), (0.25, 1.0)],
])
def test_fit_loglog_slope_refuses_what_it_cannot_fit(table, capfd):
    with pytest.raises(ValidationError, match="epsilon"):
        fit_loglog_slope(table)
    assert capfd.readouterr() == ("", "")


def test_fit_loglog_slope_drops_a_zero_distance():
    assert fit_loglog_slope([(0.5, 1.0), (0.25, 0.5), (0.125, 0.0)]) == pytest.approx(1.0, rel=1e-12)


# --- decomposition JSON --------------------------------------------------------


def test_decomposition_json_round_trip():
    d = decompose_monomial_rank_k(3)
    obj = decomposition_to_json_obj(d)
    back = decomposition_from_json_obj(json.loads(json.dumps(obj)))
    assert back == d


def test_the_json_round_trip_of_every_returned_decomposition_is_exact():
    # a complex pivot's lead is pivot / pivot, whose imaginary part may read about 1e-16, so reading the record back
    # normalized it again and moved the terms in the last bit; the normalizer now leaves that part a signed zero
    rng = np.random.default_rng(31)
    decompositions = [decompose_monomial_rank_k(k) for k in range(2, 61)]
    for real in [False] * 200 + [True] * 100:
        A = random_sym222(rng, real)
        for field in ("C", "R") if real else ("C",):
            try:
                decompositions.append(decompose_sym222_pencil(A, field).decomposition)
            except DegeneratePencilError:
                pass
    assert len(decompositions) > 450
    for d in decompositions:
        assert decomposition_from_json_obj(json.loads(json.dumps(decomposition_to_json_obj(d)))) == d


def test_decomposition_json_field_errors():
    with pytest.raises(ValidationError, match="order"):
        decomposition_from_json_obj({"dim": 2, "field": "C", "terms": []})
    with pytest.raises(ValidationError, match="terms"):
        decomposition_from_json_obj({"order": 2, "dim": 2, "field": "C", "terms": []})
    with pytest.raises(ValidationError, match="field"):
        decomposition_from_json_obj(
            {"order": 2, "dim": 2, "field": "Z",
             "terms": [{"weight": [1.0, 0.0], "vector": [[1.0, 0.0], [0.0, 0.0]]}]}
        )
    with pytest.raises(ValidationError, match="vector"):
        decomposition_from_json_obj(
            {"order": 2, "dim": 2, "field": "R",
             "terms": [{"weight": [1.0, 0.0], "vector": [[1.0, 0.0]]}]}
        )


def test_shipped_a31_fixture_pair_verifies():
    from waring.tensor_core import tensor_from_json_obj

    tensor = tensor_from_json_obj(load_fixture("a31_tensor.json"))
    decomp = decomposition_from_json_obj(load_fixture("a31_decomposition.json"))
    rep = verify(decomp, tensor, 1e-12)
    assert rep.ok and rep.residual == 0.0 and rep.stated_rank == 4


# --- the two worked identities of order 4 and 5 --------------------------------


def test_a31_identity():
    a31 = quantic_to_tensor(parse_quantic("48*x1^3*x2"))
    d = make_decomposition(
        4, 2, [(8, (1, 1)), (-8, (1, -1)), (-1, (1, 2)), (1, (1, -2))]
    )
    rep = verify(d, a31, 1e-12)
    assert rep.ok and rep.residual == 0.0


def test_a41_identity():
    a41 = quantic_to_tensor(parse_quantic("60*x1^4*x2"))
    d = make_decomposition(
        5, 2, [(8, (1, 1)), (-8, (1, -1)), (-1, (1, 2)), (1, (1, -2)), (48, (0, 1))]
    )
    rep = verify(d, a41, 1e-12)
    assert rep.ok and rep.residual == 0.0


def test_a41_moments_match_the_closed_form():
    # sum_i w_i b_i^t = (1 - (-1)^t)(8 - 2^t) for the shared node set
    nodes = [(8, 1), (-8, -1), (-1, 2), (1, -2)]
    for t in range(6):
        total = sum(w * b**t for w, b in nodes)
        assert total == (1 - (-1) ** t) * (8 - 2**t)


def test_monomial_tensor_past_the_int64_class_sizes():
    # class sizes of order 70 reach C(70, 35) > 2^63; they are floats now, not int64 counts
    A = binary_monomial_tensor(70)
    assert math.isclose(frobenius_norm(A), math.sqrt(70) / 70, rel_tol=1e-15)
    assert len(decompose_monomial_rank_k(70).terms) == 70


# --- JSON readers on arbitrary values ---------------------------------------------------

_JSON_KEYS = st.sampled_from(
    ["order", "dim", "format", "entries", "coeffs", "exponent", "value", "field", "terms", "weight", "vector"]
)
_json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.sampled_from(["dense", "sym", "R", "C"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_KEYS, inner, max_size=6),
    max_leaves=24,
)
_size = st.integers(-1, 6) | st.booleans() | st.sampled_from([64, 65, 100, 5000, 20000, 10**9, 2**63])
_pair = st.lists(st.integers() | st.floats() | st.booleans(), max_size=3)


def _record(**fields):
    """Objects with a reader's real keys, each absent, plausible or any JSON value."""
    return st.fixed_dictionaries({}, optional={key: value | _json_value for key, value in fields.items()})


_tensor_json = _record(
    format=st.sampled_from(["dense", "sym"]),
    order=_size,
    dim=_size,
    entries=st.lists(_pair, max_size=9),
    coeffs=st.lists(
        _record(exponent=st.lists(st.integers() | st.booleans(), max_size=4), value=_pair), max_size=4
    ),
)
_decomposition_json = _record(
    order=_size,
    dim=_size,
    field=st.sampled_from(["R", "C"]),
    terms=st.lists(_record(weight=_pair, vector=st.lists(_pair, max_size=4)), max_size=3),
)


def _read_or_typed_error(reader, obj):
    """The reader's result, or None when it raises one of the package's typed errors."""
    try:
        return reader(obj)
    except (ValidationError, ArithmeticOverflowError):
        return None


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_tensor_json | _json_value)
@example({"format": "dense", "order": 100, "dim": 1, "entries": [[1, 0]]})
@example({"format": "dense", "order": 5000, "dim": 10, "entries": []})
@example({"format": "sym", "order": 20000, "dim": 20000, "coeffs": []})
@example({"format": "sym", "coeffs": [{"exponent": [True, 0], "value": [1, 0]}]})
def test_tensor_json_reader_raises_only_typed_errors(obj):
    tensor = _read_or_typed_error(tensor_from_json_obj, obj)
    if tensor is not None:  # sizes and exponents read as integers, never as booleans
        assert type(tensor.order) is int and type(tensor.dim) is int
        if isinstance(tensor, SymmetricTensor):
            assert all(type(e) is int for item in obj["coeffs"] for e in item["exponent"])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_decomposition_json | _json_value)
@example({"order": True, "dim": 1, "field": "C", "terms": [{"weight": [1, 0], "vector": [[1, 0]]}]})
def test_decomposition_json_reader_raises_only_typed_errors(obj):
    decomposition = _read_or_typed_error(decomposition_from_json_obj, obj)
    if decomposition is not None:
        assert type(decomposition.order) is int and type(decomposition.dim) is int


# --- the array pencil against the Python scaling it replaced -------------------------


def _python_scaled_pencil(A, field):
    """(weights, points) of the pencil with the moments and nodes scaled one Python number at a time and the
    Vandermonde built by a comprehension, or None for a degenerate pencil."""
    from waring.decompose import _catalecticant_kernel, _pencil_rule

    values = [v.real for v in A._vector.tolist()] if field == "R" else A._vector.tolist()
    p = 2.0 ** max(math.frexp(max(abs(c) for v in values for c in (v.real, v.imag)))[1] - 1, -1022)
    scaled = [v / p for v in values]
    scale = max(map(abs, scaled))
    unit = [v / (scale or 1.0) for v in scaled]
    a, b, c = _catalecticant_kernel(*unit)
    masks, disc = _pencil_rule(a, b, c)
    if any(masks):
        return None
    if field == "R" and disc < 0:
        turn = math.fmod(math.atan2(3 * unit[1] - unit[3], unit[0] - 3 * unit[2]) + math.pi, math.pi)
        nodes = [(math.cos(phi), math.sin(phi)) for phi in ((turn + j * math.pi) / 3 for j in range(3))]
    else:
        sq = cmath.sqrt(disc)
        q = -(b + sq) / 2 if abs(b + sq) >= abs(b - sq) else -(b - sq) / 2
        nodes = [(q, a), (c, q)]
    eps = np.finfo(float).eps
    points = [tuple(c / s if abs(c) > eps * s else 0.0 for c in node)
              for node in nodes for s in [max(abs(node[0]), abs(node[1]))]]
    vander = np.array([[x ** (3 - j) * y**j for x, y in points] for j in range(4)])
    rhs = np.array(scaled) / scale
    if field == "R":
        vander, rhs = vander.real, rhs.real
    return p * (scale * np.linalg.lstsq(vander, rhs, rcond=None)[0]), np.array(points, dtype=np.complex128)


def test_the_array_pencil_keeps_the_nodes_of_the_python_scaling():
    from waring.decompose import _normalized

    rng, compared = np.random.default_rng(20261019), 0
    for i in range(400):
        real = i % 2 == 0
        values = rng.standard_normal(4) * 10.0 ** rng.integers(-5, 5) if real else (
            rng.standard_normal(4) + 1j * rng.standard_normal(4))
        if i % 7 == 0:
            values[rng.integers(4)] = 0
        A = SymmetricTensor(3, 2, dict(zip(enumerate_exponents(3, 2), values.tolist())))
        for field in ("C", "R") if real else ("C",):
            reference = _python_scaled_pencil(A, field)
            if reference is None:
                with pytest.raises(DegeneratePencilError):
                    decompose_sym222_pencil(A, field)
                continue
            want, got = _normalized(3, *reference, field), decompose_sym222_pencil(A, field).decomposition
            assert got.vectors.tobytes() == want.vectors.tobytes()  # nodes, term order and signed zeros
            # numpy's complex products in the Vandermonde move the weights by a few units in the last place
            ulp = np.spacing(np.maximum(abs(want.weights.real), abs(want.weights.imag)))
            assert (abs((got.weights - want.weights).real) <= 32 * ulp).all()
            assert (abs((got.weights - want.weights).imag) <= 32 * ulp).all()
            compared += 1
    assert compared >= 600


@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
def test_a_non_finite_or_non_positive_epsilon_is_refused_before_any_term(bad):
    # an infinite epsilon was accepted, and border_distance_table then warned and raised on its terms
    with pytest.raises(ValidationError, match="^epsilon schedule must be positive and finite$"):
        make_border_spec("rank2_to_k", epsilons=[bad, 1.0])
    with pytest.raises(ValidationError, match="^epsilon must be positive and finite; the witness is undefined"):
        border_sequence(make_border_spec("rank2_to_k"), bad)


def test_base_vectors_of_two_lengths_are_refused():
    with pytest.raises(ValidationError, match="^base vectors must share one dimension$"):
        make_border_spec("rank2_to_3", base_vectors=[(1.0, 0.0), (0.0, 1.0, 0.0)])
