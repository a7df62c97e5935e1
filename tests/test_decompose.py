from __future__ import annotations

import cmath
import json
import math
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
from waring.errors import DegeneratePencilError, ValidationError
from waring.quantics import parse_quantic, quantic_to_tensor, render_quantic, tensor_to_quantic
from waring.tensor_core import SymmetricTensor, frobenius_distance, frobenius_norm, outer_power, power_span_rank

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
    d = decompose_monomial_rank_k(5)
    betas = sorted((v[1] for _, v in d.terms), key=lambda z: cmath.phase(z))
    for b in betas:
        assert abs(abs(b) - 1.0) <= 1e-12
        assert abs(b**5 - 1.0) <= 1e-12
    assert abs(sum(betas)) <= 1e-12


def test_monomial_k2_is_the_classical_identity():
    # z1 z2 = 1/4 (z1+z2)^2 - 1/4 (z1-z2)^2
    d = decompose_monomial_rank_k(2)
    weights = sorted(w.real for w, _ in d.terms)
    assert weights == pytest.approx([-0.25, 0.25])


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
    # the classical identity 1/2 (x+y)^3 + 1/2 (x-y)^3 - 2 x^3
    table = {v: w for w, v in d.terms}
    assert table[(1.0, 1.0)] == pytest.approx(0.5)
    assert table[(1.0, -1.0)] == pytest.approx(0.5)
    assert table[(1.0, 0.0)] == pytest.approx(-2.0)


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


def test_border_with_custom_base_vectors():
    spec = make_border_spec("rank2_to_3", base_vectors=[(1.0, 1.0), (2.0, -1.0)])
    step = border_sequence(spec, 0.125)
    assert verify(step.witness, step.a_eps, 1e-9).ok
    assert verify(limit_decomposition(spec), step.a_limit, 1e-9).ok


def test_fit_loglog_slope_validates():
    with pytest.raises(ValidationError):
        fit_loglog_slope([(0.5, 0.0)])


# --- decomposition JSON --------------------------------------------------------


def test_decomposition_json_round_trip():
    d = decompose_monomial_rank_k(3)
    obj = decomposition_to_json_obj(d)
    back = decomposition_from_json_obj(json.loads(json.dumps(obj)))
    assert back == d


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
