from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from waring.combinatorics import enumerate_exponents, multinomial
from waring.errors import ArithmeticOverflowError, CapacityError, ValidationError
from waring.quantics import (
    LinearForm,
    Quantic,
    apolar_form,
    evaluate,
    parse_quantic,
    quantic_to_tensor,
    render_quantic,
    scale,
    tensor_to_quantic,
    veronese,
)
from waring.tensor_core import SymmetricTensor, decompress


def test_tensor_quantic_round_trip():
    rng = np.random.default_rng(30)
    for k, n in [(1, 3), (2, 2), (3, 3), (4, 2)]:
        coeffs = {p: complex(rng.normal(), rng.normal()) for p in enumerate_exponents(k, n)}
        s = SymmetricTensor(k, n, coeffs)
        assert quantic_to_tensor(tensor_to_quantic(s)).coeffs == s.coeffs


def test_evaluate_matches_full_contraction():
    """F(x) equals the tensor applied to (x, ..., x)."""
    rng = np.random.default_rng(31)
    for _ in range(20):
        k, n = 3, 3
        coeffs = {p: complex(rng.normal(), rng.normal()) for p in enumerate_exponents(k, n)}
        s = SymmetricTensor(k, n, coeffs)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        direct = evaluate(tensor_to_quantic(s), tuple(x))
        dense = decompress(s).array
        full = np.einsum("ijk,i,j,k->", dense, x, x, x)
        assert abs(direct - full) <= 1e-10 * (1 + abs(full))


def test_apolar_duality_with_veronese():
    """Pairing against a power of a linear form evaluates the quantic there."""
    rng = np.random.default_rng(32)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        coeffs = {p: complex(rng.normal(), rng.normal()) for p in enumerate_exponents(k, n)}
        f = tensor_to_quantic(SymmetricTensor(k, n, coeffs))
        beta = tuple(complex(rng.normal(), rng.normal()) for _ in range(n))
        lhs = apolar_form(f, veronese(LinearForm(beta), k))
        rhs = evaluate(f, beta)
        worst = max(worst, abs(lhs - rhs) / (1 + abs(rhs)))
    assert worst <= 1e-10


def test_apolar_form_is_symmetric_bilinear():
    rng = np.random.default_rng(33)
    k, n = 3, 2
    def rand():
        coeffs = {p: complex(rng.normal(), rng.normal()) for p in enumerate_exponents(k, n)}
        return tensor_to_quantic(SymmetricTensor(k, n, coeffs))
    f, g = rand(), rand()
    assert apolar_form(f, g) == pytest.approx(apolar_form(g, f))
    assert apolar_form(scale(f, 2.5), g) == pytest.approx(2.5 * apolar_form(f, g))


def test_apolar_form_shape_mismatch():
    f = tensor_to_quantic(SymmetricTensor(2, 2, {(1, 1): 1.0}))
    g = tensor_to_quantic(SymmetricTensor(3, 2, {(1, 2): 1.0}))
    with pytest.raises(ValidationError):
        apolar_form(f, g)


def test_render_simple_cubic():
    s = SymmetricTensor(3, 2, {(3, 0): -1.0, (1, 2): 1.0})
    assert render_quantic(tensor_to_quantic(s)) == "3*x1*x2^2 - x1^3"


def test_render_monomial_and_coefficients():
    # class entry 12 at (3,1) renders with the multinomial folded in: 48
    s = SymmetricTensor(4, 2, {(3, 1): 12.0})
    assert render_quantic(tensor_to_quantic(s)) == "48*x1^3*x2"
    assert render_quantic(tensor_to_quantic(SymmetricTensor(2, 2, {(2, 0): 1.0}))) == "x1^2"
    assert render_quantic(tensor_to_quantic(SymmetricTensor(2, 2, {(2, 0): -1.0}))) == "-x1^2"


def test_render_complex_coefficient_parenthesized():
    s = SymmetricTensor(2, 2, {(1, 1): 1.0 + 1.0j})
    text = render_quantic(tensor_to_quantic(s))
    assert text == "(2+2j)*x1*x2"


def test_render_zero_quantic():
    assert render_quantic(Quantic(2, 2, {})) == "0"


def test_parse_round_trip_through_text():
    rng = np.random.default_rng(34)
    for _ in range(50):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        coeffs = {
            p: complex(round(rng.normal(), 3), round(rng.normal(), 3))
            for p in enumerate_exponents(k, n)
        }
        s = SymmetricTensor(k, n, coeffs)
        if not s.coeffs:
            continue
        text = render_quantic(tensor_to_quantic(s))
        back = quantic_to_tensor(parse_quantic(text, nvars=n))
        assert back.coeffs == pytest.approx(s.coeffs, abs=1e-12)


def test_parse_round_trip_of_exponent_form_coefficients():
    for terms in ({(0, 3): 1.0, (3, 0): 1.5e-05}, {(2, 1): -2.5e-07, (0, 3): 3e20}):
        f = Quantic(3, 2, terms)
        text = render_quantic(f)
        assert "e-0" in text or "e+" in text
        assert parse_quantic(text).terms == f.terms


def test_parse_explicit_examples():
    f = parse_quantic("48*x1^3*x2")
    assert f.degree == 4 and f.nvars == 2
    assert quantic_to_tensor(f).coeffs == {(3, 1): 12.0}

    g = parse_quantic("-1*x1^3 + 3*x1*x2^2")
    assert quantic_to_tensor(g).coeffs == {(3, 0): -1.0, (1, 2): 1.0}


def test_parse_accumulates_repeated_variables():
    f = parse_quantic("2*x1*x1*x1")
    assert f.degree == 3
    assert quantic_to_tensor(f).coeffs == {(3,): 2.0}


def test_parse_infers_variable_count():
    f = parse_quantic("1*x3^2")
    assert f.nvars == 3


def test_parse_rejects_mixed_degrees():
    with pytest.raises(ValidationError, match="mixed degrees"):
        parse_quantic("1*x1^2 + 1*x1")


def test_parse_rejects_malformed_terms():
    for bad in ("", "x1^2 +", "1*", "3", "1*y1", "1*x0^2", "(1+2j*x1", "1*x1^-2"):
        with pytest.raises(ValidationError):
            parse_quantic(bad)


def test_parse_rejects_a_zero_exponent_and_too_few_variables():
    with pytest.raises(ValidationError, match="exponent must be >= 1"):
        parse_quantic("x1^0")
    with pytest.raises(ValidationError, match="exceeds the requested 2 variables"):
        parse_quantic("x3^2", nvars=2)


def test_evaluate_rejects_a_point_of_the_wrong_length():
    with pytest.raises(ValidationError, match="point has 3 entries, expected 2"):
        evaluate(parse_quantic("x1*x2"), (1.0, 2.0, 3.0))


def test_a_single_variable_of_order_10_to_the_12_needs_no_table_until_a_kernel_runs():
    F = parse_quantic("x1^1000000000000")
    assert F.terms == {(10**12,): 1.0} and render_quantic(F) == "x1^1000000000000"
    with pytest.raises(CapacityError, match="1000000000001 table entries"):
        evaluate(F, (1.0,))


def test_parse_complex_coefficient():
    f = parse_quantic("(2+2j)*x1*x2", nvars=2)
    assert quantic_to_tensor(f).coeffs == {(1, 1): 1.0 + 1.0j}


def test_veronese_coeffs_are_monomials_of_beta():
    beta = (2.0, -1.0, 0.5)
    v = veronese(LinearForm(beta), 3)
    t = quantic_to_tensor(v)
    for p, val in t.coeffs.items():
        expected = 1.0
        for b, e in zip(beta, p):
            expected *= b**e
        assert val == pytest.approx(expected)


def test_non_finite_coefficients_are_rejected():
    for text in ("nan*x1^3", "inf*x1^3", "-inf*x1*x2 + x2^2", "(1+nanj)*x1", "1e309*x1^2"):
        with pytest.raises(ValidationError, match="finite"):
            parse_quantic(text)
    with pytest.raises(ValidationError, match="finite"):
        Quantic(2, 1, {(2,): float("nan")})
    with pytest.raises(ValidationError, match="finite"):
        scale(parse_quantic("x1^2"), float("inf"))


_part = st.one_of(st.just(0.0), st.floats(1e-3, 1e6), st.floats(-1e6, -1e-3))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(k=st.integers(1, 4), n=st.integers(1, 3), data=st.data())
def test_render_parse_round_trip_keeps_the_printed_digits(k, n, data):
    classes = enumerate_exponents(k, n)
    values = data.draw(st.lists(st.tuples(_part, _part), min_size=len(classes), max_size=len(classes)))
    f = Quantic(k, n, {p: complex(re, im) for p, (re, im) in zip(classes, values)})
    assume(f.terms)
    text = render_quantic(f)
    back = parse_quantic(text, nvars=n)
    assert render_quantic(back) == text
    assert back.terms.keys() == f.terms.keys()
    for p, a in f.terms.items():
        assert abs(back.terms[p] - a) <= 1e-11 * abs(a)


def test_wide_quadratic_evaluates_and_pairs_like_its_terms():
    # 300 variables, 45150 classes: the class vector and the kernels' tables stay within their caps
    F = parse_quantic("x1*x300 + 2*x5^2 - 0.5j*x2*x3")
    assert (F.degree, F.nvars) == (2, 300)
    point = np.linspace(-1.0, 2.0, 300)
    expected = point[0] * point[299] + 2 * point[4] ** 2 - 0.5j * point[1] * point[2]
    assert abs(evaluate(F, point) - expected) < 1e-12
    # <F, F> = sum_p multinomial(p) a_p^2 with a_p the stored (halved off-diagonal) coefficients
    assert abs(apolar_form(F, F) - (2 * 0.5**2 + 2**2 + 2 * (-0.25j) ** 2)) < 1e-12
    assert render_quantic(F) == "2*x5^2 + (0-0.5j)*x2*x3 + x1*x300"


def test_parse_grammar_edges():
    # leading signs (the last one counts), exponent-form mantissas, a parenthesized complex
    # coefficient (also doubly parenthesized), several coefficient factors, repeated variables
    assert parse_quantic("  - + x1^2  -  2*x1*x2 ").terms == {(2, 0): 1.0, (1, 1): -1.0}
    assert parse_quantic("1.5E+05*x1 - 2e-3*x2").terms == {(1, 0): 1.5e5, (0, 1): -2e-3}
    assert parse_quantic("(1 + 2j) * x1").terms == parse_quantic("((1+2j))*x1").terms == {(1,): 1 + 2j}
    assert parse_quantic("2*3*x1*x1").terms == {(2,): 6.0}
    for bad in ("x1 -- x2", "x1 + x2 -", "(1+2j))*x1", "((1+2j)*x1", "(((1)))*x1", "x1)"):
        with pytest.raises(ValidationError):
            parse_quantic(bad)


def test_parse_bounds_digits_and_width_before_building_terms():
    with pytest.raises(ValidationError, match="too many digits"):
        parse_quantic("x1^" + "9" * 5000)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            parse_quantic("x3000000^2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_class_size_past_the_float_range_needs_no_huge_binomial(monkeypatch):
    # C(4194303, 2097152) has about 1.26 million digits and took minutes to compute
    comb = math.comb

    def small_comb(n, k):
        assert min(k, n - k) < 600, f"C({n}, {k}) computed"
        return comb(n, k)

    monkeypatch.setattr(math, "comb", small_comb)
    with pytest.raises(ArithmeticOverflowError, match="float range"):
        parse_quantic("x1^2097151*x2^2097152")
    with pytest.raises(ArithmeticOverflowError, match="float range"):
        render_quantic(Quantic(4194303, 2, {(2097151, 2097152): 1.0}))


_GRAMMAR_PIECES = ["x1", "x2^3", "x9999", "^9999", "*", "+", "-", " ", "(", ")", "2", "1.5e-05", "E+3", "j"]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    st.text(alphabet="x0123456789^*+-.()ejE ", max_size=40)
    | st.lists(st.sampled_from(_GRAMMAR_PIECES), max_size=12).map("".join)
)
@example("x9999^9999")  # C(19997, 9999) has about 6,000 digits
@example("x3000000^2")
def test_parse_quantic_raises_only_typed_errors(text):
    try:
        parse_quantic(text)
    except (ValidationError, ArithmeticOverflowError):
        pass


@pytest.mark.parametrize("value", [1e308, 1e308j])
def test_render_refuses_a_printed_coefficient_past_the_float_range(value):
    # the stored coefficient is finite; multinomial(1, 1) = 2 times it is not
    with pytest.raises(ArithmeticOverflowError, match=r"x1\*x2"):
        render_quantic(Quantic(2, 2, {(1, 1): value, (2, 0): 1.0}))


@pytest.mark.parametrize("k", range(1026, 1033))
def test_binary_kernels_work_exactly_while_the_largest_class_fits_a_float(k):
    # the balanced class (k - k//2, k//2) is the largest; C(1029, 514) = 1.43e308 still fits
    from waring.combinatorics import _class_size
    from waring.decompose import make_decomposition, verify
    from waring.tensor_core import frobenius_norm

    p = (k - k // 2, k // 2)
    F = Quantic(k, 2, {p: 1.0})
    try:
        size = _class_size(p)
    except ArithmeticOverflowError:
        size = None
    calls = (
        lambda: frobenius_norm(quantic_to_tensor(F)),
        lambda: evaluate(F, (1.0, 1.0)),
        lambda: verify(make_decomposition(k, 2, [(1.0, (1.0, 0.0))]), quantic_to_tensor(F)),
    )
    for call in calls:
        if size is None:
            with pytest.raises(ArithmeticOverflowError, match=f"order {k} over C\\^2"):
                call()
        else:
            call()
    assert (size is not None) == (k <= 1029)
    if size is not None:
        assert evaluate(F, (1.0, 1.0)) == float(size)


@pytest.mark.parametrize("point", [[math.nan, 0], [math.inf, 1], [1, complex(0, -math.inf)]])
def test_evaluate_rejects_a_non_finite_point(point):
    with pytest.raises(ValidationError, match="finite"):
        evaluate(parse_quantic("x1^3 + 2*x1*x2^2"), point)


@pytest.mark.parametrize("point", [[1e200, 1e200], [1e103, 1e103]])
def test_evaluate_past_the_float_range_is_a_typed_error(point):
    # pytest turns numpy's RuntimeWarning into an error, so this also asserts there is none
    with pytest.raises(ArithmeticOverflowError, match="float range"):
        evaluate(parse_quantic("x1^3 + 2*x1*x2^2"), point)


def test_evaluate_overflows_only_where_the_value_does():
    # where (1e160)^2 overflows, the point is divided by 2^e before the powers and the value is finite
    assert evaluate(parse_quantic("x1^2 - x2^2"), [1e160, 1e160]) == 0
    # (x1 - x2)(x1 + x2) = 2^470 (2^521 - 2^470), though x1^2 = 2^1040 is past the float range
    assert evaluate(parse_quantic("x1^2 - x2^2"), [2.0**520, 2.0**520 - 2.0**470]) == pytest.approx(2.0**991)
    assert evaluate(parse_quantic("x1^2*x2"), [1e200, 1e-100]) == pytest.approx(1e300)
    with pytest.raises(ArithmeticOverflowError, match="float range"):
        evaluate(parse_quantic("x1^2", nvars=2), [1e160, 0])
    assert evaluate(parse_quantic("x1^3"), [5e-324]) == 0


def test_evaluate_keeps_a_small_coordinate_next_to_a_large_one():
    # nothing overflows, so nothing is scaled: 1e-200 / 2^664 would flush to 0
    assert evaluate(parse_quantic("x1*x2"), [1e200, 1e-200]) == pytest.approx(1.0)
    assert evaluate(parse_quantic("x1*x2"), [1e160, 1e-160]) == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("form, point", [("x1^2*x2", [1e200, 1e-200]), ("x1^2*x2^3", [1e200, 1e-60])])
def test_evaluate_raises_where_scaling_would_underflow(form, point):
    # the head x1 times the tail x1*x2 is 1e200 with nothing past the float range; in x1^2*x2^3 the head x1^2
    # overflows, and over 2^e the cube of the small coordinate falls below the normal range, where a silent 0
    # would be wrong: the value is 1e220
    if form == "x1^2*x2":
        assert evaluate(parse_quantic(form), point) == pytest.approx(1e200)
        return
    with pytest.raises(ArithmeticOverflowError, match="float range"):
        evaluate(parse_quantic(form), point)


def test_evaluating_wide_quadratics_keeps_no_exponent_table():
    # each shape keeps its class sizes and head-tail layout, O(classes) bytes, not an n x m exponent table
    tracemalloc.start()
    try:
        for n in range(100, 157, 8):
            evaluate(parse_quantic(f"x1*x{n} + 2*x5^2"), np.linspace(-1.0, 1.0, n))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 4 << 20


def test_apolar_form_past_the_float_range_is_a_typed_error():
    F = parse_quantic("1e300*x1^2")
    with pytest.raises(ArithmeticOverflowError, match="float range"):
        apolar_form(F, F)
    assert apolar_form(F, parse_quantic("1e-300*x1^2")) == pytest.approx(1.0)


def test_a_value_that_fits_is_returned_though_a_product_of_its_operands_does_not():
    # multinomial(2, 1) * 1e308 passes the float range; the value 3 * 1e308 * 1e-300 = 3e8 does not
    F = Quantic(3, 2, {(2, 1): 1e308})
    assert apolar_form(F, Quantic(3, 2, {(2, 1): 1e-300})) == pytest.approx(3e8, rel=1e-15)
    assert evaluate(F, [1.0, 1e-300]) == pytest.approx(3e8, rel=1e-15)
    with pytest.raises(ArithmeticOverflowError, match="float range"):
        evaluate(F, [1.0, 1.0])  # 3e308 itself does not fit


def test_a_term_that_a_larger_operand_entry_would_push_below_the_float_range_still_counts():
    # 1e-300 * 1e300 = 1 is the value; divided by the power of two of 1e308, the 1e-300 would read 0
    F = Quantic(3, 2, {(2, 1): 1e308, (3, 0): 1e-300})
    assert apolar_form(F, Quantic(3, 2, {(3, 0): 1e300})) == pytest.approx(1.0, rel=1e-15)
    assert evaluate(F, [1e100, 0.0]) == pytest.approx(1.0, rel=1e-15)
    # two terms of 3e318 cancel and leave 1e-600, below the float range: that raises rather than reading 0
    G = Quantic(3, 2, {(2, 1): 1e308, (1, 2): 1e308, (3, 0): 1e-300})
    with pytest.raises(ArithmeticOverflowError, match="below the float range"):
        apolar_form(G, Quantic(3, 2, {(2, 1): 1e10, (1, 2): -1e10, (3, 0): 1e-300}))


def test_repr_counts_classes_without_unranking(monkeypatch):
    import waring.combinatorics

    F = parse_quantic("x1^3 + x2^3 + x3^3 + x1*x2*x3 + x1^2*x2 + x1^2*x3 + x2^2*x1 + x2^2*x3 + x3^2*x1 + x3^2*x2")

    def refuse(*args):
        raise AssertionError("repr unranked a class")

    monkeypatch.setattr(waring.combinatorics, "_exponents", refuse)
    assert repr(F) == "Quantic(degree=3, nvars=3, terms=10)"
    assert repr(quantic_to_tensor(F)) == "SymmetricTensor(order=3, dim=3, classes=10)"


def _sorted_dict_render(F):
    """render_quantic as a walk over the sorted keys of the coefficient dict."""
    from waring.quantics import _signed_term

    terms = F.terms
    if not terms:
        return "0"
    (sign, first), *rest = (_signed_term(p, terms[p]) for p in sorted(terms))
    return ("-" if sign == "-" else "") + first + "".join(f" {s} {body}" for s, body in rest)


@pytest.mark.parametrize("k,n", [(1, 1), (1, 7), (2, 2), (3, 2), (3, 4), (5, 3), (2, 300)])
def test_render_prints_what_the_sorted_dict_walk_prints(k, n):
    rng = np.random.default_rng(1000 * k + n)
    classes = enumerate_exponents(k, n)
    values = [1.0, -1.0, 0.5, -2.25, 1e-5, 3e7, 1.5j, -0.25 - 2j, complex(-0.0, 1.0), complex(2.0, -0.0)]
    for _ in range(20):
        picked = rng.choice(len(classes), size=min(len(classes), int(rng.integers(0, 12))), replace=False)
        F = Quantic(k, n, {classes[i]: values[rng.integers(len(values))] * rng.choice([1.0, 3.0]) for i in picked})
        assert render_quantic(F) == _sorted_dict_render(F)


def test_repeated_terms_that_overflow_are_rejected_without_a_numpy_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^coefficients must be finite$"):
            parse_quantic("1e308*x1^2 + 1e308*x1^2")


def _keyed_vector(k, n, terms: dict) -> bytes:
    return quantic_to_tensor(Quantic(k, n, terms))._vector.tobytes()


_COEFFICIENTS = ("1", "(-2.5)", "0.1", "(-0.0)", "(-0.0-0j)", "5e-324", "(0-5e-324j)", "2.5e-310", "(1+2j)", "(3-0j)",
                 "7.25")
_FACTORS = (2.5, -1.0, 0.1, -0.0, 5e-324, 0.1 - 7.3j, complex(-0.0, 1.0), complex(3.0, -0.0), 1j, 1e300)


def test_parse_and_scale_write_the_class_vector_of_the_keyed_constructor():
    rng = np.random.default_rng(22)
    for _ in range(200):
        k, n = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        classes, terms = enumerate_exponents(k, n), []
        for _ in range(int(rng.integers(1, 7))):  # repeated terms, with either sign, sum or cancel
            picked = terms[rng.integers(len(terms))][1:] if terms and rng.random() < 0.4 else (
                _COEFFICIENTS[rng.integers(len(_COEFFICIENTS))], classes[rng.integers(len(classes))])
            terms.append(("+-"[rng.integers(2)], *picked))
        text = " ".join(f"{s} {c}*" + "*".join(f"x{i + 1}^{e}" for i, e in enumerate(p) if e) for s, c, p in terms)
        F = parse_quantic(text, n)
        summed = {}  # the reference: per-key sums from 0j, in term order
        for s, c, p in terms:
            summed[p] = summed.get(p, 0j) + complex(f"{s}1") * complex(c.strip("()")) / multinomial(p)
        assert quantic_to_tensor(F)._vector.tobytes() == _keyed_vector(k, n, summed), text
        for factor in _FACTORS:
            scaled = {p: complex(factor) * v for p, v in F.terms.items()}
            assert quantic_to_tensor(scale(F, factor))._vector.tobytes() == _keyed_vector(k, n, scaled)
    assert scale(Quantic(3, 2, {}), float("inf")).terms == {}
