"""One integer rule for every public entry point, found from the signatures.

Each public callable with a parameter named as an order, dimension, degree,
count, seed, index or cap must have a row in CALLS: valid arguments and, per
such parameter, the first value below its bound.  The test then substitutes
2.5, True, "3" and that value, each a ValidationError in any cache state, and
np.int64, which must give a result holding Python ints only.  A new entry
point with such a parameter and no row fails here, so none skips the rule.
"""

from __future__ import annotations

import dataclasses
import inspect

import numpy as np
import pytest

import waring
from waring import ValidationError, decompose_monomial_rank_k

INTEGER_PARAMETERS = {"order", "dim", "k", "n", "degree", "nvars", "samples", "workers", "seed", "index",
                      "max_entries"}

# name: (valid keyword arguments, {integer parameter: the first value below its bound})
CALLS = {
    "sym_dimension": (dict(k=3, n=2), dict(k=-1, n=0)),
    "enumerate_exponents": (dict(k=3, n=2), dict(k=-1, n=0)),
    "index_to_exponent": (dict(indices=(1, 2, 2), n=3), dict(n=0)),
    "is_exceptional": (dict(k=4, n=3), dict(k=0, n=1)),
    "rank_report": (dict(k=3, n=3), dict(k=0, n=1)),
    "generic_symmetric_rank": (dict(k=3, n=3), dict(k=0, n=1)),
    "symmetric_rank_bounds": (dict(k=3, n=3), dict(k=0, n=1)),
    "fiber_dimension": (dict(k=3, n=3), dict(k=0, n=1)),
    "finitely_many_generic_decompositions": (dict(k=3, n=3), dict(k=0, n=1)),
    "max_symmetric_rank_binary": (dict(k=3), dict(k=0)),
    "SymmetricTensor": (dict(order=3, dim=2, coeffs={(2, 1): 1.0}), dict(order=0, dim=0)),
    "Quantic": (dict(degree=2, nvars=2, terms={(1, 1): 1.0}), dict(degree=0, nvars=0)),
    "parse_quantic": (dict(text="x1*x2", nvars=3), dict(nvars=0)),
    "make_decomposition": (dict(order=3, dim=2, terms=[(1.0, (1.0, 2.0))]), dict(order=0, dim=0)),
    "SymmetricDecomposition": (dict(order=3, dim=2, weights=np.ones(1, complex), vectors=np.ones((1, 2), complex),
                                    field_tag="C"), dict(order=0, dim=0)),
    "outer_power": (dict(v=(1.0, 2.0), k=3), dict(k=0)),
    "veronese": (dict(L=(1.0, 2.0), k=3), dict(k=0)),
    "power_span_rank": (dict(vectors=[(1.0, 2.0), (1.0, 3.0)], k=3), dict(k=0)),
    "binary_monomial_tensor": (dict(k=3), dict(k=1)),
    "decompose_monomial_rank_k": (dict(k=3), dict(k=1)),
    "make_border_spec": (dict(kind="rank2_to_k", order=4), dict(order=2)),
    "decompress": (dict(S=waring.SymmetricTensor(2, 2, {(1, 1): 1.0}), max_entries=10), dict(max_entries=0)),
    "sample_sym222": (dict(seed=1, index=2), dict(seed=-1, index=-1)),
    "sample_asym222": (dict(seed=1, index=2), dict(seed=-1, index=-1)),
    "typical_rank_experiment": (dict(case="sym222", samples=100, seed=1, workers=1),
                                dict(samples=0, seed=-1, workers=0)),
}
# Records the library fills from checked values, and an error's offending index tuple: not entry points.
RECORDS = {"BorderSequenceSpec", "RankReport", "TrialStats", "SymmetryError"}


def _integer_parameters(obj) -> list[str]:
    try:
        return [name for name in inspect.signature(obj).parameters if name in INTEGER_PARAMETERS]
    except (TypeError, ValueError):  # an exception class without a Python signature
        return []


PUBLIC = {name: params for name in waring.__all__ if callable(obj := getattr(waring, name))
          if (params := _integer_parameters(obj))}
CASES = [(name, param) for name, params in PUBLIC.items() if name not in RECORDS for param in params]


def _ints_only(value):
    """No numpy integer is reachable from value through containers, records and the tensors' shapes and keys."""
    assert not isinstance(value, np.integer), f"numpy integer {value!r} in the result"
    items = ()
    if isinstance(value, (list, tuple)):
        items = value
    elif isinstance(value, dict):
        items = [*value, *value.values()]
    elif dataclasses.is_dataclass(value):
        items = [getattr(value, field.name) for field in dataclasses.fields(value)]
    elif isinstance(value, waring.Quantic):
        items = [value.degree, value.nvars, value.terms]
    elif isinstance(value, (waring.SymmetricTensor, waring.DenseTensor)):
        items = [value.order, value.dim, value.coeffs if isinstance(value, waring.SymmetricTensor) else ()]
    for item in items:
        _ints_only(item)


def _call(name: str, **kwargs):
    return getattr(waring, name)(**kwargs)


def test_every_public_integer_parameter_has_a_row():
    assert set(PUBLIC) - RECORDS == set(CALLS)
    for name, (valid, below) in CALLS.items():
        assert set(below) == set(PUBLIC[name]), name
        assert set(PUBLIC[name]) <= set(valid), name


@pytest.mark.parametrize("name, param", CASES)
@pytest.mark.parametrize("bad", [2.5, True, "3", "below"])
def test_a_non_integer_or_a_value_below_the_bound_is_a_validation_error(name, param, bad):
    valid, below = CALLS[name]
    _call(name, **valid)  # the caches hold the valid shape first
    if bad == "below":
        bad, message = below[param], r"must be an integer >= -?\d+$"
    else:
        message = r"must be an integer, got (float|bool|str)$"
    with pytest.raises(ValidationError, match=message):
        _call(name, **{**valid, param: bad})


@pytest.mark.parametrize("name, param", CASES)
def test_a_numpy_integer_gives_python_ints(name, param):
    valid, _ = CALLS[name]
    decompose_monomial_rank_k.cache_clear()
    _ints_only(_call(name, **{**valid, param: np.int64(valid[param])}))


@pytest.mark.parametrize("bad", [(2.5, 1), ("2", "1")])
def test_an_exponent_entry_that_is_no_integer_is_a_validation_error(bad):
    calls = (
        lambda: waring.multinomial(bad),
        lambda: waring.degree(bad),
        lambda: waring.SymmetricTensor(3, 2, {bad: 1.0}),
        lambda: waring.Quantic(3, 2, {bad: 1.0}),
        lambda: waring.index_to_exponent(bad, 2),
    )
    for call in calls:
        with pytest.raises(ValidationError, match="integer"):
            call()


def test_numpy_integer_exponent_entries_give_python_ints():
    p = (np.int64(2), np.int32(1))
    assert type(waring.multinomial(p)) is int and type(waring.degree(p)) is int
    assert all(type(e) is int for e in waring.index_to_exponent((np.int64(1), np.uint8(2)), np.int64(2)))
    _ints_only(waring.SymmetricTensor(3, 2, {p: 1.0}).coeffs)


def test_a_decomposition_record_built_directly_keeps_an_int_order_its_norm_can_take():
    # the record stored np.int64(3), and the class norm of its reconstruction called int.bit_length on it
    D = waring.SymmetricDecomposition(np.int64(3), np.int64(2), np.ones(1, complex), np.ones((1, 2), complex), "C")
    assert type(D.order) is int and type(D.dim) is int
    assert waring.frobenius_norm(waring.reconstruct(D)) == pytest.approx(8**0.5, rel=1e-15)


def test_a_float_order_is_refused_after_the_same_integer_shape_is_cached():
    assert waring.enumerate_exponents(3, 2)[0] == (3, 0)
    with pytest.raises(ValidationError, match="^order must be an integer, got float$"):
        waring.enumerate_exponents(3.0, 2)
    assert type(waring.sym_dimension(np.int64(3), np.int64(2))) is int


_JSON_READERS = {
    "dense": (waring.tensor_from_json_obj, {"format": "dense", "order": 1, "dim": 1, "entries": [[1.0, 0.0]]}),
    "sym": (waring.tensor_from_json_obj, {"format": "sym", "order": 1, "dim": 1, "coeffs": []}),
    "decomposition": (waring.decomposition_from_json_obj,
                      {"order": 1, "dim": 1, "field": "R", "terms": [{"weight": [1, 0], "vector": [[1, 0]]}]}),
}


@pytest.mark.parametrize("reader", sorted(_JSON_READERS))
@pytest.mark.parametrize("field", ["order", "dim"])
@pytest.mark.parametrize("bad, why", [
    (True, "an integer, got bool"), (1.0, "an integer, got float"), ("1", "an integer, got str"),
    ([1], "an integer, got list"), (0, r"an integer >= 1"),
])
def test_the_json_readers_take_order_and_dim_by_the_integer_rule(reader, field, bad, why):
    read, obj = _JSON_READERS[reader]
    assert (read(obj).order, read(obj).dim) == (1, 1)
    with pytest.raises(ValidationError, match=rf"^field '{field}' must be {why}$"):
        read({**obj, field: bad})
