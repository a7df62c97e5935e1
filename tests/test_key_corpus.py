"""Exponent keys in, class vectors out: a seeded corpus through every entry point that takes keys.

The keyed constructor is the one door: parse_quantic and the sym JSON reader hand it (exponent, value)
pairs, whose values for one class it adds in order from 0, while a mapping's entries are assigned.  Each
entry point must write the class vector that a key-by-key walk over the graded-lex table writes, for
keys holding bool and np.int64 entries, values with -0 parts, JSON exponents given twice and terms
written twice.  The digest pins those vectors and everything written back from them (coeffs, JSON,
text, enumerate_exponents) to the bytes of the key-by-key implementation the batch ranking replaced.
Bad keys keep their messages, and the first bad key in iteration order is the one reported.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import operator
import tracemalloc
import warnings
from collections import OrderedDict
from types import MappingProxyType

import numpy as np
import pytest

from waring import (
    Quantic,
    SymmetricTensor,
    ValidationError,
    enumerate_exponents,
    multinomial,
    parse_quantic,
    render_quantic,
    tensor_from_json_obj,
    tensor_to_json_obj,
)

# (order, dim, keys drawn): binary and single-variable shapes, small ones, and wide ones; the 6000 keys of
# (3, 40) hold more nonzero entries than one ranking block takes
SHAPES = [(1, 1, 1), (5, 1, 1), (3, 2, 4), (7, 2, 8), (3, 3, 10), (4, 5, 70), (6, 4, 84), (1, 1000, 100),
          (3, 40, 6000), (2, 120, 600)]
DIGEST = "efef08a4a44684f82bea28a971c64b510985b2b521e4d5813a6a6532cf60576e"


def _value(rng) -> complex:
    """A normal complex value, one in four with a -0 part, one in eight exactly zero (+0 or -0 parts)."""
    re, im = rng.standard_normal(2).round(3)
    kind = rng.integers(8)
    if kind == 0:
        return complex(-0.0 if rng.random() < 0.5 else 0.0, -0.0)
    if kind <= 2:
        return complex(re, -0.0) if kind == 1 else complex(-0.0, im)
    return complex(re, im)


def _key(rng, p: tuple[int, ...]):
    """p with some entries as np.int64 and some 0 or 1 entries as bool: equal keys to a dict, the same class."""
    kinds = rng.integers(4, size=len(p)).tolist()
    return tuple(np.int64(e) if kind == 0 else bool(e) if kind == 1 and e <= 1 else e for e, kind in zip(p, kinds))


def _corpus(seed: int = 2025):
    """(k, n, keyed dict, JSON object, quantic text) per shape, drawn from one seeded stream."""
    rng = np.random.default_rng(seed)
    for k, n, count in SHAPES:
        classes = enumerate_exponents(k, n)
        picked = [classes[c] for c in rng.choice(len(classes), size=count, replace=False)]
        keyed = {_key(rng, p): _value(rng) for p in picked}
        items = [{"exponent": list(p), "value": [v.real, v.imag]} for p in picked for v in [_value(rng)]]
        items += [{"exponent": list(p), "value": [v.real, v.imag]}  # given twice: the reader sums in order
                  for p in picked[: count // 3] for v in [_value(rng)]]
        terms = []
        for p in picked[:200]:
            c = _value(rng)
            factors = [f"x{i + 1}^{e}" for i, e in enumerate(p) if e]
            terms.append(f"({c.real!r}{c.imag:+}j)*" + "*".join(factors))
            if rng.random() < 0.3:  # the same monomial again, its factors reversed
                terms.append(f"({c.imag!r}{c.real:+}j)*" + "*".join(factors[::-1]))
        yield k, n, classes, keyed, {"format": "sym", "order": k, "dim": n, "coeffs": items}, " + ".join(terms)


def _walked(position: dict, pairs) -> np.ndarray:
    """The class vector a key-by-key walk over the table writes: a later nonzero value replaces an earlier one, zeros
    are skipped."""
    vec = np.zeros(len(position), dtype=np.complex128)
    for p, value in pairs:
        if value != 0:
            vec[position[tuple(map(int, p))]] = value
    return vec


def _summed(pairs) -> dict:
    """Values summed per exponent in order, as Python complex numbers, as the JSON reader and the parser sum."""
    out = {}
    for p, value in pairs:
        out[p] = out.get(p, 0j) + value
    return out


def _parsed_terms(text: str, n: int) -> list:
    pairs = []
    for term in text.split(" + "):
        coeff, *factors = term.split("*")
        p = [0] * n
        for factor in factors:
            var, exp = factor[1:].split("^")
            p[int(var) - 1] += int(exp)
        pairs.append((tuple(p), complex(coeff[1:-1]) / multinomial(p)))
    return pairs


def test_every_key_path_writes_the_walked_class_vector_and_the_pinned_bytes():
    digest = hashlib.sha256()
    for k, n, classes, keyed, obj, text in _corpus():
        position = {p: c for c, p in enumerate(classes)}
        built = SymmetricTensor(k, n, keyed)
        assert built._vector.tobytes() == _walked(position, keyed.items()).tobytes(), (k, n)
        read = tensor_from_json_obj(obj)
        pairs = [(tuple(item["exponent"]), complex(*item["value"])) for item in obj["coeffs"]]
        assert read._vector.tobytes() == _walked(position, _summed(pairs).items()).tobytes(), (k, n)
        parsed = parse_quantic(text, n)._tensor
        assert parsed._vector.tobytes() == _walked(position, _summed(_parsed_terms(text, n)).items()).tobytes()
        for tensor in (built, read, parsed):  # the writers read the class vector alone
            digest.update(tensor._vector.tobytes())
            digest.update(json.dumps(tensor_to_json_obj(tensor)).encode())
            digest.update(repr(tensor.coeffs).encode())
            digest.update(render_quantic(Quantic(k, n, tensor.coeffs)).encode())
        if k * n < 1000:
            digest.update(repr(classes).encode())
    assert digest.hexdigest() == DIGEST


@pytest.mark.parametrize("coeffs, error, message", [
    ({(2, 1): 1.0, (1, 1): 2.0, (4,): 1.0}, ValidationError, "exponent (1, 1) has degree 2, expected 3"),
    ({(2, 1): 1.0, (1, 1, 1): 2.0, (1, 1): 1.0}, ValidationError, "an exponent has 3 entries, expected 2"),
    ({(3, 0): 1.0, (2.5, 0.5): 1.0, (): 1.0}, ValidationError, "exponent vector entries must be integers"),
    ({(3, 0): 1.0, (): 1.0, (2.5, 0.5): 1.0}, ValidationError, "exponent vector must have at least one entry"),
    ({(4, -1): 1.0, (1, 1): 1.0}, ValidationError, "exponent vector has a negative entry"),
    ({(10**5000, 1): 1.0, (1, 1): 1.0}, ValidationError, "an exponent has an entry above the order 3"),
    ({(True, np.int64(1)): 1.0}, ValidationError, "exponent (1, 1) has degree 2, expected 3"),
    ({(2, 1): math.nan, (1, 1): 1.0}, ValidationError, "exponent (1, 1) has degree 2, expected 3"),
    ({(2, 1): math.nan, (1, 2): 1.0}, ValidationError, "coefficients must be finite"),
    ({(2, 1): "x", (1, 1): 1.0}, ValueError, "complex() arg is a malformed string"),
    ({(1, 1): 1.0, (2, 1): "x"}, ValidationError, "exponent (1, 1) has degree 2, expected 3"),
])
def test_the_first_bad_key_or_value_is_reported_as_before(coeffs, error, message):
    with pytest.raises(error) as info:
        SymmetricTensor(3, 2, coeffs)
    assert str(info.value) == message


@pytest.mark.parametrize("coeffs, message", [
    ([{"exponent": [2, 1], "value": [1, 0]}, {"exponent": [1, 1], "value": [1, 0]}],
     "exponent (1, 1) has degree 2, expected 3"),
    ([{"exponent": [1, 1, 1], "value": [1, 0]}, {"exponent": [1, 1], "value": [1, 0]}],
     "an exponent has 3 entries, expected 2"),
    ([{"exponent": [1, 1], "value": [1, 0]}, {"exponent": [True, 2], "value": [1, 0]}],
     "field 'exponent': expected a list of integers"),
    ([{"exponent": [3, 0], "value": [1, 0]}, {"exponent": [4, -1], "value": [1, 0]}],
     "exponent vector has a negative entry"),
])
def test_the_sym_json_reader_reports_the_first_bad_exponent_as_before(coeffs, message):
    with pytest.raises(ValidationError) as info:
        tensor_from_json_obj({"format": "sym", "order": 3, "dim": 2, "coeffs": coeffs})
    assert str(info.value) == message


def _bits(z: complex) -> bytes:
    return np.array([z]).tobytes()


def test_pairs_that_name_one_class_twice_add_in_order_from_zero():
    values = [complex(0.5, -0.0), 1e16, complex(1.0, 2.0), -1e16]
    fold = functools.reduce(operator.add, values, 0j)  # Python's left fold: 2j
    assert fold not in (values[-1], sum(reversed(values)))  # neither the last value nor another order reads it
    pairs = [((2, 1), v) for v in values] + [((0, 3), complex(-0.0, 1.0))]
    for coeffs in (pairs, iter(pairs), (pair for pair in pairs), tuple(pairs)):
        got = SymmetricTensor(3, 2, coeffs).coeffs
        assert list(got) == [(2, 1), (0, 3)]
        assert _bits(got[(2, 1)]) == _bits(fold)
        assert _bits(got[(0, 3)]) == _bits(1j)  # a -0 part of a single pair reads +0, as 0j + value has it


class _KeyedDict(dict):
    pass


class _KeysOnly:
    """Neither a dict nor a collections.abc.Mapping: dict() reads it through keys and item lookup."""

    def __init__(self, entries):
        self._entries = entries

    def keys(self):
        return self._entries.keys()

    def __getitem__(self, p):
        return self._entries[p]


@pytest.mark.parametrize("wrap", [dict, OrderedDict, MappingProxyType, _KeyedDict, _KeysOnly])
def test_every_mapping_assigns_its_entries(wrap):
    entries = {(0, 3): 2.0, (2, 1): complex(1.0, -0.0), (1, 2): 0.0}
    got = SymmetricTensor(3, 2, wrap(entries)).coeffs
    assert list(got) == [(2, 1), (0, 3)]
    assert _bits(got[(2, 1)]) == _bits(complex(1.0, -0.0))  # assigned, so its -0 part stays
    assert _bits(got[(0, 3)]) == _bits(2 + 0j)


@pytest.mark.parametrize("build", [
    lambda: SymmetricTensor(3, 2, [((2, 1), 1e308), ((2, 1), 1e308)]),
    lambda: SymmetricTensor(3, 2, (((0, 3), v) for v in (-1e308, -1e308j, -1e308))),
    lambda: tensor_from_json_obj({"format": "sym", "order": 3, "dim": 2,
                                  "coeffs": [{"exponent": [1, 2], "value": [1e308, 0]}] * 2}),
    lambda: parse_quantic("1e308*x1^2 + 1e308*x1^2"),
])
def test_a_pair_sum_that_overflows_is_refused_without_a_numpy_warning(build):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as info:
            build()
    assert str(info.value) == "coefficients must be finite"


def test_the_sym_json_reader_keeps_no_copy_of_its_exponents():
    # the full quadratic over C^120: 7,260 exponent lists of 120 entries, whose tuple copies alone take about 7 MiB
    classes = enumerate_exponents(2, 120)
    obj = {"format": "sym", "coeffs": [{"exponent": list(p), "value": [1.0, 0.5]} for p in classes]}
    tensor_from_json_obj(obj)  # builds the shape's tables
    tracemalloc.start()
    try:
        read = tensor_from_json_obj(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (read.order, read.dim, np.count_nonzero(read._vector)) == (2, 120, len(classes))
    assert peak < 2 * 2**20, peak
