"""tensor-grid: dense conversions, the rank oracle and reconstruct/verify over a (k, n) grid.

Why: this is where `tensor_core` and `decompose.reconstruct` do nearly all
the work, from 1k to 47k dense entries and 210 to 792 exponent classes.  The
Monte-Carlo and pencil code do no work here, so a storage change shows here
and a change to the binary decomposer does not.

The cells rotate in a fixed order, so every run holds the same mix of sizes
whatever the seed; the seed chooses the tensor entries, the decomposition
terms and the point beta.  The smallest cell (3,10) and the (6,6) cell come
twice per rotation.  Sorted by op time a rotation then reads (3,10) twice,
the three overlapping mid-size cells, (6,6) twice and (5,8), so the median
falls inside the mid-size ops and p75 in the middle of the (6,6) ops rather
than on the edge between two cells, where one slow or fast op moves it.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from chains import Chain
from harness import VerificationFailed

CELLS = ((3, 10), (4, 8), (5, 6), (6, 5), (5, 8), (6, 6))
ROTATION = CELLS + ((3, 10), (6, 6))
CLI_CELL = (5, 6)
# Alexander-Hirschowitz: the pairs where the generic rank exceeds the naive count.
EXCEPTIONAL = frozenset({(3, 5), (4, 3), (4, 4), (4, 5)})
# Dense entries read plus written by symmetrize (2), is_symmetric (1),
# compress (1) and decompress (1): a computed count, not a measured one.
ENTRY_PASSES = 5
BYTES_PER_ENTRY = 16


def generic_rank(k: int, n: int) -> int:
    """ceil(C(n+k-1, k) / n), plus one on the exceptional pairs."""
    return -(-math.comb(n + k - 1, k) // n) + ((k, n) in EXCEPTIONAL)


def complex_normal(rng, shape) -> np.ndarray:
    z = rng.standard_normal((2,) + tuple(shape))
    return z[0] + 1j * z[1]


def outer_power_sum(weights, vectors, k: int) -> np.ndarray:
    """Dense sum_i w_i v_i^(x k), accumulated one term at a time."""
    n = vectors.shape[1]
    total = np.zeros((n,) * k, dtype=np.complex128)
    for w, v in zip(weights, vectors):
        power = v
        for _ in range(k - 1):
            power = np.multiply.outer(power, v)
        total += w * power
    return total


def contract_all(array: np.ndarray, vector: np.ndarray) -> complex:
    """sum_j a_j beta_j1 ... beta_jk for a dense k-way array."""
    out = array
    while out.ndim:
        out = out @ vector
    return complex(out)


def class_values(dense: np.ndarray, k: int, n: int) -> dict:
    """Exponent class -> entry at the sorted index tuple of that class."""
    out = {}
    for idx in itertools.combinations_with_replacement(range(n), k):
        p = tuple(idx.count(i) for i in range(n))
        out[p] = complex(dense[idx])
    return out


@dataclass(frozen=True)
class GridInput:
    k: int
    n: int
    dense: np.ndarray  # unsymmetric input for symmetrize
    weights: np.ndarray
    vectors: np.ndarray
    terms: list  # the same terms as Python (weight, vector) pairs
    beta: tuple
    reference: np.ndarray  # dense sum of the weighted outer powers
    target: dict  # class values of the reference


@dataclass(frozen=True)
class GridOutput:
    symmetrized: object
    is_symmetric: bool
    round_trip: object
    report: object
    rebuilt: object
    verdict: object
    apolar: complex
    value: complex


class TensorGrid:
    name = "tensor-grid"
    cycle = len(ROTATION)
    tail = 75.0
    min_ops = 6 * len(ROTATION)
    coverage_ops = len(CELLS)
    digest_ops = len(ROTATION)

    def __init__(self, seed: int):
        self.seed = seed
        self._symmetrize_checked: set = set()

    def inputs(self, i: int) -> GridInput:
        k, n = ROTATION[i % len(ROTATION)]
        rng = np.random.default_rng([self.seed, 1, i])
        r = generic_rank(k, n)
        dense = complex_normal(rng, (n,) * k)
        weights = complex_normal(rng, (r,))
        vectors = complex_normal(rng, (r, n))
        beta = complex_normal(rng, (n,))
        reference = outer_power_sum(weights, vectors, k)
        return GridInput(
            k, n, dense, weights, vectors,
            [(complex(w), tuple(complex(c) for c in v)) for w, v in zip(weights, vectors)],
            tuple(complex(c) for c in beta),
            reference,
            class_values(reference, k, n),
        )

    def input_bytes(self, inp: GridInput) -> bytes:
        return b"".join(a.tobytes() for a in (inp.dense, inp.weights, inp.vectors, np.array(inp.beta)))

    def warmup_ids(self):
        return range(len(CELLS))

    def prepare(self, api, inp: GridInput):
        return inp, api.tensor_core.SymmetricTensor(inp.k, inp.n, inp.target)

    def run(self, api, x) -> GridOutput:
        inp, target = x
        tc, dc, qu = api.tensor_core, api.decompose, api.quantics
        symmetrized = tc.symmetrize(tc.DenseTensor(inp.dense))
        is_sym = tc.is_symmetric(symmetrized)
        packed = tc.compress(symmetrized)
        round_trip = tc.decompress(packed)
        report = api.rank_oracle.rank_report(inp.k, inp.n)
        decomposition = dc.make_decomposition(inp.k, inp.n, inp.terms)
        rebuilt = dc.reconstruct(decomposition)
        verdict = dc.verify(decomposition, target)
        if not verdict.ok:
            raise VerificationFailed(f"k{inp.k}n{inp.n}: residual {verdict.residual:.3e}")
        form = qu.tensor_to_quantic(packed)
        apolar = qu.apolar_form(form, qu.veronese(inp.beta, inp.k))
        value = qu.evaluate(form, inp.beta)
        return GridOutput(symmetrized, is_sym, round_trip, report, rebuilt, verdict, apolar, value)

    def check(self, raw, inp: GridInput, out: GridOutput) -> list[str]:
        problems = []
        k, n, r = inp.k, inp.n, len(inp.terms)
        sym = out.symmetrized.array
        if not out.is_symmetric:
            problems.append("is_symmetric is False on a symmetrized tensor")
        if not np.array_equal(out.round_trip.array, sym):
            problems.append("decompress(compress(S)) differs from S")
        if (k, n) not in self._symmetrize_checked:
            self._symmetrize_checked.add((k, n))
            mean = sum(inp.dense.transpose(p) for p in itertools.permutations(range(k)))
            mean = mean / math.factorial(k)
            if np.abs(mean - sym).max() > 1e-12 * (1.0 + np.abs(inp.dense).max()):
                problems.append("symmetrize differs from the average over all k! transposes")
        rep = out.report
        if (rep.order, rep.dim, rep.generic_rank) != (k, n, r):
            problems.append(f"rank_report generic rank {rep.generic_rank}, expected {r}")
        if out.verdict.stated_rank != r:
            problems.append(f"verify reports rank {out.verdict.stated_rank}, expected {r}")
        rebuilt = raw.tensor_core.decompress(out.rebuilt).array
        scale = float(np.sum(np.abs(inp.weights) * np.sum(np.abs(inp.vectors), axis=1) ** k))
        if np.abs(rebuilt - inp.reference).max() > 1e-10 * (1.0 + scale):
            problems.append("decompress(reconstruct(D)) differs from the einsum of outer powers")
        beta = np.array(inp.beta)
        expected = contract_all(sym, beta)
        bound = 1e-10 * (1.0 + contract_all(np.abs(sym), np.abs(beta)).real)
        if abs(out.value - expected) > bound:
            problems.append("evaluate(F, beta) differs from the dense contraction")
        if abs(out.apolar - out.value) > bound:
            problems.append("apolar_form(F, veronese(beta, k)) != evaluate(F, beta)")
        return problems

    def tag(self, inp: GridInput, out) -> tuple:
        return (self.name, f"k{inp.k}n{inp.n}")

    def work(self, inp: GridInput) -> int:
        return inp.n**inp.k

    def extra(self, out) -> dict:
        return {}

    def cli_chain(self, raw, workdir) -> Chain:
        """`symmetrize` then `verify` on the (5, 6) cell, as fresh CLI processes."""
        inp = self.inputs(ROTATION.index(CLI_CELL))
        tc, dc = raw.tensor_core, raw.decompose

        def dense_obj(array):
            flat = array.reshape(-1)
            return {"order": array.ndim, "dim": array.shape[0], "format": "dense",
                    "entries": [[c.real, c.imag] for c in flat.tolist()]}

        decomposition = {
            "order": inp.k, "dim": inp.n, "field": "C",
            "terms": [{"weight": [w.real, w.imag], "vector": [[c.real, c.imag] for c in v]}
                      for w, v in inp.terms],
        }
        files = {"a.json": dense_obj(inp.dense), "r.json": dense_obj(inp.reference),
                 "d.json": decomposition}
        for name, obj in files.items():
            (workdir / name).write_text(json.dumps(obj))
        want_sym = tc.tensor_to_json_obj(tc.compress(tc.symmetrize(tc.DenseTensor(inp.dense))))
        verdict = dc.verify(dc.decomposition_from_json_obj(decomposition),
                            tc.compress(tc.DenseTensor(inp.reference)))
        want_verify = {"residual": verdict.residual, "ok": verdict.ok, "stated_rank": verdict.stated_rank}

        def check(stdouts) -> list[str]:
            problems = []
            if json.loads(stdouts[0]) != want_sym:
                problems.append("cli symmetrize output differs from the library result")
            got = json.loads(stdouts[1])
            if got != want_verify or not got["ok"]:
                problems.append(f"cli verify printed {got}, library gives {want_verify}")
            return problems

        steps = [
            ["symmetrize", "--in", str(workdir / "a.json")],
            ["verify", "--tensor", str(workdir / "r.json"), "--decomp", str(workdir / "d.json")],
        ]
        return Chain(steps, check)


def bytes_computed_per_cycle() -> int:
    """Computed bytes the four dense conversions touch in one pass over the grid."""
    return sum(BYTES_PER_ENTRY * ENTRY_PASSES * n**k for k, n in CELLS)
