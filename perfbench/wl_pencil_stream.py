"""pencil-stream: thousands of tiny binary forms, given as text, decomposed and verified.

Why: tiny tensors use `tensor_core` for its per-call overhead rather than its
volume, so a storage change that speeds big arrays but slows 2x2x2 objects
shows here.  The decomposer branches dominate: a real rank-3 cubic costs tens
of times more than the other ops, so a change to the binary decomposer shows
here and not on tensor-grid.

The kinds rotate in a fixed order, R C R C M, giving 40% real cubics
(decomposed over R), 40% complex cubics (over C) and 20% scalar multiples of
z1*z2^(k-1) (the monomial construction).  Class entries are standard normal,
the sampling convention of the typical-rank experiments, so about half of the
real cubics come out `rank_2` and half `real_rank_3`.  Each form is rendered
with `render_quantic` and the op starts from that text.

Two known defects of `waring` make an op fail (see `defects.py`): a rendered
real coefficient below 1e-4 is printed in exponent form, which
`parse_quantic` cannot read, and a pencil whose leading coefficient nearly
vanishes gets a decomposition that `verify` rejects.  Every op of the
benchmark must succeed, so a form drawn in either region is drawn again from
the same generator; the redraws are counted and printed with each run, and
every run reproduces both defects outside the stream.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from chains import Chain
from harness import VerificationFailed
from wl_tensor_grid import complex_normal

PATTERN = ("R", "C", "R", "C", "M")
CUBIC_CLASSES = ((3, 0), (2, 1), (1, 2), (0, 3))
MONOMIAL_ORDERS = range(2, 9)
CHECK_TOL = 1e-8  # ten times the tolerance of `verify`
PARSE_TOL = 1e-11  # render prints 12 significant digits
MIN_RENDERED_REAL = 1e-3  # render_quantic prints real coefficients below 1e-4 in exponent form
MIN_PENCIL_LEAD = 1e-2  # verify starts rejecting pencils at |a| of about 1e-3 of max(|a|, |b|, |c|)


@dataclass(frozen=True)
class Form:
    kind: str  # R, C or M
    degree: int
    classes: tuple
    values: np.ndarray  # stored (multinomial-scaled) class entries
    redraws: int = 0  # earlier draws rejected by in_defect_region


@dataclass(frozen=True)
class PencilOutput:
    tensor: object
    decomposition: object
    classification: str
    verdict: object


def pencil_quadratic(values) -> tuple:
    """Coefficients (a, b, c) of det(A0 - t A1) from the class entries c30, c21, c12, c03."""
    c30, c21, c12, c03 = values
    return c21 * c03 - c12 * c12, c21 * c12 - c30 * c03, c30 * c12 - c21 * c21


def pencil_discriminant(values) -> float:
    """Discriminant of det(A0 - t A1) of a real cubic."""
    a, b, c = pencil_quadratic([float(np.real(v)) for v in values])
    return b * b - 4.0 * a * c


def in_defect_region(kind: str, classes, values) -> bool:
    """True when a known defect of `waring` would make the op on this form fail."""
    if kind != "C":
        for (i, j), v in zip(classes, values):
            if abs(math.comb(i + j, i) * v) < MIN_RENDERED_REAL:
                return True
    if kind != "M":
        a, b, c = (abs(x) for x in pencil_quadratic(values))
        return a < MIN_PENCIL_LEAD * max(a, b, c)
    return False


def dense_binary(classes, values, k: int) -> np.ndarray:
    """Dense 2^k array whose entry at j is the value of the class of j."""
    lookup = dict(zip(classes, values))
    ones = np.indices((2,) * k).sum(axis=0)
    table = np.array([lookup.get((k - m, m), 0j) for m in range(k + 1)], dtype=np.complex128)
    return table[ones]


def decomposition_dense(decomposition) -> np.ndarray:
    k = decomposition.order
    total = np.zeros((decomposition.dim,) * k, dtype=np.complex128)
    for w, v in decomposition.terms:
        vec = np.array(v)
        power = vec
        for _ in range(k - 1):
            power = np.multiply.outer(power, vec)
        total += w * power
    return total


class PencilStream:
    name = "pencil-stream"
    cycle = len(PATTERN)
    tail = 99.0
    min_ops = 1000
    coverage_ops = 50
    digest_ops = 1000
    share_ops = 1000  # branch_share counts the first this many ops

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self, i: int) -> Form:
        kind = PATTERN[i % len(PATTERN)]
        rng = np.random.default_rng([self.seed, 2, i])
        redraws = 0
        while True:
            if kind == "R":
                form = Form(kind, 3, CUBIC_CLASSES, rng.standard_normal(4), redraws)
            elif kind == "C":
                form = Form(kind, 3, CUBIC_CLASSES, complex_normal(rng, (4,)), redraws)
            else:
                k = int(rng.integers(MONOMIAL_ORDERS.start, MONOMIAL_ORDERS.stop))
                form = Form(kind, k, ((1, k - 1),), rng.standard_normal(1), redraws)
            if not in_defect_region(kind, form.classes, form.values):
                return form
            redraws += 1

    def input_bytes(self, inp: Form) -> bytes:
        return f"{inp.kind}{inp.degree}".encode() + inp.values.tobytes()

    def warmup_ids(self):
        """The first op of each input shape, real cubics once per pencil branch.

        Warming both real branches keeps the set-up work the same whatever the seed.
        """

        def shape(inp: Form):
            if inp.kind == "R":
                return ("R", pencil_discriminant(inp.values) < 0)
            return (inp.kind, inp.degree)

        wanted = {("R", False), ("R", True), ("C", 3)} | {("M", k) for k in MONOMIAL_ORDERS}
        ids = []
        i = 0
        while wanted:
            key = shape(self.inputs(i))
            if key in wanted:
                wanted.discard(key)
                ids.append(i)
            i += 1
        return ids

    def prepare(self, api, inp: Form):
        qu = api.quantics
        form = qu.Quantic(inp.degree, 2, {p: complex(v) for p, v in zip(inp.classes, inp.values)})
        return inp.kind, qu.render_quantic(form)

    def run(self, api, x) -> PencilOutput:
        kind, text = x
        qu, tc, dc = api.quantics, api.tensor_core, api.decompose
        tensor = qu.quantic_to_tensor(qu.parse_quantic(text))
        tensor = tc.tensor_from_json_obj(json.loads(json.dumps(tc.tensor_to_json_obj(tensor))))
        if kind == "M":
            # scaled as the command line does: value * k times the unit decomposition
            k = tensor.order
            scale = tensor.coeffs.get((1, k - 1), 0j) * k
            base = dc.decompose_monomial_rank_k(k)
            decomposition = dc.make_decomposition(
                k, 2, [(scale * w, v) for w, v in base.terms], field_tag="C")
            classification = "monomial"
        else:
            result = dc.decompose_sym222_pencil(tensor, kind)
            decomposition, classification = result.decomposition, result.classification
        decomposition = dc.decomposition_from_json_obj(
            json.loads(json.dumps(dc.decomposition_to_json_obj(decomposition))))
        verdict = dc.verify(decomposition, tensor)
        if not verdict.ok:
            raise VerificationFailed(f"{kind} {classification}: residual {verdict.residual:.3e}")
        return PencilOutput(tensor, decomposition, classification, verdict)

    def check(self, raw, inp: Form, out: PencilOutput) -> list[str]:
        problems = []
        k = inp.degree
        tensor = out.tensor
        got = [tensor.coeffs.get(p, 0j) for p in inp.classes]
        if (tensor.order, tensor.dim) != (k, 2) or set(tensor.coeffs) - set(inp.classes):
            problems.append(f"parsed tensor has shape ({tensor.order}, {tensor.dim}) "
                            f"and classes {sorted(tensor.coeffs)}")
        elif any(abs(g - v) > PARSE_TOL * (1.0 + abs(v)) for g, v in zip(got, inp.values)):
            problems.append("parsed coefficients differ from the generated ones")
        target = dense_binary(inp.classes, got, k)
        residual = np.linalg.norm(decomposition_dense(out.decomposition) - target)
        if residual > CHECK_TOL * (1.0 + np.linalg.norm(target)):
            problems.append(f"outer powers of the terms miss the tensor by {residual:.3e}")
        terms = len(out.decomposition.terms)
        if inp.kind == "R":
            expected = "real_rank_3" if pencil_discriminant(got) < 0 else "rank_2"
            if out.classification != expected or terms != (3 if expected == "real_rank_3" else 2):
                problems.append(f"classified {out.classification} with {terms} terms, expected {expected}")
            if out.decomposition.field_tag != "R":
                problems.append("a real-field decomposition is not tagged R")
        elif inp.kind == "C":
            if out.classification != "rank_2" or terms != 2:
                problems.append(f"complex cubic gave {out.classification} with {terms} terms")
        elif terms != k:
            problems.append(f"monomial construction gave {terms} terms for order {k}")
        return problems

    def tag(self, inp: Form, out) -> tuple:
        return (self.name, inp.kind, out.classification if out is not None else "raised")

    def work(self, inp: Form) -> int:
        return 1

    def extra(self, out) -> dict:
        return {}

    def cli_chain(self, raw, workdir) -> Chain:
        """`from-poly`, `decompose --method pencil --field R`, `verify` on one real rank-3 cubic."""
        i = 0
        while not (PATTERN[i % len(PATTERN)] == "R" and pencil_discriminant(self.inputs(i).values) < 0):
            i += 1
        inp = self.inputs(i)
        qu, tc, dc = raw.quantics, raw.tensor_core, raw.decompose
        text = qu.render_quantic(qu.Quantic(3, 2, {p: complex(v) for p, v in zip(inp.classes, inp.values)}))
        (workdir / "p.txt").write_text(text + "\n")
        tensor = qu.quantic_to_tensor(qu.parse_quantic(text))
        result = dc.decompose_sym222_pencil(tensor, "R")
        want_tensor = tc.tensor_to_json_obj(tensor)
        want_decomposition = dc.decomposition_to_json_obj(result.decomposition)
        verdict = dc.verify(dc.decomposition_from_json_obj(want_decomposition), tensor)
        want_verify = {"residual": verdict.residual, "ok": verdict.ok, "stated_rank": verdict.stated_rank}
        t_path, d_path = workdir / "t.json", workdir / "d.json"

        def check(stdouts) -> list[str]:
            problems = []
            if json.loads(t_path.read_text()) != want_tensor:
                problems.append("cli from-poly output differs from the library result")
            line = f"classification {result.classification} terms {len(result.decomposition.terms)}"
            if stdouts[1].strip() != line or json.loads(d_path.read_text()) != want_decomposition:
                problems.append(f"cli decompose printed {stdouts[1].strip()!r}, library gives {line!r}")
            got = json.loads(stdouts[2])
            if got != want_verify or not got["ok"]:
                problems.append(f"cli verify printed {got}, library gives {want_verify}")
            return problems

        steps = [
            ["from-poly", "--in", str(workdir / "p.txt"), "--out", str(t_path)],
            ["decompose", "--in", str(t_path), "--method", "pencil", "--field", "R", "--out", str(d_path)],
            ["verify", "--tensor", str(t_path), "--decomp", str(d_path)],
        ]
        return Chain(steps, check)
