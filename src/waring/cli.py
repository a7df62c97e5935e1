"""Batch command-line front end with JSON and CSV input/output.

Every capability of the library is reachable from one subcommand.  Exit codes
follow the usual convention: 0 on success, 1 when a verification fails or a
pencil is degenerate, 2 on flag, validation, or input-format errors.  All
output is deterministic given the flags, seeds included, so invocations can
be golden-tested.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from .combinatorics import sym_dimension
from .decompose import (
    DEFAULT_VERIFY_TOL,
    _roots_of_unity_decomposition,
    border_distance_table,
    decompose_sym222_pencil,
    decomposition_from_json_obj,
    decomposition_to_json_obj,
    fit_loglog_slope,
    make_border_spec,
    verify,
)
from .errors import ArithmeticOverflowError, DecompositionError, ValidationError, WorkerError
from .montecarlo import stats_to_csv, typical_rank_experiment
from .quantics import parse_quantic, quantic_to_tensor, render_quantic, tensor_to_quantic
from .rank_oracle import fiber_table, generic_rank_table, rank_report
from .tensor_core import (
    DenseTensor,
    SymmetricTensor,
    compress,
    decompress,
    symmetrize,
    tensor_from_json_obj,
    tensor_to_json_obj,
)

_BORDER_KIND = {"rank2to3": "rank2_to_3", "rank2tok": "rank2_to_k", "tangent": "tangent_sum"}


def _int_at_least(low: int, what: str):
    """argparse type: an integer >= low, described as `what` ("a positive integer") in errors."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"expected {what}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1, "a positive integer")
_nonnegative_int = _int_at_least(0, "a nonnegative integer")


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {value}")
    return value


def _read_input(path: str, parse=str):
    """parse(text) of an input file; undecodable bytes and nesting past the recursion limit are bad input."""
    try:
        return parse(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not {exc.encoding} text: {exc.reason} at byte {exc.start}") from exc
    except RecursionError:
        raise ValidationError(f"{path}: nested too deeply to parse") from None
    except ValueError as exc:  # an integer literal with more digits than int() converts
        raise ValidationError(f"{path}: {exc}") from exc


def _load_symmetric(path: str) -> SymmetricTensor:
    t = tensor_from_json_obj(_read_input(path, json.loads))
    return t if isinstance(t, SymmetricTensor) else compress(t)


def _emit_json(obj, out: str | None = None) -> None:
    text = json.dumps(obj, separators=(",", ":"), allow_nan=False) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _aligned(rows) -> list[str]:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return ["  ".join(c.rjust(w) for c, w in zip(row, widths)).rstrip() for row in rows]


def _cmd_dim(args) -> int:
    print(sym_dimension(args.order, args.dim))
    return 0


def _cmd_rank(args) -> int:
    _emit_json(dataclasses.asdict(rank_report(args.order, args.dim)))
    return 0


def _cmd_table(args) -> int:
    ks = range(3, 7)
    ns = range(2, 11)
    maker, title = {
        "generic": (generic_rank_table, "generic symmetric rank"),
        "fiber": (fiber_table, "fiber dimension of generic decompositions"),
    }[args.what]
    values, exceptions = maker(ks, ns)
    if args.csv:
        lines = ["k,n,value,is_exception"]
        for k, row, marks in zip(ks, values, exceptions):
            for n, v, x in zip(ns, row, marks):
                lines.append(f"{k},{n},{v},{'true' if x else 'false'}")
    else:
        lines = [f"{title} (k down, n across; * marks exceptional pairs)"]
        cells = [["k"] + [str(n) for n in ns]]
        for k, row, marks in zip(ks, values, exceptions):
            cells.append([str(k)] + [f"{v}{'*' if x else ''}" for v, x in zip(row, marks)])
        lines.extend(_aligned(cells))
    print("\n".join(lines))
    return 0


def _cmd_symmetrize(args) -> int:
    t = tensor_from_json_obj(_read_input(args.infile, json.loads))
    dense = t if isinstance(t, DenseTensor) else decompress(t)
    s = compress(symmetrize(dense))
    _emit_json(tensor_to_json_obj(s), args.out)
    return 0


def _cmd_to_poly(args) -> int:
    print(render_quantic(tensor_to_quantic(_load_symmetric(args.infile))))
    return 0


def _cmd_from_poly(args) -> int:
    tensor = quantic_to_tensor(parse_quantic(_read_input(args.infile).strip()))
    _emit_json(tensor_to_json_obj(tensor), args.out)
    return 0


def _cmd_decompose(args) -> int:
    s = _load_symmetric(args.infile)
    if args.method == "monomial":
        if args.field != "C":
            raise ValidationError("method monomial decomposes over C; pass --field C")
        decomposition = _roots_of_unity_decomposition(s)
    else:
        result = decompose_sym222_pencil(s, args.field)
        decomposition = result.decomposition
        if args.out:
            print(f"classification {result.classification} terms {len(decomposition.weights)}")
    _emit_json(decomposition_to_json_obj(decomposition), args.out)
    return 0


def _cmd_verify(args) -> int:
    s = _load_symmetric(args.tensor)
    decomposition = decomposition_from_json_obj(_read_input(args.decomp, json.loads))
    report = verify(decomposition, s, args.tol)
    residual = report.residual if math.isfinite(report.residual) else None
    _emit_json({"residual": residual, "ok": report.ok, "stated_rank": report.stated_rank})
    return 0 if report.ok else 1


def _cmd_demo_border(args) -> int:
    schedule = tuple(args.epsilon * 2.0**-i for i in range(args.steps))
    spec = make_border_spec(_BORDER_KIND[args.kind], order=args.order, epsilons=schedule)
    table = border_distance_table(spec)
    slope = fit_loglog_slope(table)
    if args.csv:
        lines = ["epsilon,distance"]
        lines.extend(f"{e:.12g},{d:.12g}" for e, d in table)
    else:
        lines = [f"kind {spec.kind} order {spec.order}"]
        cells = [["epsilon", "distance"]]
        cells.extend([f"{e:.6g}", f"{d:.6g}"] for e, d in table)
        lines.extend(_aligned(cells))
        lines.append(f"log-log slope {slope:.4f}")
    print("\n".join(lines))
    return 0


def _cmd_montecarlo(args) -> int:
    stats = typical_rank_experiment(args.case, args.samples, args.seed, args.workers)
    if args.csv:
        sys.stdout.write(stats_to_csv(stats))
    else:
        print(f"case {stats.case} samples {stats.samples} seed {stats.seed}")
        print(f"rank2 {stats.rank2} rank3 {stats.rank3} degenerate {stats.degenerate}")
        print(f"fraction {stats.fraction:.6f} stderr {stats.stderr:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waring",
        description="symmetric tensors, quantics, and explicit low-rank decompositions",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("dim", help="dimension of the symmetric tensor space")
    p.add_argument("--order", type=_positive_int, required=True, help="tensor order k")
    p.add_argument("--dim", type=_positive_int, required=True, help="ambient dimension n")
    p.set_defaults(handler=_cmd_dim)

    p = sub.add_parser("rank", help="generic symmetric rank report as JSON")
    p.add_argument("--order", type=_positive_int, required=True, help="tensor order k >= 3")
    p.add_argument("--dim", type=_positive_int, required=True, help="ambient dimension n >= 2")
    p.set_defaults(handler=_cmd_rank)

    p = sub.add_parser("table", help="generic rank or fiber dimension over k=3..6, n=2..10")
    p.add_argument("--what", choices=("generic", "fiber"), required=True)
    p.add_argument("--csv", action="store_true", help="long-format CSV instead of aligned text")
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("symmetrize", help="average a dense tensor over index permutations")
    p.add_argument("--in", dest="infile", required=True, metavar="T.json")
    p.add_argument("--out", metavar="S.json", help="default: standard output")
    p.set_defaults(handler=_cmd_symmetrize)

    p = sub.add_parser("to-poly", help="print the quantic of a symmetric tensor")
    p.add_argument("--in", dest="infile", required=True, metavar="T.json")
    p.set_defaults(handler=_cmd_to_poly)

    p = sub.add_parser("from-poly", help="tensor of a quantic given as c*x<i>^<e> terms")
    p.add_argument("--in", dest="infile", required=True, metavar="P.txt")
    p.add_argument("--out", metavar="T.json", help="default: standard output")
    p.set_defaults(handler=_cmd_from_poly)

    p = sub.add_parser("decompose", help="explicit decomposition into powers of linear forms")
    p.add_argument("--in", dest="infile", required=True, metavar="T.json")
    p.add_argument("--method", choices=("monomial", "pencil"), required=True)
    p.add_argument("--field", choices=("R", "C"), default="C")
    p.add_argument("--out", metavar="D.json", help="default: standard output")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("verify", help="reconstruct a decomposition and compare; exit 0 iff ok")
    p.add_argument("--tensor", required=True, metavar="T.json")
    p.add_argument("--decomp", required=True, metavar="D.json")
    p.add_argument("--tol", type=_positive_float, default=DEFAULT_VERIFY_TOL)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("demo-border", help="distance-to-limit table for a halving schedule")
    p.add_argument("--kind", choices=tuple(_BORDER_KIND), required=True)
    p.add_argument("--epsilon", type=_positive_float, default=0.125, help="largest epsilon")
    p.add_argument("--order", type=_positive_int, default=3, help="order for rank2tok")
    p.add_argument("--steps", type=_int_at_least(2, "at least 2 epsilons"), default=8,
                   help="number of epsilons, each half the one before (at least 2 for a slope)")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(handler=_cmd_demo_border)

    p = sub.add_parser("montecarlo", help="typical-rank sampling experiment over R")
    p.add_argument("--case", choices=("sym222", "asym222"), required=True)
    p.add_argument("--samples", type=_positive_int, required=True)
    p.add_argument("--seed", type=_nonnegative_int, required=True)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(handler=_cmd_montecarlo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except (DecompositionError, WorkerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValidationError, ArithmeticOverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
