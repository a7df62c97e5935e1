"""Per-layer metrics from the spans of a traced run.

Aggregates (`<layer>.calls`, `.busy_pct`, `.self_pct`) cover the spans
inside the ops of the workload's own traced loop, as shares of the loop's op
time; a layer the workload never calls reads 0.  Per-call timings are the
median, over ops of the named kind, of the op's summed time in the named
calls.  Ops of every kind are present in each traced run, because the run
ends with a short coverage pass over the other workloads.
"""

from __future__ import annotations

import statistics

from spans import LAYERS, covered, layer_of, self_times
from wl_montecarlo import CASES, WORKERS, MonteCarlo
from wl_pencil_stream import PencilStream
from wl_tensor_grid import CELLS, ENTRY_PASSES, bytes_computed_per_cycle

TG, PS, MC = "tensor-grid", "pencil-stream", "montecarlo"
OP_SPAN = "bench.op"
PENCIL = "decompose.decompose_sym222_pencil"
CONVERSIONS = tuple(f"tensor_core.{f}" for f in ("symmetrize", "is_symmetric", "compress", "decompress"))
SCALE = {"ms": 1e3, "us": 1e6}

# (metric, unit, op-tag prefix, span names summed per op)
PER_CALL = [
    *(
        (f"{layer}.{fn}_ms.k{k}n{n}", "ms", (TG, f"k{k}n{n}"), (f"{layer}.{fn}",))
        for k, n in CELLS
        for layer, fn in (
            ("tensor_core", "symmetrize"), ("tensor_core", "is_symmetric"),
            ("tensor_core", "compress"), ("tensor_core", "decompress"),
            ("decompose", "reconstruct"), ("decompose", "verify"),
        )
    ),
    ("tensor_core.json_us", "us", (PS,), ("tensor_core.tensor_to_json_obj", "tensor_core.tensor_from_json_obj")),
    ("quantics.parse_us", "us", (PS,), ("quantics.parse_quantic",)),
    ("quantics.render_us", "us", (PS,), ("quantics.render_quantic",)),
    ("quantics.apolar_us", "us", (TG,), ("quantics.apolar_form",)),
    ("quantics.evaluate_us", "us", (TG,), ("quantics.evaluate",)),
    ("quantics.veronese_us", "us", (TG,), ("quantics.veronese",)),
    ("rank_oracle.report_us", "us", (TG,), ("rank_oracle.rank_report",)),
    ("decompose.pencil_r3_ms", "ms", (PS, "R", "real_rank_3"), (PENCIL,)),
    ("decompose.pencil_r2_us", "us", (PS, "R", "rank_2"), (PENCIL,)),
    ("decompose.pencil_c_us", "us", (PS, "C"), (PENCIL,)),
    ("decompose.monomial_us", "us", (PS, "M"), ("decompose.decompose_monomial_rank_k", "decompose.make_decomposition")),
    ("decompose.json_us", "us", (PS,), ("decompose.decomposition_to_json_obj", "decompose.decomposition_from_json_obj")),
    ("decompose.verify_us", "us", (PS,), ("decompose.verify",)),
]


# Every per-layer metric a traced run reports, in report order.
NAMES = (
    *(f"{layer}.{what}" for layer in LAYERS for what in ("calls", "busy_pct", "self_pct")),
    *(metric for metric, *_ in PER_CALL),
    "tensor_core.entries_per_s",
    "tensor_core.bytes_computed",
    "decompose.branch_share.real_rank_3",
    *(f"montecarlo.ns_per_trial.{case}.w{workers}" for case in CASES for workers in WORKERS),
    "montecarlo.degenerate_ratio",
    "combinatorics.table_build_ms",
    "cli.main_ms",
    "cli.import_ms",
    *(f"montecarlo.rng_floor_ns_per_trial.{case}" for case in CASES),
    "trace.overhead.ops_per_s",
    "trace.overhead.op_ms.p50",
    "trace.overhead.op_ms.tail",
)


def aggregates(spans, ops, loop_ids) -> dict:
    """calls, busy share and self share of each layer inside the loop's ops."""
    selfs = self_times(spans)
    op_roots = {i for i, s in enumerate(spans) if s.name == OP_SPAN and s.op in loop_ids}

    def inside_op(index: int) -> bool:
        parent = spans[index].parent
        while parent >= 0:
            if parent in op_roots:
                return True
            parent = spans[parent].parent
        return False

    op_time = sum(op.seconds for op in ops if op.id in loop_ids)
    calls = dict.fromkeys(LAYERS, 0)
    intervals = {layer: [] for layer in LAYERS}
    self_sum = dict.fromkeys(LAYERS, 0.0)
    for index, s in enumerate(spans):
        layer = layer_of(s.name)
        if layer in calls and inside_op(index):
            calls[layer] += 1
            intervals[layer].append((s.start, s.end))
            self_sum[layer] += selfs[index]
    n = len(loop_ids)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (calls[layer], "count", n)
        out[f"{layer}.busy_pct"] = (100.0 * covered(intervals[layer]) / op_time, "%", n)
        out[f"{layer}.self_pct"] = (100.0 * self_sum[layer] / op_time, "%", n)
    return out


def per_call(spans, ops) -> dict:
    by_op: dict[int, dict[str, float]] = {}
    for s in spans:
        if s.op >= 0:
            totals = by_op.setdefault(s.op, {})
            totals[s.name] = totals.get(s.name, 0.0) + (s.end - s.start)
    ok_ops = [op for op in ops if op.ok]
    out = {}
    for metric, unit, prefix, names in PER_CALL:
        samples = []
        for op in ok_ops:
            totals = by_op.get(op.id, {})
            if op.tag[: len(prefix)] == prefix and any(n in totals for n in names):
                samples.append(sum(totals.get(n, 0.0) for n in names))
        value = statistics.median(samples) * SCALE[unit] if samples else float("nan")
        out[metric] = (value, unit, len(samples))

    grid = [op for op in ok_ops if op.tag[0] == TG]
    conversion_s = sum(by_op[op.id].get(n, 0.0) for op in grid for n in CONVERSIONS)
    entries = sum(ENTRY_PASSES * op.work for op in grid)
    out["tensor_core.entries_per_s"] = (entries / conversion_s if conversion_s else float("nan"), "1/s", len(grid))
    out["tensor_core.bytes_computed"] = (bytes_computed_per_cycle(), "B", len(CELLS))

    real = [op for op in ok_ops if op.tag[:2] == (PS, "R") and op.index < PencilStream.share_ops]
    rank3 = sum(op.tag[2] == "real_rank_3" for op in real)
    out["decompose.branch_share.real_rank_3"] = (rank3 / len(real) if real else float("nan"), "ratio", len(real))

    experiments = [op for op in ok_ops if op.tag[0] == MC]
    for case in CASES:
        for workers in WORKERS:
            chosen = [op for op in experiments if op.tag[1:] == (case, workers)]
            busy = sum(by_op[op.id].get("montecarlo.typical_rank_experiment", 0.0) for op in chosen)
            trials = sum(op.work for op in chosen)
            out[f"montecarlo.ns_per_trial.{case}.w{workers}"] = (
                busy / trials * 1e9 if trials else float("nan"), "ns", len(chosen))
    first_cycle = [op for op in experiments if op.index < MonteCarlo.cycle]
    trials = sum(op.work for op in first_cycle)
    degenerate = sum(op.extra["degenerate"] for op in first_cycle)
    out["montecarlo.degenerate_ratio"] = (degenerate / trials if trials else float("nan"), "ratio", len(first_cycle))
    return out
