"""Closed-loop measurement: one client, one operation at a time.

The next operation starts only after the previous one and its output checks
have finished.  Only the operation itself is timed; input generation, the
preparation step and the output checks run outside the timed region.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

class VerificationFailed(Exception):
    """`verify` rejected the decomposition an op produced: a failed op, not a wrong output."""


# Percentiles considered for the tail, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)


@dataclass
class Op:
    """One attempted operation and what became of it."""

    id: int
    tag: tuple
    seconds: float
    index: int = 0  # position in its loop
    work: int = 1
    raised: str | None = None
    problems: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.raised is None and not self.problems


def tail_percentile(n: int) -> float:
    """The highest percentile of the ladder with at least ten samples beyond it."""
    for q in PERCENTILE_LADDER:
        if round(n * (100.0 - q), 6) >= 1000.0:  # n * (1 - q/100) >= 10 without float error
            return q
    return 50.0


def percentile(values, q: float) -> float:
    """Linear interpolation between order statistics; inf values sort last."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    if frac == 0.0 or ordered[lo] == ordered[hi]:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


def latencies(ops) -> list[float]:
    """Operation times; a failed operation counts as missing every latency limit."""
    return [op.seconds if op.ok else math.inf for op in ops]


def run_loop(wl, api, raw, tracer, seconds: float = 0.0, min_ops: int = 0,
             count: int | None = None, first_id: int = 0, probe=None) -> list[Op]:
    """Run operations of workload `wl` in a closed loop.

    Without `count` the loop runs whole cycles of the workload until both
    `seconds` have passed and `min_ops` operations are done; with `count` it
    runs exactly that many.  `api` is what the operation calls (traced or
    not); `raw` is the untraced api the output checks use.  A speed `probe`,
    if given, runs between ops, outside the timed region.
    """
    ops: list[Op] = []
    clock = time.perf_counter
    start = clock()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i >= min_ops and i % wl.cycle == 0 and clock() - start >= seconds:
            break
        inp = wl.inputs(i)
        op_id = first_id + i
        tracer.op = op_id
        out = None
        raised = None
        t0 = clock()
        elapsed = 0.0
        try:
            x = wl.prepare(api, inp)
            with tracer.span("bench.op"):
                t0 = clock()
                out = wl.run(api, x)
                elapsed = clock() - t0
        except Exception as exc:  # an operation that raises is counted as failed
            elapsed = clock() - t0
            raised = f"{type(exc).__name__}: {exc}"
        tracer.op = -1
        if probe is not None:
            probe.after_op(elapsed)
        op = Op(op_id, wl.tag(inp, out), elapsed, index=i, work=wl.work(inp), raised=raised)
        if raised is None:
            try:
                op.problems = wl.check(raw, inp, out)
            except Exception as exc:  # a check that cannot run is a failed check
                op.problems = [f"check raised {type(exc).__name__}: {exc}"]
            op.extra = wl.extra(out)
        ops.append(op)
        i += 1
    return ops


def tally(ops) -> tuple[int, int, bool]:
    """(attempted, failed, correct): correct means no output check failed."""
    return len(ops), sum(not op.ok for op in ops), not any(op.problems for op in ops)


def loop_figures(ops, tail: float, scale: float = 1.0) -> dict:
    """ops_per_s, op_ms.p50 and op_ms.tail of one loop, with sample counts.

    Every op time is multiplied by `scale` (see probe.py).
    """
    busy = sum(op.seconds for op in ops) * scale
    done = sum(op.ok for op in ops)
    lat = latencies(ops)
    return {
        "ops_per_s": (done / busy if busy > 0 else 0.0, "1/s", len(ops)),
        "op_ms.p50": (percentile(lat, 50.0) * scale * 1e3, "ms", len(ops)),
        "op_ms.tail": (percentile(lat, tail) * scale * 1e3, "ms", len(ops)),
    }
