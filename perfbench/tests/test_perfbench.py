"""Tests of the benchmark itself: run with `python -m pytest perfbench/tests`."""

import json
import math
from pathlib import Path

import pytest

import perlayer
import run
from defects import DEFECTS
from harness import loop_figures, run_loop, tail_percentile, tally
from spans import NullTracer, Span, Tracer, covered, load_api, self_times
from wl_pencil_stream import CUBIC_CLASSES, PencilStream, in_defect_region
from workloads import WORKLOADS, input_digest


@pytest.mark.parametrize(
    "n, expected",
    [(10_000, 99.9), (9_999, 99.0), (1_000, 99.0), (999, 90.0), (100, 90.0), (99, 75.0), (40, 75.0), (39, 50.0)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_each_workload_runs_enough_ops_for_its_fixed_tail():
    for cls in WORKLOADS.values():
        assert tail_percentile(cls.min_ops) >= cls.tail
        assert cls.min_ops % cls.cycle == 0


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("bench.op", 0.0, 10.0, -1, 0),
        Span("a.f", 1.0, 4.0, 0, 0),
        Span("b.g", 3.0, 6.0, 0, 0),  # overlaps a.f: the overlap counts once
        Span("c.h", 2.0, 3.0, 1, 0),
        Span("d.k", 9.0, 12.0, 0, 0),  # runs past its parent: only 9..10 is inside
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0])
    assert covered([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)


def test_tracer_records_nesting_and_op():
    tracer = Tracer()
    tracer.op = 7
    inner = tracer.wrap("x.inner", lambda: 1)
    with tracer.span("bench.op"):
        assert inner() == 1
    root, child = tracer.spans
    assert (root.name, root.parent, root.op) == ("bench.op", -1, 7)
    assert (child.name, child.parent, child.op) == ("x.inner", 0, 7)


class FlakyWorkload:
    """Op 2 raises and op 4 returns a wrong answer; the rest are fine."""

    name = "flaky"
    cycle = 1

    def inputs(self, i):
        return i

    def prepare(self, api, inp):
        return inp

    def run(self, api, x):
        if x == 2:
            raise ValueError("injected")
        return x * x if x != 4 else -1

    def check(self, raw, inp, out):
        return [] if out == inp * inp else [f"{out} != {inp * inp}"]

    def tag(self, inp, out):
        return ("flaky",)

    def work(self, inp):
        return 1

    def extra(self, out):
        return {}


def test_injected_failures_count_in_fail_ratio():
    ops = run_loop(FlakyWorkload(), None, None, NullTracer(), count=10)
    attempted, failed, correct = tally(ops)
    assert (attempted, failed) == (10, 2)
    assert not correct  # the wrong answer is an output check failure
    assert ops[2].raised.startswith("ValueError") and ops[4].problems
    figures = loop_figures(ops, 90.0)
    assert math.isinf(figures["op_ms.tail"][0])  # failed ops miss every latency limit


def test_raising_op_alone_keeps_outputs_correct():
    assert tally(run_loop(FlakyWorkload(), None, None, NullTracer(), count=4)) == (4, 1, True)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_input_digest(name):
    assert input_digest(WORKLOADS[name](11)) == input_digest(WORKLOADS[name](11))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_different_seed_gives_different_input_digest(name):
    assert input_digest(WORKLOADS[name](11)) != input_digest(WORKLOADS[name](12))


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(perlayer.NAMES)


def test_sym222_reference_rate():
    from wl_montecarlo import REFERENCE_RATE

    assert REFERENCE_RATE["sym222"] == pytest.approx(0.5207, abs=1e-4)
    assert REFERENCE_RATE["asym222"] == pytest.approx(math.pi / 4)


@pytest.mark.xfail(strict=True, reason="known waring defect; pencil-stream redraws the forms it would fail on")
@pytest.mark.parametrize("name", sorted(DEFECTS))
def test_known_defect_is_fixed(name):
    assert DEFECTS[name](load_api()) is None


def test_pencil_stream_redraws_forms_in_defect_regions():
    assert in_defect_region("R", CUBIC_CLASSES, [0.3, 1.0, 1.0, 1.0 + 4e-6])
    assert in_defect_region("C", CUBIC_CLASSES, [0.3j, 1.0, 1.0, 1.0 + 4e-6])
    assert in_defect_region("M", ((1, 2),), [2e-5])
    assert not in_defect_region("C", CUBIC_CLASSES, [2e-5j, 1.0, 0.5, 1.0])
    forms = [PencilStream(2).inputs(i) for i in range(2000)]
    assert not any(in_defect_region(f.kind, f.classes, f.values) for f in forms)
    assert any(f.redraws for f in forms)
