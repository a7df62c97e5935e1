"""Benchmark of the `waring` package, one workload per run.

    python3 perfbench/run.py --workload tensor-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The package is loaded from the `src/` directory next to this one.  Each
workload is a closed loop with one client in one process; its inputs come
from `--seed` alone.

--trace 0  end-to-end metrics with tracing off: set-up time in fresh
           interpreters, ops per second and op latency in the timed loop,
           peak RSS, and the wall time of the workload's command chain run
           as fresh `python -m waring.cli` processes.
--trace 1  per-layer metrics: the loop runs once untraced and once with a
           span around every call the benchmark makes into a `waring`
           module; the difference is reported as the tracing overhead.

Every metric is printed with its unit and sample count; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  Exit status 1 means an output check failed or a metric could
not be measured; 2 means bad arguments or no `waring` sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import defects
import perlayer
from chains import run_in_process, run_processes
from envinfo import environment
from harness import Op, loop_figures, run_loop, tally
from probe import ProcessProbe, SpeedProbe
from spans import NullTracer, Tracer, load_api
from wl_montecarlo import CASES, derive_seed, rng_floor_ns_per_trial
from workloads import WORKLOADS, input_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPS = 3  # at least this many set-up interpreters,
SETUP_MIN_S = 4.0  # and more until this much time has passed
CLI_REPS = 7
MAIN_REPS = 5
IMPORT_REPS = 5
TABLE_REPS = 5
RNG_REPS = 3
COVERAGE_BASE = 10**7  # op ids of each coverage pass start at a multiple of this
CHILD_TIMEOUT_S = 150

END_TO_END = ("setup_s", "ops_per_s", "op_ms.p50", "op_ms.tail", "peak_rss_mb", "cli_s")


def child(mode: str, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), mode, workload, str(seed), str(SRC)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def chain_op(kind: str, result) -> Op:
    elapsed, raised, problems = result
    return Op(-1, (kind,), elapsed, raised=raised, problems=problems)


def measure_setup(wl) -> tuple[list[float], list[float], list]:
    """Raw and calibrated set-up seconds of each fresh interpreter, and its warm-up ops."""
    seconds, calibrated, ops = [], [], []
    start = time.perf_counter()
    while len(seconds) < SETUP_REPS or time.perf_counter() - start < SETUP_MIN_S:
        res = child("setup", wl.name, wl.seed)
        seconds.append(res["seconds"])
        calibrated.append(res["seconds"] * res["scale"])
        ops += [Op(-1, ("setup",), 0.0, raised=e) for e in res["errors"]]
        ops += [Op(-1, ("setup",), 0.0) for _ in range(res["attempted"] - len(res["errors"]))]
    return seconds, calibrated, ops


def measure_cli(chain, probe: ProcessProbe) -> tuple[list, list[float]]:
    """CLI chain runs and their calibrated seconds, pinned with the probe to one CPU.

    Each run is calibrated by the probe burst just before it, so drift of the
    machine between runs cancels as well as drift over the whole phase.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        ops, calibrated = [], []
        for _ in range(CLI_REPS):
            scale = probe.burst()
            ops.append(chain_op("cli", run_processes(chain, SRC)))
            calibrated.append(ops[-1].seconds * scale)
        return ops, calibrated
    finally:
        os.sched_setaffinity(0, cpus)


def workload_extras(wl, ops, scale: float) -> dict:
    """Figures printed for the reader that BENCHMARK.json does not gate."""
    extras = {}
    if wl.name == "montecarlo":
        for workers in (1, 2):
            chosen = [op for op in ops if op.tag[2] == workers]
            busy = sum(op.seconds for op in chosen) * scale
            extras[f"trials_per_s.w{workers}"] = (sum(op.work for op in chosen) / busy, "1/s", len(chosen))
    if wl.name == "pencil-stream":
        redrawn = sum(wl.inputs(op.index).redraws > 0 for op in ops)
        extras["redrawn_ratio"] = (redrawn / len(ops), "ratio", len(ops))
    return extras


def end_to_end(wl, raw, seconds: float, workdir: Path):
    probes = {"loop": SpeedProbe(), "cli": ProcessProbe()}
    setup_s, setup_cal, setup_ops = measure_setup(wl)
    ops = run_loop(wl, raw, raw, NullTracer(), seconds, wl.min_ops, probe=probes["loop"])
    cli_ops, cli_cal = measure_cli(wl.cli_chain(raw, workdir), probes["cli"])
    scale = {phase: probe.scale() for phase, probe in probes.items()}
    cli_s = statistics.median(op.seconds for op in cli_ops)
    metrics = {
        "setup_s": (statistics.median(setup_cal), "s", len(setup_s)),
        **loop_figures(ops, wl.tail, scale["loop"]),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB", 1),
        "cli_s": (statistics.median(cli_cal), "s", len(cli_ops)),
    }
    metrics = {name: metrics[name] for name in END_TO_END}
    extras = {
        "raw.setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        **{f"raw.{k}": v for k, v in loop_figures(ops, wl.tail).items()},
        "raw.cli_s": (cli_s, "s", len(cli_ops)),
        **{f"probe.scale.{phase}": (scale[phase], "ratio", len(probe.samples))
           for phase, probe in probes.items()},
        **workload_extras(wl, ops, scale["loop"]),
    }
    return metrics, extras, ops + setup_ops + cli_ops, None


def per_layer(wl, raw, seconds: float, workdir: Path):
    probe_a, probe_b = SpeedProbe(), SpeedProbe()
    untraced = run_loop(wl, raw, raw, NullTracer(), seconds, wl.min_ops, probe=probe_a)
    tracer = Tracer()
    api = load_api(tracer)
    traced = run_loop(wl, api, raw, tracer, seconds, wl.min_ops, probe=probe_b)
    coverage = []
    first_id = COVERAGE_BASE
    for name, cls in WORKLOADS.items():
        if name != wl.name:
            other = cls(wl.seed)
            coverage += run_loop(other, api, raw, tracer, count=other.coverage_ops, first_id=first_id)
            first_id += COVERAGE_BASE
    chain = wl.cli_chain(raw, workdir)
    main_ops = [chain_op("cli.main", run_in_process(chain, api.cli.main)) for _ in range(MAIN_REPS)]
    import_ms = [child("import", wl.name, wl.seed)["ms"] for _ in range(IMPORT_REPS)]
    table_ms = [child("table", wl.name, wl.seed)["ms"] for _ in range(TABLE_REPS)]

    metrics = perlayer.aggregates(tracer.spans, traced, {op.id for op in traced})
    metrics.update(perlayer.per_call(tracer.spans, traced + coverage))
    metrics["combinatorics.table_build_ms"] = (statistics.median(table_ms), "ms", len(table_ms))
    metrics["cli.main_ms"] = (statistics.median(op.seconds for op in main_ops) * 1e3, "ms", len(main_ops))
    metrics["cli.import_ms"] = (statistics.median(import_ms), "ms", len(import_ms))
    for index, case in enumerate(CASES):
        floor = [rng_floor_ns_per_trial(case, derive_seed(wl.seed, 5, index)) for _ in range(RNG_REPS)]
        metrics[f"montecarlo.rng_floor_ns_per_trial.{case}"] = (statistics.median(floor), "ns", RNG_REPS)
    before = loop_figures(untraced, wl.tail, probe_a.scale())
    after = loop_figures(traced, wl.tail, probe_b.scale())
    for key, (value, unit, n) in after.items():
        metrics[f"trace.overhead.{key}"] = (value - before[key][0], unit, n)
    metrics = {name: metrics[name] for name in perlayer.NAMES}
    return metrics, workload_extras(wl, traced, probe_b.scale()), untraced + traced + coverage + main_ops, tracer


def report(wl, args, metrics, extras, ops, env, known) -> dict:
    attempted, failed, correct = tally(ops)
    extras = {**extras, "fail_ratio": (failed / attempted, "ratio", attempted)}
    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env))
    if args.trace == 0:
        print(f"op_ms.tail is op_ms.p{wl.tail:g} for {wl.name}")
    print(f"{'metric':44} {'value':>16} {'unit':6} {'n':>6}")
    for name, (value, unit, n) in {**metrics, **extras}.items():
        print(f"{name:44} {value:16.6g} {unit:6} {n:6d}")
    messages = sorted({op.raised or "; ".join(op.problems) for op in ops if not op.ok})
    for message in messages[:10]:
        print(f"failed: {message}")
    for name, shows in known.items():
        print(f"known defect {name}: {shows or 'fixed'}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    out = WORK / "results" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "env": env, **result,
        "samples": {name: n for name, (_, _, n) in {**metrics, **extras}.items()},
        "extras": {name: {"value": v, "unit": u} for name, (v, u, _) in extras.items()},
        "failures": messages,
        "known_defects": known,
    }, indent=1))
    return result


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
    return status


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tensor-grid", "pencil-stream", "montecarlo", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "waring" / "__init__.py").is_file():
        print(f"error: no waring sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import waring

    if Path(waring.__file__).resolve().parent != (SRC / "waring").resolve():
        print(f"error: imported waring from {waring.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    raw = load_api()
    WORK.mkdir(exist_ok=True)
    measure = end_to_end if args.trace == 0 else per_layer
    try:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            metrics, extras, ops, tracer = measure(wl, raw, args.seconds, Path(tmp))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if tracer is not None:
        trace_path = WORK / "traces" / f"{wl.name}-seed{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(trace_path)
    env = environment(ROOT, args.seed, input_digest(wl))
    result = report(wl, args, metrics, extras, ops, env, defects.reproduce(raw))
    if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
        print("error: a metric could not be measured", file=sys.stderr)
        return 1
    print(json.dumps(result))
    if not result["correct"]:
        print("error: an output check failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
