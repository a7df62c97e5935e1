"""montecarlo: typical-rank experiments over every (case, samples, workers) combination.

Why: this workload runs only `montecarlo` (Philox, Box-Muller and the
vectorised discriminant) and skips `tensor_core`, `quantics` and
`decompose`, so storage or decomposer changes should not move it.
`workers=2` is where a process pool would show, and 10^5 samples is where
its start-up cost would show.

Each cycle runs every combination in a fixed order, the two worker counts of
one experiment back to back with the same seed, so their counts must agree
exactly.  The 10^5- and 10^6-sample experiments run twice per cycle, so the
median and p75 of a cycle's 20 op times fall inside one experiment size
(sym222 at 10^6, asym222 at 10^6) rather than on the edge between two.
Experiment seeds derive from the workload seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from chains import Chain

CASES = ("sym222", "asym222")
SAMPLES = (10**5, 10**6, 4 * 10**6)
WORKERS = (1, 2)
REPEATS = {10**5: 2, 10**6: 2, 4 * 10**6: 1}
COMBOS = tuple((s, r, c, w) for s in SAMPLES for r in range(REPEATS[s]) for c in CASES for w in WORKERS)
UNIFORMS_PER_TRIAL = {"sym222": 4, "asym222": 8}
CLI_SAMPLES = 10**6
STDERR_LIMIT = 5.0
RNG_CHUNK = 1 << 16


def sym222_rank2_probability() -> float:
    """P(rank 2) for a real binary cubic with standard normal class entries.

    Rank 2 over R means exactly one real root.  The cubic
    g0 t^3 + 3 g1 t^2 + 3 g2 t + g3 has coefficient variances (1, 9, 9, 1);
    the Kac-Rice formula gives its expected number of real roots E, and
    P(three real roots) = (E - 1) / 2.  Integrated over t = tan(theta).
    """
    theta = np.linspace(-np.pi / 2, np.pi / 2, 400_001)[1:-1]
    t = np.tan(theta)
    a = 1 + 9 * t**2 + 9 * t**4 + t**6
    b = 9 * t + 18 * t**3 + 3 * t**5
    c = 9 + 36 * t**2 + 9 * t**4
    density = np.sqrt(a * c - b * b) / (np.pi * a) / np.cos(theta) ** 2
    expected_roots = float(np.trapezoid(density, theta))
    return (3.0 - expected_roots) / 2.0


# asym222: pi/4 for standard normal entries (Bergqvist; de Silva and Lim).
REFERENCE_RATE = {"sym222": sym222_rank2_probability(), "asym222": math.pi / 4}


@dataclass(frozen=True)
class Experiment:
    case: str
    samples: int
    seed: int
    workers: int


def derive_seed(*words) -> int:
    """A 128-bit experiment seed from the workload seed and a label."""
    hi, lo = np.random.SeedSequence(list(words)).generate_state(2, np.uint64)
    return (int(hi) << 64) | int(lo)


class MonteCarlo:
    name = "montecarlo"
    cycle = len(COMBOS)
    tail = 75.0
    min_ops = 2 * len(COMBOS)
    coverage_ops = 4  # the 10^5-sample experiments of the first cycle
    digest_ops = len(COMBOS)

    def __init__(self, seed: int):
        self.seed = seed
        self._counts: dict = {}

    def inputs(self, i: int) -> Experiment:
        cycle, j = divmod(i, len(COMBOS))
        samples, repeat, case, workers = COMBOS[j]
        seed = derive_seed(self.seed, 3, cycle, repeat, CASES.index(case), samples)
        return Experiment(case, samples, seed, workers)

    def input_bytes(self, inp: Experiment) -> bytes:
        return f"{inp.case},{inp.samples},{inp.seed},{inp.workers};".encode()

    def warmup_ids(self):
        return range(self.coverage_ops)

    def prepare(self, api, inp: Experiment):
        return inp

    def run(self, api, inp: Experiment):
        return api.montecarlo.typical_rank_experiment(inp.case, inp.samples, inp.seed, inp.workers)

    def check(self, raw, inp: Experiment, stats) -> list[str]:
        problems = []
        counts = (stats.rank2, stats.rank3, stats.degenerate)
        if (stats.case, stats.samples, stats.seed) != (inp.case, inp.samples, inp.seed):
            problems.append("experiment echoes the wrong case, samples or seed")
        if sum(counts) != inp.samples:
            problems.append(f"counts {counts} do not add up to {inp.samples}")
        ref = REFERENCE_RATE[inp.case]
        if not abs(stats.fraction - ref) <= STDERR_LIMIT * stats.stderr:
            problems.append(f"rank-2 fraction {stats.fraction:.6f} is more than "
                            f"{STDERR_LIMIT:g} standard errors from {ref:.6f}")
        key = (inp.case, inp.samples, inp.seed)
        if self._counts.setdefault(key, counts) != counts:
            problems.append(f"workers={inp.workers} counts {counts} differ from {self._counts[key]}")
        return problems

    def tag(self, inp: Experiment, out) -> tuple:
        return (self.name, inp.case, inp.workers)

    def work(self, inp: Experiment) -> int:
        return inp.samples

    def extra(self, stats) -> dict:
        return {"degenerate": stats.degenerate}

    def cli_chain(self, raw, workdir) -> Chain:
        """`montecarlo --case sym222 --samples 1000000 --csv` as a fresh process."""
        seed = derive_seed(self.seed, 4)
        want = raw.montecarlo.typical_rank_experiment("sym222", CLI_SAMPLES, seed)

        def check(stdouts) -> list[str]:
            lines = stdouts[0].strip().splitlines()
            row = dict(zip(lines[0].split(","), lines[1].split(","))) if len(lines) == 2 else {}
            got = tuple(row.get(f) for f in ("case", "samples", "seed", "rank2", "rank3", "degenerate"))
            expected = tuple(str(v) for v in (want.case, want.samples, want.seed,
                                              want.rank2, want.rank3, want.degenerate))
            if got != expected or not math.isclose(float(row["fraction"]), want.fraction, rel_tol=1e-11):
                return [f"cli montecarlo printed {row}, library gives {expected}"]
            return []

        argv = ["montecarlo", "--case", "sym222", "--samples", str(CLI_SAMPLES),
                "--seed", str(seed), "--csv"]
        return Chain([argv], check)


def rng_floor_ns_per_trial(case: str, seed: int, trials: int = 10**6) -> float:
    """ns per trial for numpy Philox alone to draw the uniforms of `trials` trials."""
    m = UNIFORMS_PER_TRIAL[case]
    gen = Generator(Philox(key=seed))
    start = time.perf_counter()
    left = trials
    while left:
        cnt = min(RNG_CHUNK, left)
        gen.random((cnt, m))
        left -= cnt
    return (time.perf_counter() - start) / trials * 1e9
