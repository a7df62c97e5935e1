"""Typical-rank experiments for real 2x2x2 tensors.

Over R the rank of a generic 2x2x2 tensor is not a single number: both 2 and
3 occur with positive probability.  Sampling gaussian tensors and classifying
each by the sign of the slice-pencil discriminant estimates the two
probabilities.  The symmetric case draws one standard normal per exponent
class; the unstructured case draws eight, one per entry.

The rule is decompose_sym222_pencil's: a pencil quadratic that vanishes, is
constant in t, or has a double root, relative to its largest coefficient, is
degenerate.  The classifiers divide the entries exactly, by the power of two at
their largest |re| or |im|, as the decomposer does: a label is the streamed rule
on the stored entries, and classify_sym222's is the decomposer's branch over R,
which near a double root can still raise, where verify refuses its terms.

The random stream is reproducible by construction.  Draws come from a
counter-based Philox generator, trial t consuming exactly the uniform block
[t*m, (t+1)*m) where m is 4 for sym222 and 8 for asym222, and normals are
produced from consecutive uniform pairs (u, v) by the Box-Muller map, taken
through t = tan(pi*v) and the half-angle identities for cos and sin of 2*pi*v,
and through log(1-u), exact in 1-u on the 2**-53 grid of Philox uniforms.  A
worker therefore starts its block by advancing the counter, and any partition
of the trial range into workers reproduces the single-worker counts exactly.
Trial indices stop below 2**256 * 4 // m, where the 256-bit counter wraps.

A block is drawn and classified CHUNK = 2**14 trials at a time, so each
asym222 scratch array (2**14 rows of eight float64) takes 1 MiB and fits a
2 MiB L2 cache; 2**16 rows, 4 MiB arrays, took 7-9% longer on such a cache.
Philox draws do not depend on the shape they are requested in, so the
normals are the same for any chunk size.

`workers` above 1 runs blocks in threads, one block in the caller itself, at
most one block per CPU this process may run on; numpy releases the GIL in the
Philox fills and the ufuncs, so the blocks run in parallel.  Each block gets at
least MIN_WORKER_TRIALS = 2**17 trials (15-40 ms of sampling), so a thread
costs little beside its work, and smaller experiments run serially.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .decompose import _catalecticant_kernel, _pencil_rule, _require_sym222, _scaled_entries
from .errors import ValidationError, WorkerError, _integer
from .tensor_core import DenseTensor, SymmetricTensor

CHUNK = 1 << 14
MIN_WORKER_TRIALS = 1 << 17
UNIFORMS_PER_TRIAL = {"sym222": 4, "asym222": 8}
_MAX_SEED = 2**128


@dataclass(frozen=True)
class TrialStats:
    """Counts from one experiment; fraction and stderr ignore degenerates."""

    case: str
    samples: int
    seed: int
    rank2: int
    rank3: int
    degenerate: int

    @property
    def fraction(self) -> float:
        denom = self.rank2 + self.rank3
        return self.rank2 / denom if denom else math.nan

    @property
    def stderr(self) -> float:
        f, denom = self.fraction, self.rank2 + self.rank3
        return math.sqrt(f * (1.0 - f) / denom) if denom else math.nan


def _gaussians(u: np.ndarray) -> np.ndarray:
    """Box-Muller images of consecutive uniform pairs, layout preserved.

    Columns (2j, 2j+1) = (u, v) map to q*(1-t**2) = r*cos(2*pi*v) and
    2*q*t = r*sin(2*pi*v) with t = tan(pi*v), q = r/(1+t**2), r**2 = -2 log(1-u):
    numpy vectorises tan, not cos and sin.  Philox uniforms lie on the 2**-53
    grid, where 1-u is exact, so log(1-u) is log1p(-u) up to its last rounding.
    v = 1/2 gives t ~ 1.6e16, so t**2 stays finite.  Each row of m uniforms
    becomes m independent standard normals.
    """
    r = np.sqrt(-2.0 * np.log(1.0 - u[:, 0::2]))
    t = np.tan(np.pi * u[:, 1::2])
    t2 = t * t
    q = r / (1.0 + t2)
    z = np.empty_like(u)
    z[:, 0::2] = q * (1.0 - t2)
    z[:, 1::2] = 2.0 * q * t
    return z


def _check_stream(case: str, seed: int, end: int) -> int:
    """seed as an int, once case names a stream, the seed lies below 2**128 and trial end - 1 below the wrap."""
    if case not in UNIFORMS_PER_TRIAL:
        raise ValidationError(f"case must be one of {sorted(UNIFORMS_PER_TRIAL)}")
    if (seed := _integer(seed, "seed", 0)) >= _MAX_SEED:
        raise ValidationError("seed must be an integer in [0, 2**128)")
    m = UNIFORMS_PER_TRIAL[case]
    if end * m // 4 > 2**256:
        raise ValidationError(f"trial index must be below 2**{256 - m // 8} for {case}, where the Philox counter wraps")
    return seed


def _stream(case: str, seed: int, lo: int, hi: int | None = None):
    """Normals of trials [lo, hi), trial lo alone by default, one row per trial, CHUNK rows at a time.

    Not a generator function, so the arguments are checked at the call.
    """
    lo = _integer(lo, "trial index", 0)
    hi = lo + 1 if hi is None else hi
    seed = _check_stream(case, seed, hi)
    m = UNIFORMS_PER_TRIAL[case]
    bg = Philox(key=seed)
    # advance counts counter ticks of four 64-bit words; lo*m is a multiple of 4
    bg.advance(lo * m // 4)
    gen = Generator(bg)
    return (_gaussians(gen.random((min(CHUNK, hi - t), m))) for t in range(lo, hi, CHUNK))


def sample_sym222(seed: int, index: int) -> SymmetricTensor:
    """Trial `index` of the sym222 stream: one normal per exponent class."""
    z = next(_stream("sym222", seed, index))[0]
    return SymmetricTensor._of(3, 2, z.astype(np.complex128))


def sample_asym222(seed: int, index: int) -> DenseTensor:
    """Trial `index` of the asym222 stream: eight normals in row-major order."""
    z = next(_stream("asym222", seed, index))[0]
    return DenseTensor(z.reshape(2, 2, 2))


_LABELS = ("rank_2", "rank_3", "degenerate")


def _det2(s: np.ndarray) -> np.ndarray:
    return s[:, 0, 0] * s[:, 1, 1] - s[:, 0, 1] * s[:, 1, 0]


def _label_masks(case: str, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masks of the rows of z, one trial each, in the order of _LABELS.

    The pencil quadratic is the catalecticant kernel for sym222, det(T0 + t*T1) for asym222.
    """
    if case == "sym222":
        a, b, c = _catalecticant_kernel(*z.T)
    else:
        slices = z.reshape(-1, 2, 2, 2)
        a = _det2(slices[:, 1])
        c = _det2(slices[:, 0])
        b = _det2(slices[:, 0] + slices[:, 1]) - a - c
    (vanishes, constant, double), disc = _pencil_rule(a, b, c)
    degenerate = vanishes | constant | double
    live = ~degenerate
    return live & (disc > 0), live & (disc < 0), degenerate


def _classify(case: str, values: np.ndarray) -> str:
    masks = _label_masks(case, _scaled_entries(values, "R")[1][None, :])
    return next(label for label, mask in zip(_LABELS, masks) if mask[0])


def classify_sym222(A: SymmetricTensor) -> str:
    """rank_2, rank_3, or degenerate for a real symmetric 2x2x2 tensor.

    Real distinct pencil eigenvalues (positive discriminant) give two real
    powers of linear forms; a conjugate pair forces a third.  The label names
    the branch of decompose_sym222_pencil over R: rank_2, real_rank_3 or an error.
    """
    _require_sym222(A)
    return _classify("sym222", A._vector)


def classify_asym222(T: DenseTensor) -> str:
    """rank_2, rank_3, or degenerate for a real unstructured 2x2x2 tensor.

    Uses det(T0 + t*T1) for the two first-index slices, entries divided by
    the power of two at the largest magnitude first; the sign of its
    discriminant separates the two typical ranks.
    """
    if T.array.shape != (2, 2, 2):
        raise ValidationError(f"expected shape (2, 2, 2), got {T.array.shape}")
    return _classify("asym222", T.array.reshape(-1))


def _run_block(case: str, seed: int, lo: int, hi: int) -> np.ndarray:
    """Classify trials [lo, hi) of the stream; returns counts of (rank2, rank3, degenerate)."""
    counts = np.zeros(3, dtype=np.int64)
    for z in _stream(case, seed, lo, hi):
        counts += [mask.sum() for mask in _label_masks(case, z)]
    return counts


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS and Windows have no affinity call
        return os.cpu_count() or 1


def typical_rank_experiment(case: str, samples: int, seed: int, workers: int = 1) -> TrialStats:
    """Classify `samples` gaussian draws; counts are worker-count invariant.

    The trial range splits into contiguous blocks: at most `workers`, one per
    usable CPU and one per MIN_WORKER_TRIALS trials.  The caller runs the first
    block and a thread runs each other one.  Each block consumes its own slice
    of the counter-based stream, so any worker count yields identical counts
    for a given (case, samples, seed).
    """
    samples, workers = _integer(samples, "samples", 1), _integer(workers, "workers", 1)
    seed = _check_stream(case, seed, samples)
    blocks = max(1, min(workers, _usable_cpus(), samples // MIN_WORKER_TRIALS))
    bounds = [samples * i // blocks for i in range(blocks + 1)]
    spans = list(zip(bounds, bounds[1:]))
    results: dict[tuple[int, int], np.ndarray | Exception] = {}

    def run(lo: int, hi: int) -> None:
        try:
            results[lo, hi] = _run_block(case, seed, lo, hi)
        except Exception as exc:
            results[lo, hi] = exc

    threads = [threading.Thread(target=run, args=span, daemon=True) for span in spans[1:]]
    for thread in threads:
        thread.start()
    run(*spans[0])  # a KeyboardInterrupt here propagates at once: daemon threads need no join
    for thread in threads:
        thread.join()
    if isinstance(results[spans[0]], Exception):
        raise results[spans[0]]
    for lo, hi in spans[1:]:
        if isinstance(exc := results[lo, hi], Exception):
            raise WorkerError(f"the worker for trials [{lo}, {hi}) raised {type(exc).__name__}: {exc}") from exc
    return TrialStats(case, samples, seed, *sum(results.values()).tolist())


def stats_to_csv(stats: TrialStats) -> str:
    """One-row CSV with header; fraction and stderr print 12 significant digits, or nan."""
    header = "case,samples,seed,rank2,rank3,degenerate,fraction,stderr"
    row = (
        f"{stats.case},{stats.samples},{stats.seed},{stats.rank2},"
        f"{stats.rank3},{stats.degenerate},{stats.fraction:.12g},{stats.stderr:.12g}"
    )
    return header + "\n" + row + "\n"
