"""Typical-rank experiments for real 2x2x2 tensors.

Over R the rank of a generic 2x2x2 tensor is not a single number: both 2 and
3 occur with positive probability.  Sampling gaussian tensors and classifying
each by the sign of the slice-pencil discriminant estimates the two
probabilities.  The symmetric case draws one standard normal per exponent
class; the unstructured case draws eight, one per entry.

The random stream is reproducible by construction.  Draws come from a
counter-based Philox generator, trial t consuming exactly the uniform block
[t*m, (t+1)*m) where m is 4 for sym222 and 8 for asym222, and normals are
produced from consecutive uniform pairs by the Box-Muller map.  A worker
therefore starts its block by advancing the counter, and any partition of the
trial range into workers reproduces the single-worker counts exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .decompose import PENCIL_DEGENERACY_TOL, pencil_quadratic
from .errors import ValidationError
from .tensor_core import DenseTensor, SymmetricTensor

CHUNK = 1 << 16
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
        denom = self.rank2 + self.rank3
        if not denom:
            return math.nan
        f = self.rank2 / denom
        return math.sqrt(f * (1.0 - f) / denom)


def _gaussians(u: np.ndarray) -> np.ndarray:
    """Box-Muller images of consecutive uniform pairs, layout preserved.

    Columns (2j, 2j+1) of u map to r*cos and r*sin with r**2 = -2 log(1-u_2j),
    so each row of m uniforms becomes m independent standard normals.
    """
    r = np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))
    ang = (2.0 * np.pi) * u[:, 1::2]
    z = np.empty_like(u)
    z[:, 0::2] = r * np.cos(ang)
    z[:, 1::2] = r * np.sin(ang)
    return z


def _validate_seed(seed: int) -> None:
    if not isinstance(seed, int) or not 0 <= seed < _MAX_SEED:
        raise ValidationError("seed must be an integer in [0, 2**128)")


def _trial_gaussians(case: str, seed: int, index: int) -> np.ndarray:
    if case not in UNIFORMS_PER_TRIAL:
        raise ValidationError(f"case must be one of {sorted(UNIFORMS_PER_TRIAL)}")
    _validate_seed(seed)
    if index < 0:
        raise ValidationError("trial index must be >= 0")
    m = UNIFORMS_PER_TRIAL[case]
    bg = Philox(key=seed)
    bg.advance(index * m // 4)
    u = Generator(bg).random(m)
    return _gaussians(u.reshape(1, m))[0]


def sample_sym222(seed: int, index: int) -> SymmetricTensor:
    """Trial `index` of the sym222 stream: one normal per exponent class."""
    z = _trial_gaussians("sym222", seed, index)
    return SymmetricTensor._of(3, 2, z.astype(np.complex128))


def sample_asym222(seed: int, index: int) -> DenseTensor:
    """Trial `index` of the asym222 stream: eight normals in row-major order."""
    z = _trial_gaussians("asym222", seed, index)
    return DenseTensor(z.reshape(2, 2, 2))


def _discriminant_rule(a, b, c):
    """(degenerate, discriminant) of a t^2 + b t + c, scalars or arrays; disc > 0 is rank 2."""
    scale = np.maximum(np.abs(a), np.maximum(np.abs(b), np.abs(c)))
    disc = b * b - 4.0 * a * c
    deg = (scale == 0.0) | (np.abs(disc) <= PENCIL_DEGENERACY_TOL * scale * scale)
    return deg, disc


def _classify_quadratic(a: float, b: float, c: float) -> str:
    deg, disc = _discriminant_rule(a, b, c)
    return "degenerate" if deg else "rank_2" if disc > 0 else "rank_3"


def _require_real(values, what: str) -> None:
    scale = max((abs(v) for v in values), default=0.0)
    worst = max((abs(v.imag) for v in values), default=0.0)
    if worst > 1e-12 * (1.0 + scale):
        raise ValidationError(f"{what} must be real")


def classify_sym222(A: SymmetricTensor) -> str:
    """rank_2, rank_3, or degenerate for a real symmetric 2x2x2 tensor.

    Real distinct pencil eigenvalues (positive discriminant) give two real
    powers of linear forms; a conjugate pair forces a third term.
    """
    if (A.order, A.dim) != (3, 2):
        raise ValidationError(f"expected order 3 dimension 2, got ({A.order}, {A.dim})")
    _require_real(A.coeffs.values(), "tensor entries")
    a, b, c = pencil_quadratic(A)
    return _classify_quadratic(a.real, b.real, c.real)


def classify_asym222(T: DenseTensor) -> str:
    """rank_2, rank_3, or degenerate for a real unstructured 2x2x2 tensor.

    Uses det(T0 + t*T1) for the two first-index slices; the sign of its
    discriminant separates the two typical ranks.
    """
    if T.array.shape != (2, 2, 2):
        raise ValidationError(f"expected shape (2, 2, 2), got {T.array.shape}")
    _require_real(T.array.ravel().tolist(), "tensor entries")
    s0 = T.array[0].real
    s1 = T.array[1].real
    a = float(np.linalg.det(s1))
    c = float(np.linalg.det(s0))
    b = float(np.linalg.det(s0 + s1)) - a - c
    return _classify_quadratic(a, b, c)


def _det2(s: np.ndarray) -> np.ndarray:
    return s[:, 0, 0] * s[:, 1, 1] - s[:, 0, 1] * s[:, 1, 0]


def _run_block(case: str, seed: int, lo: int, hi: int) -> tuple[int, int, int]:
    """Classify trials [lo, hi) of the stream; returns (rank2, rank3, degenerate)."""
    m = UNIFORMS_PER_TRIAL[case]
    bg = Philox(key=seed)
    # advance counts counter ticks of four 64-bit words; lo*m is a multiple of 4
    bg.advance(lo * m // 4)
    gen = Generator(bg)
    rank2 = rank3 = degenerate = 0
    t = lo
    while t < hi:
        cnt = min(CHUNK, hi - t)
        z = _gaussians(gen.random((cnt, m)))
        if case == "sym222":
            g0, g1, g2, g3 = (z[:, i] for i in range(4))
            a = g1 * g3 - g2 * g2
            b = g1 * g2 - g0 * g3
            c = g0 * g2 - g1 * g1
        else:
            slices = z.reshape(cnt, 2, 2, 2)
            a = _det2(slices[:, 1])
            c = _det2(slices[:, 0])
            b = _det2(slices[:, 0] + slices[:, 1]) - a - c
        deg, disc = _discriminant_rule(a, b, c)
        degenerate += int(deg.sum())
        live = ~deg
        rank2 += int((live & (disc > 0)).sum())
        rank3 += int((live & (disc < 0)).sum())
        t += cnt
    return rank2, rank3, degenerate


def typical_rank_experiment(case: str, samples: int, seed: int, workers: int = 1) -> TrialStats:
    """Classify `samples` gaussian draws; counts are worker-count invariant.

    The trial range splits into `workers` contiguous blocks, each consuming
    its own slice of the counter-based stream, so any worker count yields
    identical counts for a given (case, samples, seed).
    """
    if case not in UNIFORMS_PER_TRIAL:
        raise ValidationError(f"case must be one of {sorted(UNIFORMS_PER_TRIAL)}")
    _validate_seed(seed)
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    rank2 = rank3 = degenerate = 0
    for i in range(workers):
        lo = samples * i // workers
        hi = samples * (i + 1) // workers
        if lo == hi:
            continue
        r2, r3, dg = _run_block(case, seed, lo, hi)
        rank2 += r2
        rank3 += r3
        degenerate += dg
    return TrialStats(case, samples, seed, rank2, rank3, degenerate)


def stats_to_csv(stats: TrialStats) -> str:
    """One-row CSV with header; fraction and stderr print 12 significant digits."""

    def fmt(x: float) -> str:
        return "nan" if math.isnan(x) else format(x, ".12g")

    header = "case,samples,seed,rank2,rank3,degenerate,fraction,stderr"
    row = (
        f"{stats.case},{stats.samples},{stats.seed},{stats.rank2},"
        f"{stats.rank3},{stats.degenerate},{fmt(stats.fraction)},{fmt(stats.stderr)}"
    )
    return header + "\n" + row + "\n"
