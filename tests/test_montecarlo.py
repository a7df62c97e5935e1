from __future__ import annotations

import math
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.random import Generator, Philox

from waring.decompose import decompose_sym222_pencil
from waring import montecarlo
from waring.errors import DegeneratePencilError, ValidationError, WorkerError
from waring.montecarlo import (
    MIN_WORKER_TRIALS,
    TrialStats,
    classify_asym222,
    classify_sym222,
    sample_asym222,
    sample_sym222,
    stats_to_csv,
    typical_rank_experiment,
)
from waring.quantics import parse_quantic, quantic_to_tensor
from waring.tensor_core import DenseTensor, SymmetricTensor


def test_trial_consumes_its_own_uniform_block():
    """Trial t is a pure function of uniforms [4t, 4t+4) of the Philox stream."""
    raw = Generator(Philox(key=9)).random(40)
    for t in range(10):
        s = sample_sym222(9, t)
        u = raw[4 * t : 4 * t + 4]
        r0 = math.sqrt(-2.0 * math.log1p(-u[0]))
        r1 = math.sqrt(-2.0 * math.log1p(-u[2]))
        expected = [
            r0 * math.cos(2 * math.pi * u[1]),
            r0 * math.sin(2 * math.pi * u[1]),
            r1 * math.cos(2 * math.pi * u[3]),
            r1 * math.sin(2 * math.pi * u[3]),
        ]
        got = [s.coeffs.get(p, 0j).real for p in ((3, 0), (2, 1), (1, 2), (0, 3))]
        assert got == pytest.approx(expected, abs=1e-15)


def test_asym_trial_reshapes_row_major():
    raw = Generator(Philox(key=5)).random(16)
    t1 = sample_asym222(5, 1)
    u = raw[8:16]
    z = []
    for j in range(4):
        r = math.sqrt(-2.0 * math.log1p(-u[2 * j]))
        z.append(r * math.cos(2 * math.pi * u[2 * j + 1]))
        z.append(r * math.sin(2 * math.pi * u[2 * j + 1]))
    assert t1.array.ravel().real == pytest.approx(z, abs=1e-15)


def test_sampling_rejects_a_negative_trial_index():
    with pytest.raises(ValidationError, match="trial index"):
        sample_sym222(0, -1)


@pytest.mark.parametrize(
    "sample, index",
    # the 256-bit Philox counter would wrap: the first two would replay trial 0
    [(sample_sym222, 2**256), (sample_asym222, 2**255), (sample_sym222, 1.5), (sample_sym222, True)],
    ids=["sym222-2**256", "asym222-2**255", "float", "bool"],
)
def test_sampling_rejects_an_index_past_the_counter_or_not_an_int(sample, index):
    with pytest.raises(ValidationError, match="trial index"):
        sample(0, index)


def test_the_last_trials_before_the_counter_wraps_are_drawn():
    assert sample_sym222(0, 2**256 - 1).coeffs != sample_sym222(0, 0).coeffs
    assert not np.array_equal(sample_asym222(0, 2**255 - 1).array, sample_asym222(0, 0).array)


def reference_gaussians(u):
    """The cos/sin/log1p Box-Muller map the sampler used before the half-angle form."""
    r = np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))
    ang = (2.0 * np.pi) * u[:, 1::2]
    z = np.empty_like(u)
    z[:, 0::2] = r * np.cos(ang)
    z[:, 1::2] = r * np.sin(ang)
    return z


@pytest.mark.parametrize("case", ["sym222", "asym222"])
def test_counts_match_the_cos_sin_map(case):
    samples, m = 1 << 17, montecarlo.UNIFORMS_PER_TRIAL[case]
    for seed in (0, 1, 2, 3, 42, 2024, 10**9 + 7, 2**128 - 1):
        z = reference_gaussians(Generator(Philox(key=seed)).random((samples, m)))
        want = [int(mask.sum()) for mask in montecarlo._label_masks(case, z)]
        s = typical_rank_experiment(case, samples, seed)
        assert [s.rank2, s.rank3, s.degenerate] == want, seed


def test_philox_uniforms_lie_on_the_double_grid():
    """Multiples of 2**-53, so 1 - u is exact and log(1 - u) loses nothing to log1p(-u)."""
    u = Generator(Philox(key=3)).random(1 << 16)
    assert np.array_equal(u * 2.0**53, np.floor(u * 2.0**53))
    assert np.array_equal((1.0 - u) + u, np.ones_like(u))


def test_box_muller_is_finite_on_the_edge_uniforms():
    edges = [0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-53]
    u = np.array([[a, b] for a in edges for b in edges])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = montecarlo._gaussians(u)
    assert np.isfinite(z).all()
    assert z[u[:, 0] == 0.0].tolist() == [[0.0, 0.0]] * len(edges)


@pytest.mark.parametrize("case", ["sym222", "asym222"])
def test_normals_within_4_ulp_of_the_math_formula(case):
    """Within 4 ulp of max(r, 1) of r*cos(2 pi v), r*sin(2 pi v), r = sqrt(-2 log1p(-u))."""
    trials, m = 1 << 16, montecarlo.UNIFORMS_PER_TRIAL[case]
    z = np.concatenate(list(montecarlo._stream(case, 8, 0, trials))).ravel().tolist()
    u = Generator(Philox(key=8)).random(trials * m).tolist()
    for j in range(0, len(u), 2):
        r = math.sqrt(-2.0 * math.log1p(-u[j]))
        ang = 2 * math.pi * u[j + 1]
        ulp = math.ulp(max(r, 1.0))
        assert abs(z[j] - r * math.cos(ang)) <= 4 * ulp, j
        assert abs(z[j + 1] - r * math.sin(ang)) <= 4 * ulp, j


def test_sampling_is_deterministic():
    a = sample_sym222(123, 7)
    b = sample_sym222(123, 7)
    assert a.coeffs == b.coeffs
    assert sample_sym222(124, 7).coeffs != a.coeffs


def test_classify_sym_known_cases():
    # 3 x1 x2^2 - x1^3 has conjugate pencil roots: real rank 3
    a = SymmetricTensor(3, 2, {(3, 0): -1.0, (1, 2): 1.0})
    assert classify_sym222(a) == "rank_3"
    # x1^3 + x2^3 splits over R
    b = SymmetricTensor(3, 2, {(3, 0): 1.0, (0, 3): 1.0})
    assert classify_sym222(b) == "rank_2"
    # a perfect cube is degenerate
    c = SymmetricTensor(3, 2, {(3, 0): 1.0})
    assert classify_sym222(c) == "degenerate"


def test_classify_asym_known_cases():
    rank2 = np.zeros((2, 2, 2))
    rank2[0, 0, 0] = 1.0
    rank2[1, 1, 1] = 1.0
    assert classify_asym222(DenseTensor(rank2)) == "rank_2"
    # slices (I, rotation): det(T0 + t T1) = 1 + t^2, conjugate roots
    rot = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, -1.0], [1.0, 0.0]]])
    assert classify_asym222(DenseTensor(rot)) == "rank_3"
    # the boundary tensor with all ones above the diagonal has a vanishing
    # discriminant: rank 3 but border rank 2, so the sign test cannot decide
    w = np.zeros((2, 2, 2))
    w[1, 0, 0] = w[0, 1, 0] = w[0, 0, 1] = 1.0
    assert classify_asym222(DenseTensor(w)) == "degenerate"
    assert classify_asym222(DenseTensor(np.zeros((2, 2, 2)))) == "degenerate"


def test_classify_validates_input():
    with pytest.raises(ValidationError):
        classify_sym222(SymmetricTensor(3, 2, {(3, 0): 1.0j}))
    with pytest.raises(ValidationError):
        classify_sym222(SymmetricTensor(4, 2, {(2, 2): 1.0}))
    with pytest.raises(ValidationError):
        classify_asym222(DenseTensor(np.zeros((2, 2))))


def test_experiment_counts_frozen_for_seed_42():
    s = typical_rank_experiment("sym222", 10000, 42)
    assert (s.rank2, s.rank3, s.degenerate) == (5142, 4858, 0)
    a = typical_rank_experiment("asym222", 10000, 42)
    assert (a.rank2, a.rank3, a.degenerate) == (7858, 2142, 0)


def test_experiment_is_worker_invariant():
    base = typical_rank_experiment("sym222", 5000, 7, workers=1)
    for workers in (2, 3, 8):
        again = typical_rank_experiment("sym222", 5000, 7, workers=workers)
        assert again == base
    base = typical_rank_experiment("asym222", 5000, 7, workers=1)
    assert typical_rank_experiment("asym222", 5000, 7, workers=5) == base


def test_experiment_counts_match_scalar_classification():
    stats = typical_rank_experiment("sym222", 200, 3)
    labels = [classify_sym222(sample_sym222(3, t)) for t in range(200)]
    assert stats.rank2 == labels.count("rank_2")
    assert stats.rank3 == labels.count("rank_3")
    assert stats.degenerate == labels.count("degenerate")

    stats = typical_rank_experiment("asym222", 200, 3)
    labels = [classify_asym222(sample_asym222(3, t)) for t in range(200)]
    assert stats.rank2 == labels.count("rank_2")
    assert stats.rank3 == labels.count("rank_3")


def test_counts_sum_to_samples():
    s = typical_rank_experiment("sym222", 30000, 1)
    assert s.rank2 + s.rank3 + s.degenerate == s.samples == 30000


def test_fractions_near_the_published_values():
    """Loose CLT bands at 3e4 samples; the tight bands run in the acceptance suite."""
    s = typical_rank_experiment("sym222", 30000, 2024)
    assert 0.49 <= s.fraction <= 0.55
    a = typical_rank_experiment("asym222", 30000, 2024)
    assert 0.76 <= a.fraction <= 0.81


def test_stderr_formula():
    s = TrialStats("sym222", 100, 0, rank2=60, rank3=40, degenerate=0)
    assert s.fraction == pytest.approx(0.6)
    assert s.stderr == pytest.approx(math.sqrt(0.6 * 0.4 / 100))
    empty = TrialStats("sym222", 5, 0, rank2=0, rank3=0, degenerate=5)
    assert math.isnan(empty.fraction) and math.isnan(empty.stderr)


def test_csv_format():
    s = TrialStats("asym222", 100, 9, rank2=75, rank3=25, degenerate=0)
    text = stats_to_csv(s)
    lines = text.splitlines()
    assert lines[0] == "case,samples,seed,rank2,rank3,degenerate,fraction,stderr"
    assert lines[1].startswith("asym222,100,9,75,25,0,0.75,")
    empty = TrialStats("sym222", 2, 0, rank2=0, rank3=0, degenerate=2)
    assert stats_to_csv(empty).splitlines()[1].endswith("nan,nan")


def test_experiment_validates_arguments():
    with pytest.raises(ValidationError):
        typical_rank_experiment("sym333", 10, 0)
    with pytest.raises(ValidationError):
        typical_rank_experiment("sym222", 0, 0)
    with pytest.raises(ValidationError):
        typical_rank_experiment("sym222", 10, -1)
    with pytest.raises(ValidationError):
        typical_rank_experiment("sym222", 10, 0, workers=0)
    # a bool is not an int here
    with pytest.raises(ValidationError, match="samples"):
        typical_rank_experiment("sym222", True, 0)
    with pytest.raises(ValidationError, match="seed"):
        typical_rank_experiment("sym222", 10, True)
    with pytest.raises(ValidationError, match="workers"):
        typical_rank_experiment("sym222", 10, 0, workers=True)


def test_an_experiment_past_the_counter_is_refused_before_any_block_runs(monkeypatch):
    # checked in the blocks only, the caller's first block of 2**254 trials would never finish
    monkeypatch.setattr(montecarlo, "_run_block", lambda *span: pytest.fail(f"block {span} ran"))
    with pytest.raises(ValidationError, match="Philox counter"):
        typical_rank_experiment("asym222", 2**255 + 2, 0, workers=2)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case, counts", [("sym222", (520303, 479697, 0)), ("asym222", (785527, 214473, 0))])
def test_experiment_counts_frozen_for_seed_42_at_a_million_trials(case, counts, workers):
    s = typical_rank_experiment(case, 10**6, 42, workers=workers)
    assert (s.rank2, s.rank3, s.degenerate) == counts


two_cpus = pytest.mark.skipif(montecarlo._usable_cpus() < 2, reason="needs two usable CPUs")


@two_cpus
def test_blocks_above_the_threshold_run_in_another_thread(monkeypatch):
    run_block, idents = montecarlo._run_block, {}

    def recording_block(case, seed, lo, hi):
        idents[lo, hi] = threading.get_ident()
        return run_block(case, seed, lo, hi)

    samples = 2 * MIN_WORKER_TRIALS
    serial = typical_rank_experiment("asym222", samples, 5)
    threads = threading.active_count()
    monkeypatch.setattr(montecarlo, "_run_block", recording_block)
    assert typical_rank_experiment("asym222", samples, 5, workers=2) == serial
    assert idents.keys() == {(0, MIN_WORKER_TRIALS), (MIN_WORKER_TRIALS, samples)}
    assert idents[0, MIN_WORKER_TRIALS] == threading.get_ident() != idents[MIN_WORKER_TRIALS, samples]
    assert threading.active_count() == threads


@pytest.mark.parametrize("cpus", [None, 8])
def test_workers_start_at_most_one_child_per_other_cpu(monkeypatch, cpus):
    if cpus is not None:
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
    cpus = montecarlo._usable_cpus()
    run_block, spans = montecarlo._run_block, {}

    def recording_block(case, seed, lo, hi):
        spans[lo] = (hi, threading.get_ident())
        return run_block(case, seed, lo, hi)

    serial = typical_rank_experiment("sym222", 10**6, 42)
    monkeypatch.setattr(montecarlo, "_run_block", recording_block)
    assert typical_rank_experiment("sym222", 10**6, 42, workers=10**6) == serial
    assert 1 <= len(spans) <= cpus
    assert (len(spans) > 1) == (cpus > 1)
    # the spans are contiguous and cover the range; this thread ran the first one, other threads the rest
    los = sorted(spans)
    assert los[0] == 0 and spans[los[-1]][0] == 10**6
    assert all(spans[lo][0] == nxt for lo, nxt in zip(los, los[1:]))
    assert spans[0][1] == threading.get_ident() not in {ident for lo, (_, ident) in spans.items() if lo}


@two_cpus
def test_a_failing_worker_is_a_typed_error_and_is_joined(monkeypatch):
    run_block = montecarlo._run_block

    def faulty_block(case, seed, lo, hi):
        if lo > 0:
            raise RuntimeError("injected")
        return run_block(case, seed, lo, hi)

    threads = threading.active_count()
    monkeypatch.setattr(montecarlo, "_run_block", faulty_block)
    with pytest.raises(WorkerError, match=rf"trials \[{MIN_WORKER_TRIALS}, {2 * MIN_WORKER_TRIALS}\) raised RuntimeError: injected"):
        typical_rank_experiment("sym222", 2 * MIN_WORKER_TRIALS, 1, workers=2)
    assert threading.active_count() == threads


@two_cpus
def test_an_interrupt_in_the_callers_block_does_not_wait_for_the_others(monkeypatch):
    release = threading.Event()

    def block(case, seed, lo, hi):
        if lo == 0:
            raise KeyboardInterrupt
        release.wait(5)  # the other block takes 5 s unless released
        return np.zeros(3, dtype=np.int64)

    monkeypatch.setattr(montecarlo, "_run_block", block)
    start = time.monotonic()
    try:
        with pytest.raises(KeyboardInterrupt):
            typical_rank_experiment("sym222", 2 * MIN_WORKER_TRIALS, 1, workers=2)
        assert time.monotonic() - start < 1.0
    finally:
        release.set()


def test_an_experiment_run_while_its_module_imports_finishes(tmp_path):
    (tmp_path / "experiment_at_import.py").write_text(
        "from waring.montecarlo import typical_rank_experiment\n"
        "s = typical_rank_experiment('sym222', 10**6, 42, workers=2)\n"
        "print(s.rank2, s.rank3, s.degenerate)\n"
    )
    src = Path(__file__).parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(tmp_path)])}
    done = subprocess.run(
        [sys.executable, "-c", "import experiment_at_import"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "520303 479697 0\n", "")


def test_more_workers_than_samples():
    base = typical_rank_experiment("sym222", 3, 11, workers=1)
    assert typical_rank_experiment("sym222", 3, 11, workers=10) == base


PENCIL_CONDITIONS = {
    "pencil determinant vanishes identically",
    "pencil determinant is constant in the eigenvalue",
    "double eigenvalue",
}


def decomposer_label(a):
    """The classify_sym222 label matching the branch decompose_sym222_pencil(a, "R") takes."""
    try:
        result = decompose_sym222_pencil(a, "R")
    except DegeneratePencilError as exc:
        return "degenerate" if exc.condition in PENCIL_CONDITIONS else exc.condition
    return {"rank_2": "rank_2", "real_rank_3": "rank_3"}[result.classification]


def test_classify_sym222_takes_the_decomposer_branch():
    # moments scaled by 10^-150..10^150, where the raw pencil arithmetic over- or
    # underflows, and every third cubic in the band where the pencil is nearly
    # constant in t: |a|, |b| ~ 1e-13.5..1e-11 times |c|, across the 1e-12 tolerance
    rng = np.random.default_rng(2024)
    labels = []
    for i in range(900):
        m = rng.normal(size=4)
        if i % 3 == 0:
            eps = 10.0 ** rng.uniform(-13.5, -11.0)
            m *= [1.0, eps, eps, eps * eps]
        m *= 10.0 ** rng.uniform(-150.0, 150.0)
        a = SymmetricTensor(3, 2, dict(zip(((3, 0), (2, 1), (1, 2), (0, 3)), m.tolist())))
        label = classify_sym222(a)
        assert label == decomposer_label(a), m.tolist()
        labels.append(label)
    assert min(labels.count(label) for label in ("rank_2", "rank_3", "degenerate")) > 50


@pytest.mark.parametrize(
    "text, label",
    [
        # the raw pencil arithmetic overflows; the decomposer normalizes first
        ("1e160*x1^3 + 1e160*x2^3", "rank_2"),
        # |a| = 2.5e-25 within 1e-12 * |c| = 5e-25: constant in the eigenvalue
        ("x1^3 + 1.5e-12*x1*x2^2", "degenerate"),
    ],
)
def test_classify_sym222_agrees_with_the_decomposer_on_scaled_and_constant_pencils(text, label):
    a = quantic_to_tensor(parse_quantic(text))
    assert classify_sym222(a) == decomposer_label(a) == label


def test_classify_asym222_on_a_huge_diagonal_tensor():
    diag = np.zeros((2, 2, 2))
    diag[0, 0, 0] = diag[1, 1, 1] = 1e160
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert classify_asym222(DenseTensor(diag)) == "rank_2"


def test_an_exception_in_the_callers_block_is_re_raised_as_it_is(monkeypatch):
    boom = KeyError("the caller's block")

    def block(case, seed, lo, hi):
        if lo == 0:
            raise boom
        return np.zeros(3, dtype=np.int64)

    monkeypatch.setattr(montecarlo, "_run_block", block)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    with pytest.raises(KeyError) as info:
        typical_rank_experiment("sym222", 2 * MIN_WORKER_TRIALS, 1, workers=2)
    assert info.value is boom
