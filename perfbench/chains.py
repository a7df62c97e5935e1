"""Command chains run through the `waring` command line.

A chain is a list of argv lists plus a check that compares what the steps
printed with the in-process library result.  `run_processes` runs each step
as a fresh `python -m waring.cli` process (interpreter start and import
included); `run_in_process` calls `waring.cli.main(argv)` in this process.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

STEP_TIMEOUT_S = 60


@dataclass
class Chain:
    steps: list[list[str]]
    check: Callable[[list[str]], list[str]]


def child_env(src_dir) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src_dir), env.get("PYTHONPATH")]))
    return env


def run_processes(chain: Chain, src_dir) -> tuple[float, str | None, list[str]]:
    """Wall time of the whole chain, the first failing step, and output problems."""
    env = child_env(src_dir)
    stdouts = []
    start = time.perf_counter()
    for argv in chain.steps:
        proc = subprocess.run(
            [sys.executable, "-m", "waring.cli", *argv],
            env=env, capture_output=True, text=True, timeout=STEP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            failed = f"`waring {argv[0]}` exited {proc.returncode}: {proc.stderr.strip()}"
            return time.perf_counter() - start, failed, []
        stdouts.append(proc.stdout)
    elapsed = time.perf_counter() - start
    return elapsed, None, chain.check(stdouts)


def run_in_process(chain: Chain, main) -> tuple[float, str | None, list[str]]:
    """The same chain through `main(argv)`; only the calls themselves are timed."""
    stdouts = []
    elapsed = 0.0
    for argv in chain.steps:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            start = time.perf_counter()
            code = main(argv)
            elapsed += time.perf_counter() - start
        if code != 0:
            return elapsed, f"`waring {argv[0]}` returned {code}", []
        stdouts.append(buffer.getvalue())
    return elapsed, None, chain.check(stdouts)
