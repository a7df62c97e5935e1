"""The environment a result was measured in."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

from wl_tensor_grid import CELLS

BANDWIDTH_NOTE = (
    "no bandwidth ratio is reported: the largest array ({entries} entries, {kb:.0f} KB) "
    "is far below 4x the last-level cache, and DENSE_ENTRY_CAP forbids arrays that large"
)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    """Per-instance size in bytes of the L2 and L3 caches of cpu0."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level >= 2 and size.endswith("K"):
            out[f"l{level}_bytes"] = int(size[:-1]) * 1024
    return out


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "waring").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root: Path, seed: int, input_sha256: str) -> dict:
    largest = max(n**k for k, n in CELLS)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        **_caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root / "src"),
        "seed": seed,
        "input_sha256": input_sha256,
        "bandwidth": BANDWIDTH_NOTE.format(entries=largest, kb=largest * 16 / 1000),
    }
