"""Machine-speed probes for calibrating end-to-end timings.

The reference machine (2 vCPUs, Intel Xeon) shares its cores and caches with
other tenants, and the speed of the same code drifts by 20-30% between runs a
minute apart.  The benchmark therefore runs fixed probes, which use nothing
from `waring`, next to the work it measures, and scales each end-to-end
timing by the probe's reference time over its mean time around that work.
A calibrated timing is the raw timing the machine would show while the probe
ran at its reference speed; a change to `waring` moves it exactly as much as
the raw timing.  Raw figures are printed beside the calibrated ones.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# About the mean kernel time on a shared 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4);
# it fixes the unit of calibrated timings and must not change between commits.
PROBE_REF_S = 0.003
PROBE_EVERY_S = 0.05  # op time between kernel runs inside a loop
PROBE_BURST = 10  # kernel runs before each set-up interpreter starts its clock
# About the mean wall time of a fresh `python -c "import numpy"` on the same VM.
PROCESS_REF_S = 0.2
PROCESS_BURST = 3  # such processes before each CLI chain


class SpeedProbe:
    """Kernel times taken around one phase of a run."""

    def __init__(self):
        self.samples: list[float] = []
        self._since = float("inf")
        # 4 MB, twice the L2 cache: the kernel feels cache and memory contention
        self._values = np.arange(250_000, dtype=np.complex128)

    def kernel(self) -> None:
        """Time a fixed mix of dict/tuple/complex work and one pass over 4 MB."""
        start = time.perf_counter()
        table: dict = {}
        for i in range(3_000):
            key = (i % 97, i % 89, i % 83)
            table[key] = table.get(key, 0j) + complex(i, -i) * 1.0000001
        float(np.abs(self._values).sum())
        self.samples.append(time.perf_counter() - start)

    def burst(self) -> None:
        for _ in range(PROBE_BURST):
            self.kernel()

    def after_op(self, op_seconds: float) -> None:
        """Run the kernel once at least PROBE_EVERY_S of op time has passed since the last run."""
        self._since += op_seconds
        if self._since >= PROBE_EVERY_S:
            self.kernel()
            self._since = 0.0

    def scale(self) -> float:
        """Factor that turns a raw time of this phase into a calibrated one."""
        return PROBE_REF_S / statistics.fmean(self.samples)


class ProcessProbe:
    """Wall times of fresh `python -c "import numpy"` processes, for process-level timings.

    A CLI step is interpreter start, imports and a little work, so it drifts
    with process start-up rather than with the in-process kernel.
    """

    def __init__(self):
        self.samples: list[float] = []

    def burst(self) -> float:
        """Run the processes; returns the scale they give for the timing that follows."""
        for _ in range(PROCESS_BURST):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
            self.samples.append(time.perf_counter() - start)
        return PROCESS_REF_S / statistics.fmean(self.samples[-PROCESS_BURST:])

    def scale(self) -> float:
        return PROCESS_REF_S / statistics.fmean(self.samples)
