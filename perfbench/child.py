"""Fresh-interpreter probes; prints one JSON object.

    python3 perfbench/child.py setup  <workload> <seed> <src-dir>
    python3 perfbench/child.py import <workload> <seed> <src-dir>
    python3 perfbench/child.py table  <workload> <seed> <src-dir>

setup:  seconds for `import waring` plus one warm-up op per distinct input
        shape; the inputs are generated (and numpy imported) before the clock
        starts, and the speed probe runs in this process just before it.
import: milliseconds for `import waring.cli` in an interpreter that has
        imported nothing else, as a command-line process would.
table:  milliseconds for the cold enumerate_exponents and multinomial tables of
        every tensor-grid cell, after `import waring`.
"""

import json
import sys
import time


def main(mode: str, workload: str, seed: int, src_dir: str) -> dict:
    sys.path.insert(0, src_dir)
    if mode == "import":
        start = time.perf_counter()
        import waring.cli  # noqa: F401

        return {"ms": (time.perf_counter() - start) * 1e3}
    if mode == "table":
        from wl_tensor_grid import CELLS

        from waring.combinatorics import enumerate_exponents, multinomial

        start = time.perf_counter()
        for k, n in CELLS:
            [multinomial(p) for p in enumerate_exponents(k, n)]
        return {"ms": (time.perf_counter() - start) * 1e3}
    if mode == "setup":
        from probe import SpeedProbe
        from spans import load_api
        from workloads import WORKLOADS

        wl = WORKLOADS[workload](seed)
        inputs = [wl.inputs(i) for i in wl.warmup_ids()]
        probe = SpeedProbe()
        probe.burst()
        start = time.perf_counter()
        import waring  # noqa: F401

        api = load_api()
        errors = []
        for inp in inputs:
            try:
                wl.run(api, wl.prepare(api, inp))
            except Exception as exc:  # reported to the parent as a failed op
                errors.append(f"{type(exc).__name__}: {exc}")
        return {"seconds": time.perf_counter() - start, "scale": probe.scale(),
                "attempted": len(inputs), "errors": errors}
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    mode, workload, seed, src_dir = sys.argv[1:5]
    print(json.dumps(main(mode, workload, int(seed), src_dir)))
