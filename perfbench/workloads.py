"""The benchmark's workloads by name, and the digest of their generated inputs."""

from __future__ import annotations

import hashlib

from wl_montecarlo import MonteCarlo
from wl_pencil_stream import PencilStream
from wl_tensor_grid import TensorGrid

WORKLOADS = {cls.name: cls for cls in (TensorGrid, PencilStream, MonteCarlo)}


def input_digest(wl) -> str:
    """sha256 of the first `digest_ops` generated inputs: same seed, same digest."""
    h = hashlib.sha256()
    for i in range(wl.digest_ops):
        h.update(wl.input_bytes(wl.inputs(i)))
    return h.hexdigest()
