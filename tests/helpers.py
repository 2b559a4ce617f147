"""Test-only helpers shared by several test modules."""
import hashlib
from typing import Any

import numpy as np


class FixedTablePolicy:
    """Non-parametric policy given directly as per-state action probabilities
    (for oracle sweeps over fixed policies, e.g. deterministic ones)."""

    def __init__(self, table: np.ndarray):
        self.table = np.asarray(table, dtype=np.float64)
        if self.table.ndim != 2 or not np.allclose(self.table.sum(axis=1), 1.0):
            raise ValueError("rows must be probability distributions")

    def probs(self, s_local: int) -> np.ndarray:
        return self.table[int(s_local)]


def payload_digest(payload: Any) -> str:
    """Short stable hash of a payload (numpy arrays, scalars, tuples/lists)."""
    h = hashlib.blake2b(digest_size=8)

    def feed(obj: Any) -> None:
        if isinstance(obj, np.ndarray):
            h.update(b"A")
            h.update(str(obj.dtype).encode())
            h.update(str(obj.shape).encode())
            h.update(np.ascontiguousarray(obj).tobytes())
        elif isinstance(obj, (tuple, list)):
            h.update(b"T")
            for item in obj:
                feed(item)
        else:
            h.update(b"S")
            h.update(repr(obj).encode())

    feed(payload)
    return h.hexdigest()
