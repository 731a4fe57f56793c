"""Machine-speed probe for the end-to-end timings.

On a shared host the speed of the machine drifts by 15-30% over minutes,
more than a regression bound can absorb.  Between ops the benchmark times
a fixed reference kernel that calls no library code but is made of what
the library's hot paths are made of: small-object churn in the
interpreter, BLAKE2b hashing and numpy gathers shaped like the value
oracle's term scan and the truth tables.  The end-to-end timings are
divided by the run's speed factor, the kernel's median time over
``REFERENCE_S``, so they read as if the host ran at the speed it had when
``REFERENCE_S`` was measured.  The kernel cannot see a change to the
library, so the factor cancels only the host's drift.

Each sample is the fastest of three back-to-back kernel runs: the first
run after an op inherits that op's cache state, which differs by
workload.
"""

from __future__ import annotations

import hashlib
import statistics
import time

import numpy as np

# a typical sample on the host described in baseline.json
REFERENCE_S = 0.75e-3
INTERVAL_S = 0.25
RUNS_PER_SAMPLE = 3

_rng = np.random.default_rng(20240101)
_POINT = _rng.integers(0, 2, size=100).astype(bool)
_TERMS = _rng.integers(0, 100, size=(1024, 10))
_TABLE = _rng.integers(0, 2, size=(1 << 14, 14)).astype(bool)
_COLS = _rng.integers(0, 14, size=4)


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b


def reference_kernel() -> int:
    h = 0
    for p in [_Pair(i, 7 * i) for i in range(600)]:
        h = (h * 31 + p.a ^ p.b) & 0xFFFFFFFF
    for i in range(150):
        h ^= int.from_bytes(hashlib.blake2b(i.to_bytes(8, "little"), digest_size=8).digest(), "little")
    for _ in range(6):
        h ^= int(_POINT[_TERMS].all(axis=1).sum())
    h ^= int(_TABLE[:, _COLS].all(axis=1).sum())
    return h


class SpeedProbe:
    """Samples the reference kernel at most once per ``INTERVAL_S`` of wall time."""

    def __init__(self):
        self.samples: list[float] = []
        self._next = 0.0

    def maybe_sample(self) -> None:
        if time.perf_counter() < self._next:
            return
        runs = []
        for _ in range(RUNS_PER_SAMPLE):
            start = time.perf_counter()
            reference_kernel()
            runs.append(time.perf_counter() - start)
        self.samples.append(min(runs))
        self._next = time.perf_counter() + INTERVAL_S

    def factor(self) -> float:
        """Median sample over the reference time: above 1 on a slow host."""
        return statistics.median(self.samples) / REFERENCE_S
