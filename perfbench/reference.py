"""A fixed reference kernel that tracks the machine's speed during a run.

On a shared machine a core's speed changes by up to 2x over seconds and
minutes, so the raw op times of runs made at different moments differ by
15-30%.  Each run interleaves this kernel with its ops and also reports op
times in units of the kernel's median time ("ref"), which cancels most of
that drift.  The kernel belongs to the benchmark, so it is the same on every
commit.  It tracks the in-process gadget workloads closely (their run-to-run
spread drops from ~0.2 to ~0.05) and the CLI workload less well.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Reference time kept at about this share of the op time measured so far.
SHARE = 0.1


class Reference:
    """Runs the kernel between ops and keeps its timings."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        m = rng.standard_normal((12, 12))
        self._matrix = m @ m.T
        self.times: list[float] = []
        self._total = 0.0

    def _kernel(self) -> float:
        """About 2 ms of small dense linear algebra and Python arithmetic,
        the mix of the package's gadget code."""
        acc = 0.0
        x = self._matrix
        for _ in range(60):
            x = 0.5 * (x + x.T)
            acc += float(np.linalg.eigvalsh(x).min())
            acc += sum(j * j for j in range(40))
        return acc

    def keep_up(self, op_time: float) -> None:
        """Run the kernel until its total time reaches SHARE of ``op_time``,
        the op time measured so far; at least once per run."""
        while not self.times or self._total < SHARE * op_time:
            t0 = time.perf_counter()
            self._kernel()
            dt = time.perf_counter() - t0
            self.times.append(dt)
            self._total += dt

    def median(self) -> float:
        return statistics.median(self.times)
