"""The noise and completion checks run in small, constant memory.

One check allocates a few dozen small arrays, so its traced peak stays a
few tens of KB, and nothing it allocates outlives it: repeating the checks
must not grow traced memory.  A benchmark process runs tens of thousands of
them and has little RSS headroom to give.
"""

import gc
import math
import tracemalloc

import pytest

from foursplit import gates, sim

CZ_ROW = (math.pi / 2, math.pi / 2 + gates.CHI, math.pi / 2, math.pi / 2 - gates.CHI)
CHECKS = {
    "noise_compare": lambda: sim.noise_compare(
        "QRL", CZ_ROW, "vcBSL", gates.map_reference_angles("vcBSL", CZ_ROW), 10.0
    ),
    "completion": lambda: sim.virtual_completion_experiment(
        "BSL", "cBSL", (0.8, -0.4, 1.1, 0.8), 10.0, seed=3
    ),
}
CALLS = 2000
WARMUP_CALLS = 200


@pytest.mark.parametrize("check", CHECKS.values(), ids=CHECKS.keys())
def test_check_traced_peak_is_bounded(check):
    check()  # first-use caches are not the check's own memory
    tracemalloc.start()
    try:
        check()
        peak_kb = tracemalloc.get_traced_memory()[1] / 1e3
    finally:
        tracemalloc.stop()
    assert peak_kb <= 40.0


def test_checks_do_not_grow_traced_memory():
    checks = list(CHECKS.values())
    tracemalloc.start()
    try:
        # the warm-up fills the interpreter's free lists as well as the caches
        for i in range(WARMUP_CALLS):
            checks[i % 2]()
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for i in range(CALLS):
            checks[i % 2]()
        gc.collect()
        growth_kb = (tracemalloc.get_traced_memory()[0] - before) / 1e3
    finally:
        tracemalloc.stop()
    # a leak of one small array per call would add ~200 KB
    assert growth_kb <= 64.0
