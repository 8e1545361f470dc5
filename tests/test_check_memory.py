"""The noise, completion and oracle checks run in small, constant memory.

One check allocates a few dozen small arrays, so its traced peak stays a
few tens of KB, and nothing it allocates outlives it: repeating the checks
must not grow traced memory, nor, for the oracle, the interpreter's
allocated blocks.  A benchmark process runs tens of thousands of
them and has little RSS headroom to give.
"""

import gc
import math
import sys
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
ORACLE_CALLS = 300
ORACLE_WARMUP_CALLS = 50


def oracle():
    """One criterion-11 check: four fixed-outcome 60 dB gadget runs of one gate."""
    return sim.extracted_gate_matrix("QRL", CZ_ROW, 60.0)


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


def test_oracle_traced_peak_is_bounded():
    oracle()
    tracemalloc.start()
    try:
        oracle()
        peak_kb = tracemalloc.get_traced_memory()[1] / 1e3
    finally:
        tracemalloc.stop()
    # about twice the ~15 KB one check peaks at
    assert peak_kb <= 32.0


def test_oracle_does_not_grow_allocated_blocks():
    # tracemalloc slows the oracle ~5x, so this counts the interpreter's
    # allocated blocks instead: every object a call leaves behind is one
    for _ in range(ORACLE_WARMUP_CALLS):
        oracle()
    gc.collect()
    before = sys.getallocatedblocks()
    for _ in range(ORACLE_CALLS):
        oracle()
    gc.collect()
    # a leak of one array per call would add 300 blocks
    assert sys.getallocatedblocks() - before <= 30
