"""The exhaustive sweeps run in bounded memory.

Each sweep works through its candidates in blocks, so its traced peak stays
a few MB whatever the candidate count: 65,536 sign patterns, 20,736
splitter sequences, and up to 170,000 angle vectors for the scan at the
grid cap.  Holding every candidate at once took 25, 8.4, 16 and 152 MB.
"""

import tracemalloc
from functools import partial

import pytest

from foursplit import hadamard, networks, zoo

_MBSL_RESIDUAL = zoo.residual_analysis("MBSL", "cMBSL").residual


def _traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "sweep,bound_mb",
    [
        (hadamard.enumerate_hadamard4, 4.0),
        (networks._balanced_signs, 4.0),
        (partial(zoo.no_virtual_completion_scan, _MBSL_RESIDUAL), 6.0),
        (partial(zoo.no_virtual_completion_scan, _MBSL_RESIDUAL, zoo.MAX_GRID_POINTS), 32.0),
    ],
    ids=["enumerate_hadamard4", "balanced_signs", "scan_default", "scan_grid_cap"],
)
def test_sweep_traced_peak_is_bounded(sweep, bound_mb):
    assert _traced_peak_mb(sweep) <= bound_mb
