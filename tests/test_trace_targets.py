"""Every callable the benchmark traces still exists in the package.

``perfbench/tracing.py`` wraps package functions by name from outside.  A
rename in the package would leave its per-layer metrics at 0, noted only as
"not found" in the run record, so the names are checked here.
"""

import importlib.util
import pathlib

import pytest

import foursplit

TRACING = pathlib.Path(__file__).parent.parent / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("module,cls,attr,span", TARGETS, ids=[t[3] for t in TARGETS])
def test_trace_target_resolves(module, cls, attr, span):
    owner = getattr(foursplit, module)
    if cls is not None:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr, None)), span


def test_gadget_layers_are_traced():
    spans = {span for *_, span in TARGETS}
    assert {"sim.simulate_gadget", "sim.homodyne", "sim.apply", "sim.GaussianState"} <= spans
