"""Every callable and verify subject the benchmark traces still exists in
the package.

``perfbench/tracing.py`` wraps package functions by name from outside, and
names one per-subject metric after each ``verify`` subject.  A rename in the
package would leave its per-layer metrics at 0, noted only as "not found"
in the run record (a subject's not even that), so the names are checked
here.
"""

import importlib.util
import pathlib

import pytest

import foursplit
import foursplit.cli

TRACING = pathlib.Path(__file__).parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = _tracing()
TARGETS = TRACING_MODULE.TARGETS


@pytest.mark.parametrize("module,cls,attr,span", TARGETS, ids=[t[3] for t in TARGETS])
def test_trace_target_resolves(module, cls, attr, span):
    owner = getattr(foursplit, module)
    if cls is not None:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr, None)), span


def test_gadget_layers_are_traced():
    spans = {span for *_, span in TARGETS}
    assert {"sim.simulate_gadget", "sim.homodyne", "sim.apply", "sim.GaussianState"} <= spans


def test_traced_subjects_are_the_cli_subjects():
    # a renamed subject would read 0 in its per-layer metric, with no error
    assert sorted(TRACING_MODULE.SUBJECTS) == sorted(foursplit.cli.SUBJECT_RUNNERS)
