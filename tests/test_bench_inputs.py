"""The benchmark's copies of the package's tables still match the package.

``perfbench/inputs.py`` draws its inputs without importing the package, from
its own copies of the registry's gate slots and restriction pairs, the angle
remaps and the reference angle table.  A change in the package that left a
copy stale would make the benchmark draw inputs for a different program, so
each copy is compared here with what the package derives.
"""

import importlib.util
import pathlib
import sys

import pytest

from foursplit import gates, sim, zoo

INPUTS = pathlib.Path(__file__).parent.parent / "perfbench" / "inputs.py"


@pytest.fixture(scope="module")
def inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks the module up in sys.modules while it is created
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


COMPLETED = [a for a in zoo.ARCHITECTURES.values() if a.gate_slots is not None]
VIRTUAL = [a for a in zoo.ARCHITECTURES.values() if a.virtual_pair is not None]


def test_slot_angles(inputs):
    assert inputs.SLOT_ANGLES == {a.name: tuple(idx for idx, _ in a.gate_slots) for a in COMPLETED}


def test_virtual_completions(inputs):
    assert inputs.VIRTUAL == {"vc" + a.name: (a.completed_by, a.virtual_pair) for a in VIRTUAL}
    assert inputs.COMPLETION_BASES == tuple(a.name for a in VIRTUAL)
    assert inputs.COMPLETION_BASES == tuple(incomplete for incomplete, _, _ in sim.COMPLETION_CASES)


def test_angle_maps(inputs):
    assert inputs.VC_ANGLE_MAPS == gates.vc_angle_maps()


def test_reference_rows(inputs):
    assert inputs.QRL_ROWS == tuple((row["gate"], row["angles"]) for row in gates._qrl_rows())


def test_oracle_gates(inputs):
    assert inputs.ORACLE_GATES == tuple(a.name for a in COMPLETED) + tuple(gates.vc_angle_maps())
