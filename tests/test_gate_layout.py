"""The registry entry a teleported gate carries, and what reads it.

``gates.two_mode_gate`` resolves a gate name once and keeps the completed
layout, the virtual-completion rule and the lab layout on the gate; the
gadget checks in ``sim`` read the lab network, the outcome rewiring and the
output parity off those fields instead of resolving the name again.
"""

import dataclasses

import numpy as np
import pytest

from foursplit import gates, sim, zoo

GATE_NAMES = ("QRL", "cBSL", "cDBSL", "cMSG", "cMBSL", "vcBSL", "vcDBSL", "vcMSG")
ANGLES = (0.8, -0.4, 1.1, 0.8)  # satisfies every layout's V pairs and the BSL restriction


def test_gate_names_cover_the_registry():
    completed = [a.name for a in zoo.ARCHITECTURES.values() if a.gate_slots is not None]
    virtual = ["vc" + a.name for a in zoo.ARCHITECTURES.values() if a.virtual_pair is not None]
    assert sorted(GATE_NAMES) == sorted(completed + virtual)


#: Angles each gate accepts: a virtual completion's meet its restriction.
GATE_ANGLES = {name: ANGLES for name in GATE_NAMES} | {
    "vc" + incomplete: angles for incomplete, _, angles in sim.COMPLETION_CASES
}


@pytest.mark.parametrize("name", GATE_NAMES)
def test_gate_carries_its_resolved_layout(name):
    gate = gates.two_mode_gate(name, GATE_ANGLES[name])
    layout, rule = gates.resolve_gate_architecture(name)
    assert gate.layout == layout
    assert gate.rule == rule
    assert (gate.rule is None) == (not name.startswith("vc"))
    assert gate.lab_layout == (layout if rule is None else zoo.architecture(rule.incomplete))


def _noise_by_two_runs(arch_a, angles_a, arch_b, angles_b, db, parity_differs):
    """The compared covariance deviation from two full gadget runs, with
    the output parity difference given explicitly."""
    cov_a = sim.simulate_gadget(arch_a, angles_a, db, outcomes=(0.0,) * 4).output.cov
    cov_b = sim.simulate_gadget(arch_b, angles_b, db, outcomes=(0.0,) * 4).output.cov
    if parity_differs:
        flip = gates.double_fourier().embed(2, (2,)).matrix
        cov_b = flip @ cov_b @ flip.T
    return float(np.abs(cov_a - cov_b).max())


def test_gate_and_noise_compare_see_a_registry_mutant():
    # cBSL with its output parity toggled, installed in place of the real entry
    qrl_angles, vc_angles = next(
        (row["angles"], angles) for row, arch, angles in gates.dictionary_rows() if arch == "vcBSL"
    )
    real = zoo.ARCHITECTURES["cBSL"]
    mutant = dataclasses.replace(real, parity_on_output=not real.parity_on_output)
    args = ("QRL", qrl_angles, "vcBSL", vc_angles, 10.0)
    real_noise = sim.noise_compare(*args)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(zoo.ARCHITECTURES, "cBSL", mutant)
        for name in ("cBSL", "vcBSL"):
            assert gates.two_mode_gate(name, vc_angles).layout is mutant
        mutant_noise = sim.noise_compare(*args)
        expected = _noise_by_two_runs(*args, parity_differs=mutant.parity_on_output)
    assert zoo.ARCHITECTURES["cBSL"] is real
    assert real_noise <= 1e-9
    assert abs(mutant_noise - expected) <= 1e-12
    assert mutant_noise > 0.1
