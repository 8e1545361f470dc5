"""The teleported gate against the reference composition it replaced.

``reference_two_mode_gate`` builds the gate the long way: each V from a
rotation-squeeze-rotation chain of ``SymplecticOp`` objects, the V pair
between a splitter and its reverse as embedded operators, the output parity
as one more operator, and the displacement rule from the complex amplitude of
each teleportation rail.  The package's gate must agree with it on the
symplectic part, the displacement rule and the CLI manifest.
"""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from foursplit import __version__, gates
from foursplit.cli import PRECONDITION_ERROR, main
from foursplit.gates import (
    SymplecticOp,
    beam_splitter,
    double_fourier,
    resolve_gate_architecture,
    rotation,
    squeeze,
    swap,
    two_mode_gate,
)

GATE_NAMES = ("QRL", "cBSL", "cDBSL", "cMSG", "cMBSL", "vcBSL", "vcDBSL", "vcMSG")


def reference_two_mode_gate(name, angles):
    """(symplectic matrix, displacement rule) of the reference composition."""
    arch, lab = resolve_gate_architecture(name)
    lab.check_angles(angles)
    eff = [angles[idx - 1] for idx, _ in arch.gate_slots]

    def v(theta1, theta2):
        plus, minus = (theta1 + theta2) / 2, (theta1 - theta2) / 2
        return rotation(plus - math.pi / 2) @ squeeze(math.tan(minus)) @ rotation(plus)

    b_out = swap() @ beam_splitter() @ swap()
    op = b_out @ v(eff[0], eff[1]).tensor(v(eff[2], eff[3])) @ beam_splitter()
    if arch.parity_on_output:
        op = double_fourier().embed(2, (2,)) @ op

    def amplitude(theta_a, theta_b, m_a, m_b):
        return -(m_a * cmath.exp(1j * theta_b) + m_b * cmath.exp(1j * theta_a)) / math.sin(
            theta_a - theta_b
        )

    def displacement(outcomes):
        raw = lab.transform_outcomes(tuple(float(m) for m in outcomes))
        m = [sign * raw[idx - 1] for idx, sign in arch.gate_slots]
        mu_a = amplitude(eff[0], eff[1], m[0], m[1])
        mu_b = amplitude(eff[2], eff[3], m[2], m[3])
        nu1 = (mu_a + mu_b) / math.sqrt(2)
        nu2 = (mu_b - mu_a) / math.sqrt(2)
        if arch.parity_on_output:
            nu2 = -nu2
        root = math.sqrt(2)
        return np.array([root * nu1.real, root * nu2.real, root * nu1.imag, root * nu2.imag])

    return op.matrix, displacement


def reference_d(displacement):
    return np.column_stack([displacement(e) for e in np.eye(4)])


def conditioned_angles(name, angles):
    """Apply the vc restriction and keep each V pair 0.1 clear of equal angles."""
    arch, lab = resolve_gate_architecture(name)
    angles = list(angles)
    if lab.virtual_pair is not None:
        j, k = lab.virtual_pair
        angles[k - 1] = angles[j - 1]
    eff = [angles[idx - 1] for idx, _ in arch.gate_slots]
    assume(abs(math.sin(eff[0] - eff[1])) >= 0.1)
    assume(abs(math.sin(eff[2] - eff[3])) >= 0.1)
    return angles


@given(
    st.sampled_from(GATE_NAMES),
    st.lists(st.floats(-math.pi, math.pi), min_size=4, max_size=4),
    st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
)
@settings(max_examples=300, deadline=None)
def test_gate_matches_reference_composition(name, angles, outcomes):
    angles = conditioned_angles(name, angles)
    ref_op, ref_displacement = reference_two_mode_gate(name, angles)
    gate = two_mode_gate(name, angles)
    assert np.abs(gate.op.matrix - ref_op).max() <= 1e-12
    assert np.abs(gate.D - reference_d(ref_displacement)).max() <= 1e-12
    assert np.abs(gate.displacement(outcomes) - ref_displacement(outcomes)).max() <= 1e-12


def test_d_is_read_only():
    gate = two_mode_gate("vcDBSL", (0.5, 1.2, -0.9, 0.5))
    with pytest.raises(ValueError):
        gate.D[0, 0] = 1.0
    with pytest.raises(AttributeError):
        gate.D = np.zeros((4, 4))
    with pytest.raises(ValueError, match="four outcomes"):
        gate.displacement((0.0, 1.0, 2.0))


def _manifest_angles(name):
    """Fixed, well-conditioned angles for one gate name, restriction applied."""
    arch, lab = resolve_gate_architecture(name)
    rng = np.random.default_rng(sum(map(ord, name)))
    while True:
        angles = rng.uniform(-math.pi, math.pi, size=4)
        if lab.virtual_pair is not None:
            j, k = lab.virtual_pair
            angles[k - 1] = angles[j - 1]
        eff = [angles[idx - 1] for idx, _ in arch.gate_slots]
        if min(abs(math.sin(eff[0] - eff[1])), abs(math.sin(eff[2] - eff[3]))) >= 0.1:
            return [float(a) for a in angles]


@pytest.mark.parametrize("name", GATE_NAMES)
def test_gate_manifest_matches_reference(name, capsys):
    angles = _manifest_angles(name)
    code = main(["gate", name, "--", *map(repr, angles)])
    manifest = json.loads(capsys.readouterr().out)
    assert code == 0
    ref_op, ref_displacement = reference_two_mode_gate(name, angles)
    assert manifest == {
        "command": "gate",
        "architecture": name,
        "angles": angles,
        "version": __version__,
        "symplectic": np.round(ref_op, 12).tolist(),
        "displacement_map": np.round(reference_d(ref_displacement), 12).tolist(),
        "parity_on_output": resolve_gate_architecture(name)[0].parity_on_output,
        "dictionary_match": gates.dictionary_match(SymplecticOp(ref_op)),
    }


# equal angles mod pi, and a gap just outside SINGULAR_TOL where the three
# V forms drift apart by ~2e-9
UNDEFINED = ((0.3, 0.3, 1.0, 0.2), "gate undefined")
DISAGREEING = ((0.0, 5.960464477539063e-08, 0.0, 0.0), "V-gate forms disagree")


@pytest.mark.parametrize("angles,message", [UNDEFINED, DISAGREEING])
def test_two_mode_gate_refuses(angles, message):
    with pytest.raises(ValueError, match=message):
        two_mode_gate("QRL", angles)


@pytest.mark.parametrize("command", ["gate", "simulate"])
@pytest.mark.parametrize("angles,message", [UNDEFINED, DISAGREEING])
def test_cli_refuses(command, angles, message, capsys):
    code = main([command, "QRL", *map(repr, angles)])
    assert code == PRECONDITION_ERROR
    assert message in json.loads(capsys.readouterr().out)["error"]
