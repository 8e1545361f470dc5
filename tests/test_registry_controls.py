"""Negative controls for the architecture registry.

Each control changes one field of one registry entry: a gate-slot sign, the
order of the two slots of one rail, the output parity, or the virtual
completion's equal-angle pair.  The registry is the only statement of each
layout's equivalence to QRL, so every such change must make a verification
subject that passes on the real registry fail, or refuse to run.  The real
registry is never edited: each control is installed by monkeypatching its one
entry of ``zoo.ARCHITECTURES``.  Every table derived from the registry is
cached on the entry values it is read from, so that one patch is all it
takes, and undoing it brings the real tables back; a guard checks this
against tables warmed before the patch.
"""

import argparse
import dataclasses
from itertools import combinations

import pytest

from foursplit import cli, gates, sim, zoo

#: Cheapest first: a control stops at the first subject that rejects it.
SUBJECTS = ("dictionary", "equivalences", "noise")
ARGS = argparse.Namespace(seed=0, db=None, grid=None, tol=None)


def _mutants():
    """(id, architecture name, field changes) of every single-field control."""
    out = []
    for arch in zoo.ARCHITECTURES.values():
        if arch.gate_slots is not None:
            slots = arch.gate_slots
            for k, (idx, sign) in enumerate(slots):
                flipped = slots[:k] + ((idx, -sign),) + slots[k + 1 :]
                out.append((f"{arch.name}-slot{k + 1}-sign", arch.name, {"gate_slots": flipped}))
            for rail in (0, 2):
                swapped = slots[:rail] + (slots[rail + 1], slots[rail]) + slots[rail + 2 :]
                out.append((f"{arch.name}-rail{rail // 2 + 1}-swap", arch.name, {"gate_slots": swapped}))
            out.append((f"{arch.name}-parity", arch.name, {"parity_on_output": not arch.parity_on_output}))
        if arch.virtual_pair is not None:
            for pair in combinations(range(1, 5), 2):
                if pair != arch.virtual_pair:
                    out.append((f"{arch.name}-pair{pair[0]}{pair[1]}", arch.name, {"virtual_pair": pair}))
    return out


MUTANTS = _mutants()


def _failures(subject):
    """What fails in a subject: the failing entries of the dictionary, whose
    criterion-8 row fails on the real registry too, and otherwise the subject
    itself.  A refusal (ValueError) fails the subject."""
    try:
        passed, report = cli.SUBJECT_RUNNERS[subject](ARGS)
    except ValueError as exc:
        return {f"refused: {exc}"}
    if subject == "dictionary":
        return {(e["gate"], e["architecture"]) for e in report["entries"] if not e["pass"]}
    return set() if passed else {"failed"}


@pytest.fixture(scope="module")
def real_failures():
    return {subject: _failures(subject) for subject in SUBJECTS}


def test_controls_cover_every_field_kind():
    assert len(MUTANTS) == 50
    assert len({mutant_id for mutant_id, _, _ in MUTANTS}) == 50


@pytest.mark.parametrize("name,changes", [m[1:] for m in MUTANTS], ids=[m[0] for m in MUTANTS])
def test_registry_mutant_fails_a_subject(real_failures, name, changes):
    assert real_failures == {
        "equivalences": set(),
        "dictionary": {("fourier_conjugated_CZ(+1)", "vcMSG")},
        "noise": set(),
    }
    real = zoo.ARCHITECTURES[name]
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(zoo.ARCHITECTURES, name, dataclasses.replace(real, **changes))
        rejected = any(_failures(subject) - real_failures[subject] for subject in SUBJECTS)
    assert zoo.ARCHITECTURES[name] is real
    assert rejected, f"no subject rejects {name} with {changes}"


#: Angles at which both the cBSL and the cDBSL gate are defined, QRL angles
#: that tell the vcBSL and vcDBSL remaps apart, and a gadget run's outcomes.
ANGLES = (0.8, -0.4, 1.1, 0.8)
QRL_ANGLES = (1.0, 2.0, 3.0, 4.0)
OUTCOMES = (0.1, -0.2, 0.3, 0.4)


def _run(name):
    output = sim.simulate_gadget(name, ANGLES, 10.0, outcomes=OUTCOMES).output
    return output.mean.tolist(), output.cov.tolist()


def _tables():
    """What the package derives from the registry's cBSL entry: its exact
    matrix, the vcBSL angle remap, the cBSL gate's displacement rule, the
    network of that gate's gadget, and what a run of that gadget outputs."""
    gate = gates.two_mode_gate("cBSL", ANGLES)
    return {
        "matrix": zoo.architecture_matrix("cBSL"),
        "angle map": gates.map_reference_angles("vcBSL", QRL_ANGLES),
        "D": gate.D.tolist(),
        "network": sim._gadget_network(gate.lab_layout).tolist(),
        "run": _run("cBSL"),
    }


def _fresh_tables(entry, donor):
    """The same tables derived afresh from ``entry``; its displacement rule
    and gadget run are those of the registry's ``donor`` gate, whose entry
    equals ``entry`` in every field but the name."""
    remap = [0] * 4
    for slot, (angle_index, _) in enumerate(entry.gate_slots, start=1):
        remap[angle_index - 1] = slot
    network = gates.network_op(entry.network()).embed(6, (1, 2, 3, 4)) @ sim.COUPLERS
    return {
        "matrix": entry.matrix(),
        "angle map": tuple(QRL_ANGLES[i - 1] for i in remap),
        "D": gates.two_mode_gate(donor, ANGLES).D.tolist(),
        "network": network.matrix.tolist(),
        "run": _run(donor),
    }


def test_replacing_an_entry_replaces_every_table_derived_from_it():
    for subject in ("noise", "dictionary"):  # warm every derived table
        cli.SUBJECT_RUNNERS[subject](ARGS)
    real, donor = zoo.ARCHITECTURES["cBSL"], zoo.ARCHITECTURES["cDBSL"]
    replaced = dataclasses.replace(donor, name="cBSL")
    before = _tables()
    expected = _fresh_tables(replaced, "cDBSL")
    assert before == _fresh_tables(real, "cBSL")
    assert all(before[key] != expected[key] for key in before)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(zoo.ARCHITECTURES, "cBSL", replaced)
        assert _tables() == expected
    assert _tables() == before
