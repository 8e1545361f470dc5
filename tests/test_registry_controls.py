"""Negative controls for the architecture registry.

Each control changes one field of one registry entry: a gate-slot sign, the
order of the two slots of one rail, the output parity, or the virtual
completion's equal-angle pair.  The registry is the only statement of each
layout's equivalence to QRL, so every such change must make a verification
subject that passes on the real registry fail, or refuse to run.  The real
registry is never edited: each control is installed by monkeypatching and
the caches derived from the registry are cleared before and after.
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
    for arch in zoo._ARCH_LIST:
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


def _clear_registry_caches():
    for cached in (zoo._registry_matrix, gates._architecture_block, gates._outcome_routing, sim._gadget_network):
        cached.cache_clear()


def _install(monkeypatch, arch_list):
    monkeypatch.setattr(zoo, "_ARCH_LIST", arch_list)
    monkeypatch.setattr(zoo, "ARCHITECTURES", {a.name: a for a in arch_list})
    _clear_registry_caches()
    vc_maps = {
        "vc" + a.name: zoo.conventional_decomposition(a.completed_by).row_perm
        for a in arch_list
        if a.virtual_pair is not None
    }
    monkeypatch.setattr(gates, "VC_ANGLE_MAPS", vc_maps)


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
    mutated = [dataclasses.replace(a, **changes) if a is real else a for a in zoo._ARCH_LIST]
    try:
        with pytest.MonkeyPatch.context() as patch:
            _install(patch, mutated)
            rejected = any(_failures(subject) - real_failures[subject] for subject in SUBJECTS)
    finally:
        _clear_registry_caches()
    assert zoo.ARCHITECTURES[name] is real
    assert rejected, f"no subject rejects {name} with {changes}"
