"""The whole-set array passes behind ``verify all``, each against its scalar
definition on every element, and a guard that keeps them whole-set.

The theorem-2 conditions, the census canonical forms, the theorem-1 parity
and the noise subject's conditioning each run as one array pass over their
candidate set.  The references here are the per-element loops those passes
replaced; every result must be the same, bit for bit.
"""

import dataclasses
import json
import re
from collections import Counter

import numpy as np
import pytest

from foursplit import cli, gates, hadamard, networks, sim
from foursplit.networks import SPLITTER_PAIRS, sequence_from_indices

ALL_CANDIDATES = networks.enumerate_candidates()
MAPPED_PAIRS = [
    ("QRL", row["angles"], arch, angles) for row, arch, angles in gates.dictionary_rows() if arch != "QRL"
]
GOOD = (0.8, -0.4, 1.1, 0.8)
ZERO_VARIANCE = "measured quadrature variance is numerically zero"
SCALED_STATE = "covariance violates the uncertainty relation (least symplectic eigenvalue 0.125 < 1/2)"


def reference_canonical(seq):
    """Bubble sort to the lexicographic minimum under adjacent swaps of
    splitters on disjoint mode pairs, one sequence at a time."""
    seq = list(seq)
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if not set(seq[i]) & set(seq[i + 1]) and seq[i + 1] < seq[i]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                changed = True
    return tuple(seq)


def _pairs(rows):
    return [tuple(SPLITTER_PAIRS[i] for i in row) for row in rows.tolist()]


# -- theorem 2 and the census -------------------------------------------------


def test_conditions_mask_equals_structural_conditions_on_every_candidate():
    expected = [all(networks.structural_conditions(sequence_from_indices(row))) for row in ALL_CANDIDATES]
    assert networks._conditions_mask(ALL_CANDIDATES).tolist() == expected


def test_canonical_rows_equal_the_bubble_sort_on_every_candidate():
    # the sort is defined on any sequence; the census uses it on the 384 balanced ones
    canon = networks._canonical_rows(ALL_CANDIDATES)
    assert _pairs(canon) == [reference_canonical(seq) for seq in _pairs(ALL_CANDIDATES)]


def test_census_rows_equal_canonical_form_on_all_balanced():
    rows = networks._sweep().rows
    assert len(rows) == 384
    canon = _pairs(networks._canonical_rows(rows))
    assert canon == [reference_canonical(seq) for seq in _pairs(rows)]
    assert canon == [networks.canonical_form(sequence_from_indices(row)).sequence for row in rows]


def test_census_equals_the_per_row_classification():
    sweep = networks._sweep()
    class_keys = {}
    for seq, doubled in zip(_pairs(sweep.rows), sweep.signs):
        key = hadamard.sign_string(doubled.ravel())
        assert class_keys.setdefault(reference_canonical(seq), key) == key
    by_matrix = {}
    for seq in sorted(class_keys):
        by_matrix.setdefault(class_keys[seq], []).append(seq)
    census = networks.physical_census()
    assert census.physical_class_count == len(class_keys) == 96
    assert census.representatives == by_matrix
    assert list(census.representatives) == list(by_matrix)
    assert census.multiplicity_histogram == dict(Counter(len(v) for v in by_matrix.values()))


def test_census_refuses_a_class_whose_members_differ(monkeypatch):
    sweep = networks._sweep()
    signs = sweep.signs.copy()
    signs[5] = -signs[5]
    monkeypatch.setattr(networks, "_sweep", lambda: dataclasses.replace(sweep, signs=signs))
    seq = reference_canonical(_pairs(sweep.rows[5:6])[0])
    with pytest.raises(AssertionError, match=re.escape(f"members of class {seq} have different matrices")):
        networks.physical_census()


# -- theorem 1 ----------------------------------------------------------------


def test_parity_pass_equals_a_per_row_count_on_every_member():
    members = sorted(hadamard.enumerate_hadamard4())
    parities = hadamard.class_parities(np.array(members, dtype=np.int8).reshape(-1, 4, 4))
    per_row = [tuple(sum(v < 0 for v in h[i : i + 4]) % 2 for i in range(0, 16, 4)) for h in members]
    assert all(len(set(rows)) == 1 for rows in per_row)
    assert parities.tolist() == [rows[0] for rows in per_row]
    assert parities.tolist() == [hadamard.class_parity(h) for h in members]


def test_parity_pass_refuses_a_mixed_row_anywhere_in_the_stack():
    members = np.array(sorted(hadamard.enumerate_hadamard4()), dtype=np.int8).reshape(-1, 4, 4)
    mixed = members.copy()
    mixed[500, 2, 0] *= -1
    with pytest.raises(ValueError, match="rows of mixed parity: not a class member"):
        hadamard.class_parities(mixed)


# -- the noise subject ----------------------------------------------------------


@pytest.mark.parametrize("db", [3.0, 10.0, 20.0])
def test_batched_noise_deviations_equal_each_pair_alone(db):
    assert len(MAPPED_PAIRS) == 16
    batched = sim.noise_deviations(MAPPED_PAIRS, db)
    assert batched == [sim.noise_compare(*pair, db) for pair in MAPPED_PAIRS]


@pytest.mark.parametrize("db,seed", [(3.0, 0), (10.0, 3), (20.0, 11)])
def test_batched_completions_equal_each_case_alone(db, seed):
    batched = sim.completion_experiments(sim.COMPLETION_CASES, db, seed=seed)
    assert batched == [
        sim.virtual_completion_experiment(*case, db, seed=seed) for case in sim.COMPLETION_CASES
    ]


def test_empty_batches_give_empty_lists_before_building_a_gate(monkeypatch):
    def refuse(*args):
        raise AssertionError("an empty batch built a gate")

    monkeypatch.setattr(gates, "two_mode_gate", refuse)
    assert sim.noise_deviations([], 10.0) == []
    assert sim.completion_experiments([], 10.0) == []


def _first_error(calls):
    """The message of the first call that raises, as a loop would meet it."""
    for call in calls:
        try:
            call()
        except ValueError as exc:
            return str(exc)
    raise AssertionError("no call raised")


def _networks(monkeypatch, per_layout):
    original = sim._gadget_network
    monkeypatch.setattr(
        sim, "_gadget_network", lambda layout: per_layout[layout.name] if layout.name in per_layout else original(layout)
    )


@pytest.mark.parametrize("order", [(0, 1, 2), (0, 2, 1)], ids=["scaled_first", "zero_first"])
def test_noise_batch_raises_the_loops_first_error(monkeypatch, order):
    # at 160 dB with no network, a p measurement reads a squeezed ancilla
    _networks(monkeypatch, {"QRL": np.eye(12), "cDBSL": 0.5 * np.eye(12)})
    pairs = [
        ("QRL", (0.3, 1.2, -0.4, 0.9), "QRL", (0.3, 1.2, -0.4, 0.9)),
        ("QRL", (0.3, 1.2, -0.4, 0.9), "cDBSL", (0.5, 1.2, -0.9, 0.5)),
        ("QRL", (0.3, 1.2, -0.4, 0.9), "QRL", (0.3, 0.0, -0.4, 0.9)),
    ]
    pairs = [pairs[i] for i in order]
    expected = _first_error([lambda pair=pair: sim.noise_compare(*pair, 160.0) for pair in pairs])
    assert expected == (SCALED_STATE if order[1] == 1 else ZERO_VARIANCE)
    with pytest.raises(ValueError, match=re.escape(expected)):
        sim.noise_deviations(pairs, 160.0)


def test_noise_batch_raises_a_refused_gate_as_the_loop_does():
    pairs = MAPPED_PAIRS[:3] + [("QRL", GOOD, "vcBSL", (0.1, 0.2, 0.3, 0.4))] + MAPPED_PAIRS[3:]
    expected = _first_error([lambda pair=pair: sim.noise_compare(*pair, 10.0) for pair in pairs])
    with pytest.raises(ValueError, match=re.escape(expected)):
        sim.noise_deviations(pairs, 10.0)


def test_completion_batch_raises_the_loops_first_error(monkeypatch):
    _networks(monkeypatch, {"cBSL": 0.5 * np.eye(12)})
    cases = [sim.COMPLETION_CASES[1], sim.COMPLETION_CASES[0], sim.COMPLETION_CASES[2]]
    expected = _first_error([lambda case=case: sim.virtual_completion_experiment(*case, 10.0) for case in cases])
    assert expected == SCALED_STATE
    with pytest.raises(ValueError, match=re.escape(expected)):
        sim.completion_experiments(cases, 10.0)


@pytest.mark.parametrize("db", ["400", "4000"])
def test_verify_noise_refuses_as_the_per_pair_loop_does(capsys, db):
    expected = _first_error([lambda pair=pair: sim.noise_compare(*pair, float(db)) for pair in MAPPED_PAIRS])
    assert cli.main(["verify", "noise", "--db", db]) == cli.PRECONDITION_ERROR
    assert json.loads(capsys.readouterr().out) == {"error": expected}


# -- structure guard ------------------------------------------------------------


def test_verify_all_keeps_its_whole_set_passes(monkeypatch, capsys):
    """One ``verify all`` conditions the noise subject's gadgets in at most
    two batched calls, builds no network per balanced row in the census and
    takes no per-member parity in theorem 1."""
    current = [None]
    calls = Counter()

    def within(subject, runner):
        def run(args):
            current[0] = subject
            try:
                return runner(args)
            finally:
                current[0] = None

        return run

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name, current[0]] += 1
            return fn(*args, **kwargs)

        return call

    for subject, runner in list(cli.SUBJECT_RUNNERS.items()):
        monkeypatch.setitem(cli.SUBJECT_RUNNERS, subject, within(subject, runner))
    monkeypatch.setattr(sim, "_condition", counted("_condition", sim._condition))
    monkeypatch.setattr(hadamard, "class_parity", counted("class_parity", hadamard.class_parity))
    monkeypatch.setattr(
        networks.BsNetwork, "__post_init__", counted("BsNetwork", networks.BsNetwork.__post_init__)
    )

    assert cli.main(["verify", "all", "--seed", "0"]) == 1
    capsys.readouterr()
    assert 1 <= calls["_condition", "noise"] <= 2
    assert calls["BsNetwork", "census"] == 0
    assert calls["class_parity", "theorem1"] == 0
