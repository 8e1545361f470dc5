"""Enumeration and classification of directed four-splitter sequences."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from foursplit import networks
from foursplit.exact import beam_splitter_matrix, ring_matmul, signs_of_halves
from foursplit.hadamard import sign_string
from foursplit.networks import (
    SPLITTER_PAIRS,
    BsNetwork,
    canonical_form,
    is_balanced_foursplitter,
    physical_census,
    sequence_from_indices,
    structural_conditions,
    verify_theorem2,
)

pair_indices = st.lists(
    st.integers(min_value=0, max_value=11), min_size=4, max_size=4
)


def test_twelve_directed_pairs():
    assert len(SPLITTER_PAIRS) == 12
    assert len(set(SPLITTER_PAIRS)) == 12
    assert all(src != dst for src, dst in SPLITTER_PAIRS)


def test_known_balanced_sequence():
    net = BsNetwork.of(4, [(1, 2), (3, 4), (1, 3), (2, 4)])
    assert structural_conditions(net) == (True, True, True)
    assert is_balanced_foursplitter(net.matrix())


def test_repeated_pair_fails_condition_three():
    net = BsNetwork.of(4, [(1, 2), (3, 4), (2, 1), (3, 4)])
    c1, c2, c3 = structural_conditions(net)
    assert not c3
    assert not is_balanced_foursplitter(net.matrix())


def test_unbalanced_when_mode_occurs_three_times():
    net = BsNetwork.of(4, [(1, 2), (1, 3), (1, 4), (2, 3)])
    c1, _, _ = structural_conditions(net)
    assert not c1
    assert not is_balanced_foursplitter(net.matrix())


def test_first_two_splitters_must_cover_all_modes():
    net = BsNetwork.of(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    _, c2, _ = structural_conditions(net)
    assert not c2


@given(pair_indices)
@settings(max_examples=200, deadline=None)
def test_balance_equals_conditions_on_samples(indices):
    net = sequence_from_indices(indices)
    balanced = is_balanced_foursplitter(net.matrix())
    assert balanced == all(structural_conditions(net))


def test_theorem2_exhaustive():
    rep = verify_theorem2()
    assert rep.candidate_count == 12**4 == 20736
    assert rep.condition_pass_count == 384
    assert rep.balanced_count == 384
    assert rep.counterexample_indices == []
    assert rep.equivalence_holds


def test_theorem2_exact_cross_check():
    # Re-verify a stratified sample in exact arithmetic.
    rep = verify_theorem2(cross_check_stride=97)
    assert rep.equivalence_holds


def test_theorem2_runtime_budget():
    rep = verify_theorem2()
    assert rep.elapsed_seconds < 5.0


class TestCanonicalForm:
    def test_commuting_adjacent_disjoint_pairs(self):
        a = BsNetwork.of(4, [(1, 2), (3, 4), (1, 3), (2, 4)])
        b = BsNetwork.of(4, [(3, 4), (1, 2), (1, 3), (2, 4)])
        assert canonical_form(a) == canonical_form(b)
        assert a.matrix() == b.matrix()

    def test_non_commuting_order_is_preserved(self):
        net = BsNetwork.of(4, [(1, 2), (2, 4), (1, 3), (3, 4)])
        if all(structural_conditions(net)):
            canon = canonical_form(net)
            assert canon.matrix() == net.matrix()

    def test_rejects_unbalanced_input(self):
        with pytest.raises(ValueError):
            canonical_form(BsNetwork.of(4, [(1, 2), (1, 3), (1, 4), (2, 3)]))

    def test_canonical_form_is_idempotent(self):
        net = BsNetwork.of(4, [(2, 4), (1, 3), (1, 2), (3, 4)])
        assert canonical_form(canonical_form(net)) == canonical_form(net)


def test_physical_census_counts():
    rep = physical_census()
    assert rep.physical_class_count == 96
    assert rep.distinct_matrix_count == 40
    assert rep.multiplicity_histogram == {2: 24, 3: 16}
    # 24 matrices realized twice plus 16 realized three times covers all 96.
    assert 24 * 2 + 16 * 3 == 96


def test_census_representatives_are_balanced():
    rep = physical_census()
    assert len(rep.representatives) == 40
    for sequences in rep.representatives.values():
        for seq in sequences:
            assert is_balanced_foursplitter(BsNetwork.of(4, seq).matrix())


def test_reversed_network_matrix_is_transpose():
    net = BsNetwork.of(4, [(1, 2), (3, 4), (1, 3), (2, 4)])
    assert net.reversed().matrix() == net.matrix().transpose()


def test_non_orthogonal_matrix_rejected():
    from foursplit.exact import ExactMatrix

    bad = ExactMatrix.from_ints(
        [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]], 1
    )
    with pytest.raises(ValueError):
        is_balanced_foursplitter(bad)
    # Wrong size is an answerable question, not an error.
    assert not is_balanced_foursplitter(ExactMatrix.identity(3))


# -- the sweep runs once per process ------------------------------------------


def test_one_sweep_serves_theorem2_and_census(monkeypatch):
    calls = []
    original = networks.enumerate_candidates
    monkeypatch.setattr(networks, "enumerate_candidates", lambda: calls.append(1) or original())
    networks._sweep.cache_clear()
    verify_theorem2()
    physical_census()
    verify_theorem2()
    assert len(calls) == 1


def test_sweep_arrays_are_read_only():
    sweep = networks._sweep()
    for arr in (sweep.balanced, sweep.rows, sweep.signs):
        with pytest.raises(ValueError):
            arr.flat[0] = 0


def test_sweep_signs_match_network_matrices():
    # the prefix-product sweep against the network-by-network product
    sweep = networks._sweep()
    assert len(sweep.rows) == 384
    for indices, doubled in zip(sweep.rows, sweep.signs):
        mat = sequence_from_indices(indices).matrix()
        assert np.array_equal(mat.doubled_signs(), doubled)


def test_balanced_signs_equal_unblocked_products():
    # reference: every prefix stage as one stacked product, 20,736 at once
    splitters = [beam_splitter_matrix(4, s, d) for s, d in SPLITTER_PAIRS]
    a_parts = np.stack([sp.A for sp in splitters])
    b_parts = np.stack([sp.B for sp in splitters])
    acc_a, acc_b = a_parts, b_parts
    for _ in range(3):
        acc_a, acc_b = ring_matmul(a_parts[None], b_parts[None], acc_a[:, None], acc_b[:, None])
        acc_a, acc_b = acc_a.reshape(-1, 4, 4), acc_b.reshape(-1, 4, 4)
    mask, signs = signs_of_halves(acc_a, acc_b, 4 * splitters[0].m)
    got_mask, got_signs = networks._balanced_signs()
    assert got_mask.dtype == bool and np.array_equal(got_mask, mask)
    assert got_signs.dtype == np.int8 and np.array_equal(got_signs, signs)


def test_cross_check_reruns_on_cached_sweep(monkeypatch):
    verify_theorem2()  # the sweep is cached from here on
    checked = []
    original = networks.is_balanced_foursplitter

    def counting(mat):
        checked.append(1)
        return original(mat)

    monkeypatch.setattr(networks, "is_balanced_foursplitter", counting)
    assert verify_theorem2(cross_check_stride=1000).equivalence_holds
    assert len(checked) == 384 + len(range(0, 20736 - 384, 1000))

    monkeypatch.setattr(networks, "is_balanced_foursplitter", lambda mat: False)
    with pytest.raises(AssertionError, match="disagree"):
        verify_theorem2(cross_check_stride=1000)


def test_census_is_repeatable():
    first = physical_census()
    first.representatives.clear()
    first.multiplicity_histogram.clear()
    assert physical_census().to_json_dict() == physical_census().to_json_dict()
    assert physical_census().multiplicity_histogram == {2: 24, 3: 16}


def test_census_keys_match_class_matrices():
    # the census reads class keys from the sweep; rebuild each class matrix
    census = physical_census()
    classes = [(key, seq) for key, seqs in census.representatives.items() for seq in seqs]
    assert len(classes) == 96
    for key, seq in classes:
        assert key == sign_string(BsNetwork(4, seq).matrix().doubled_signs().ravel()), seq
