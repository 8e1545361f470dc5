"""Enumeration and classification of directed four-splitter sequences."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from foursplit import networks
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
