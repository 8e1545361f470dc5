"""Architecture registry: matrices, decompositions, residuals, completions."""

import json

import numpy as np
import pytest

from foursplit import zoo
from foursplit.exact import ExactMatrix, ExactScalar, beam_splitter_matrix
from foursplit.zoo import (
    architecture,
    architecture_matrix,
    architecture_names,
    bell_pair_insertion_identity,
    classify_incompleteness,
    find_mode_relabeling,
    no_virtual_completion_scan,
    qrl_decomposition,
    registry_json,
    registry_json_dict,
    residual_analysis,
    virtual_completion,
)

# Entry tokens: +|- are +-1/2, r|l are +-1/sqrt2, 0 is zero.
_TOKEN = {
    "+": ExactScalar(1, 0, 2),
    "-": ExactScalar(-1, 0, 2),
    "r": ExactScalar(0, 1, 2),
    "l": ExactScalar(0, -1, 2),
    "0": ExactScalar.zero(),
}

FROZEN_MATRICES = {
    "QRL": ("+--+", "++--", "+-+-", "++++"),
    "BSL": ("rl00", "++-+", "+++-", "00rr"),
    "cBSL": ("+---", "++-+", "+++-", "+-++"),
    "DBSL": ("rl00", "+++-", "--+-", "00rr"),
    "cDBSL": ("+---", "+++-", "--+-", "+-++"),
    "MSG": ("+---", "rr00", "00rl", "+-++"),
    "cMSG": ("+---", "++-+", "+++-", "+-++"),
    "MBSL": ("r0+-", "0r++", "0l++", "r0-+"),
    "cMBSL": ("+-+-", "++++", "--++", "+--+"),
}


def _decode(rows: tuple[str, ...]) -> ExactMatrix:
    return ExactMatrix([[_TOKEN[ch] for ch in row] for row in rows])


def test_registry_lists_all_nine():
    assert sorted(architecture_names()) == sorted(FROZEN_MATRICES)


@pytest.mark.parametrize("name", sorted(FROZEN_MATRICES))
def test_architecture_matrix_frozen(name):
    assert architecture_matrix(name) == _decode(FROZEN_MATRICES[name])


@pytest.mark.parametrize("name", ["QRL", "cBSL", "cDBSL", "cMSG", "cMBSL"])
def test_completed_matrices_are_balanced(name):
    mat = architecture_matrix(name)
    assert mat.is_orthogonal()
    assert all(
        abs(float(mat[i, j])) == pytest.approx(0.5, abs=1e-15)
        for i in range(4)
        for j in range(4)
    )


def test_cmsg_equals_cbsl():
    assert architecture_matrix("cMSG") == architecture_matrix("cBSL")


def test_unknown_architecture_rejected():
    with pytest.raises(KeyError):
        architecture("QRL2")


class TestDecompositions:
    @pytest.mark.parametrize("name", ["cBSL", "cDBSL", "cMSG", "cMBSL"])
    def test_signed_relabeling_reaches_target(self, name):
        preferred, solutions = qrl_decomposition(name)
        reference = architecture_matrix("QRL")
        assert preferred.apply(reference) == architecture_matrix(name)
        for sol in solutions:
            assert sol.apply(reference) == architecture_matrix(name)

    @pytest.mark.parametrize("name", ["cBSL", "cDBSL", "cMSG", "cMBSL"])
    def test_eight_solutions(self, name):
        _, solutions = qrl_decomposition(name)
        assert len(solutions) == 8

    def test_cbsl_conventional_form(self):
        preferred, _ = qrl_decomposition("cBSL")
        assert preferred.row_perm == (1, 2, 4, 3)
        assert preferred.row_negations == ()
        assert preferred.col_negations == (4,)

    def test_cdbsl_conventional_form(self):
        preferred, _ = qrl_decomposition("cDBSL")
        assert preferred.row_perm == (1, 4, 2, 3)
        assert preferred.row_negations == (3,)
        assert preferred.col_negations == (4,)

    def test_cmbsl_conventional_form(self):
        preferred, _ = qrl_decomposition("cMBSL")
        assert preferred.row_perm == (3, 4, 2, 1)
        assert preferred.row_negations == (3,)
        assert preferred.col_negations == ()

    def test_qrl_decomposes_to_itself_trivially(self):
        preferred, _ = qrl_decomposition("QRL")
        assert preferred.row_perm == (1, 2, 3, 4)
        assert preferred.row_negations == ()
        assert preferred.col_negations == ()


class TestIncompleteness:
    def test_kinds(self):
        expected = {"BSL": "a", "DBSL": "a", "MSG": "a", "MBSL": "b"}
        for name, kind in expected.items():
            assert classify_incompleteness(architecture_matrix(name)) == kind

    def test_declared_kinds_match_matrices(self):
        for name in architecture_names():
            declared = architecture(name).declared_kind
            assert classify_incompleteness(architecture_matrix(name)) == declared, name

    def test_complete_matrices_classified_complete(self):
        for name in ("QRL", "cBSL", "cDBSL", "cMSG", "cMBSL"):
            assert classify_incompleteness(architecture_matrix(name)) == "complete"

    @pytest.mark.parametrize(
        "incomplete,completed,zeros",
        [("BSL", "cBSL", 10), ("DBSL", "cDBSL", 10), ("MSG", "cMSG", 10)],
    )
    def test_type_a_residual_is_one_splitter(self, incomplete, completed, zeros):
        rep = residual_analysis(incomplete, completed)
        assert rep.kind == "a"
        assert rep.zero_entries == zeros
        assert rep.residual.is_orthogonal()

    def test_mbsl_residual_has_no_zero_entries(self):
        rep = residual_analysis("MBSL", "cMBSL")
        assert rep.kind == "b"
        assert rep.zero_entries == 0

    def test_mbsl_residual_is_the_canonical_five_splitter_bridge(self):
        # A kind-b residual is a commuting pair, a bridging splitter, and a
        # second commuting pair.  Relabeled modes bring the MBSL residual to
        # the product B(1,2) B(3,4) B(2,3) B(4,3) B(2,1) exactly.
        bridge = (
            beam_splitter_matrix(4, 1, 2)
            @ beam_splitter_matrix(4, 3, 4)
            @ beam_splitter_matrix(4, 2, 3)
            @ beam_splitter_matrix(4, 4, 3)
            @ beam_splitter_matrix(4, 2, 1)
        )
        rep = residual_analysis("MBSL", "cMBSL")
        assert find_mode_relabeling(rep.residual, bridge) == (3, 2, 1, 4)

    def test_mbsl_residual_magnitude_pattern(self):
        # Entry magnitudes: 1 + sqrt(2) on the diagonal, sqrt(2) - 1 on one
        # symmetric off-diagonal pair per half, 1 everywhere else, all over
        # 2 sqrt(2).  Signs depend on splitter orientation; magnitudes do not.
        plus = ExactScalar(1, 1, 3)
        small = ExactScalar(-1, 1, 3)
        one = ExactScalar(1, 0, 3)
        frozen_abs = ExactMatrix(
            [
                [plus, small, one, one],
                [small, plus, one, one],
                [one, one, plus, small],
                [one, one, small, plus],
            ]
        )
        rep = residual_analysis("MBSL", "cMBSL")
        res_abs = ExactMatrix([[abs(e) for e in row] for row in rep.residual.rows])
        assert find_mode_relabeling(res_abs, frozen_abs) == (1, 4, 2, 3)


class TestVirtualCompletion:
    def test_rules(self):
        assert virtual_completion("BSL").pair == (1, 4)
        assert virtual_completion("DBSL").pair == (1, 4)
        assert virtual_completion("MSG").pair == (2, 3)
        assert virtual_completion("BSL").completed == "cBSL"

    def test_equal_angle_restriction_enforced(self):
        rule = virtual_completion("MSG")
        rule.check_angles((0.3, 0.7, 0.7, -0.1))
        with pytest.raises(ValueError, match="theta_2 = theta_3"):
            rule.check_angles((0.3, 0.7, 0.6, -0.1))

    def test_outcome_transform(self):
        rule = virtual_completion("BSL")
        out = rule.transform_outcomes((1.0, 2.0, 3.0, 5.0))
        root2 = np.sqrt(2.0)
        assert out[0] == pytest.approx((1.0 - 5.0) / root2)
        assert out[3] == pytest.approx((1.0 + 5.0) / root2)
        assert out[1:3] == (2.0, 3.0)

    def test_mbsl_refused_with_type_message(self):
        with pytest.raises(ValueError, match="kind \\(b\\)"):
            virtual_completion("MBSL")

    def test_complete_architectures_refused(self):
        with pytest.raises(ValueError):
            virtual_completion("QRL")


class TestNoCompletionScan:
    def test_mbsl_residual_scan_finds_nothing(self):
        rep = residual_analysis("MBSL", "cMBSL")
        scan = no_virtual_completion_scan(rep.residual, grid_points=7, random_points=2000)
        assert scan.no_completion_exists
        assert scan.min_max_offdiagonal > 0.1
        assert scan.uniform_max_offdiagonal <= 1e-12

    def test_uniform_angles_commute(self):
        # Uniform phases pass through any orthogonal network untouched; the
        # scan must classify them as trivial rather than as counterexamples.
        rep = residual_analysis("MBSL", "cMBSL")
        scan = no_virtual_completion_scan(rep.residual, grid_points=3, random_points=10)
        assert scan.uniform_max_offdiagonal <= 1e-12


def test_insertion_identity():
    rep = bell_pair_insertion_identity()
    assert rep.identity_holds
    assert rep.negative_control_differs
    assert rep.swap_lemma_holds


def test_registry_json_round_trips():
    data = registry_json_dict()
    assert set(data) == set(FROZEN_MATRICES)
    parsed = json.loads(registry_json())
    assert parsed == data
    for name in ("cBSL", "cDBSL", "cMSG", "cMBSL"):
        assert data[name]["completion"] is not None


def test_gate_slot_registry():
    assert architecture("QRL").gate_slots == ((1, 1), (2, 1), (3, 1), (4, 1))
    assert architecture("cBSL").gate_slots == ((1, 1), (2, 1), (4, 1), (3, 1))
    assert architecture("cDBSL").gate_slots == ((1, 1), (3, -1), (4, 1), (2, 1))
    assert architecture("cMBSL").gate_slots == ((4, 1), (3, -1), (1, 1), (2, 1))
    assert architecture("cMSG").gate_slots == architecture("cBSL").gate_slots


def test_parity_flags():
    assert not architecture("QRL").parity_on_output
    assert architecture("cBSL").parity_on_output
    assert architecture("cDBSL").parity_on_output
    assert architecture("cMSG").parity_on_output
    assert not architecture("cMBSL").parity_on_output


@pytest.mark.parametrize("name", sorted(FROZEN_MATRICES))
def test_cached_registry_matrix_cannot_be_mutated(name):
    mat = architecture_matrix(name)
    assert architecture_matrix(name) is mat
    with pytest.raises(ValueError):
        mat.A[0, 0] = 7
    with pytest.raises(AttributeError):
        mat.m = 0
    assert architecture_matrix(name) == architecture(name).matrix() == _decode(FROZEN_MATRICES[name])


def test_unknown_architecture_is_not_cached():
    with pytest.raises(KeyError):
        architecture_matrix("nope")
    assert zoo._registry_matrix.cache_info().currsize <= len(FROZEN_MATRICES)


def test_scan_grid_above_cap_rejected():
    residual = residual_analysis("MBSL", "cMBSL").residual
    with pytest.raises(ValueError, match="grid_points"):
        no_virtual_completion_scan(residual, grid_points=zoo.MAX_GRID_POINTS + 1)
