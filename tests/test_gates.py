"""Symplectic gate algebra: factorizations, teleported gates, the dictionary."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from foursplit import gates, zoo
from foursplit.exact import beam_splitter_matrix
from foursplit.gates import (
    CHI,
    SymplecticOp,
    beam_splitter,
    cx,
    cz,
    displacement,
    displacement_from_amplitude,
    double_fourier,
    euler_decompose,
    fourier,
    identity,
    map_reference_angles,
    mapping_compatible,
    measured_quadratures,
    network_op,
    quadrature_covector,
    resolve_gate_architecture,
    rot_x,
    rot_y,
    rot_z,
    rotation,
    shear_p,
    shear_q,
    single_mode_supported,
    splitter_removable,
    splitter_rotation_3,
    squeeze,
    swap,
    two_mode_gate,
    v_gate,
    v_gate_forms,
    verify_circuit_identities,
    verify_dictionary,
    verify_ldu,
)
from foursplit.networks import BsNetwork

HALF_PI = math.pi / 2


class TestSymplecticOp:
    def test_elementary_gates_are_symplectic(self):
        ops = [
            rotation(0.37),
            fourier(),
            double_fourier(),
            shear_q(1.8),
            shear_p(-0.6),
            squeeze(2.5),
            beam_splitter(),
            beam_splitter(0.3),
            swap(),
            cz(-1.5),
            cx(0.7),
        ]
        for op in ops:
            assert op.is_symplectic()

    def test_composition_is_matrix_product(self):
        a, b = rotation(0.4), shear_q(1.2)
        combined = a @ b
        assert np.allclose(combined.matrix, a.matrix @ b.matrix)

    def test_composition_chains_shifts(self):
        d = displacement(1.0, -2.0)
        rotated = fourier() @ d
        # the Fourier rotates the shift along with the state
        assert np.allclose(rotated.shift, fourier().matrix @ d.shift)

    def test_inverse(self):
        op = cz(0.8) @ displacement(0.3, 0.0).tensor(identity())
        round_trip = op.inverse() @ op
        assert round_trip.max_deviation(identity(2)) < 1e-12

    def test_embed_then_restrict(self):
        big = cz(1.0).embed(4, (2, 4))
        assert big.n_modes == 4
        assert big.is_symplectic()
        # untouched modes stay identity
        assert big.matrix[0, 0] == 1.0 and big.matrix[4, 4] == 1.0

    def test_tensor_block_structure(self):
        joint = shear_q(2.0).tensor(rotation(0.5))
        direct = shear_q(2.0).embed(2, (1,)) @ rotation(0.5).embed(2, (2,))
        assert joint.max_deviation(direct) == 0.0

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError, match="shape"):
            SymplecticOp(np.eye(3))

    def test_rejects_mismatched_shift(self):
        with pytest.raises(ValueError, match="shift"):
            SymplecticOp(np.eye(4), np.zeros(3))

    def test_embed_rejects_bad_modes(self):
        with pytest.raises(ValueError):
            cz(1.0).embed(3, (1,))
        with pytest.raises(ValueError):
            cz(1.0).embed(3, (1, 5))


class TestElementaryGates:
    def test_rotation_at_zero(self):
        assert rotation(0.0).max_deviation(identity()) == 0.0

    def test_fourier_quarter_cycle(self):
        f = fourier()
        fourth = f @ f @ f @ f
        assert fourth.max_deviation(identity()) < 1e-15
        assert np.allclose((f @ f).matrix, -np.eye(2))

    def test_double_fourier_is_parity(self):
        assert np.allclose(double_fourier().matrix, -np.eye(2))

    def test_shear_q_adds_position_to_momentum(self):
        op = shear_q(1.5)
        q, p = np.array([1.0, 0.0]), op.matrix @ np.array([1.0, 0.0])
        assert np.allclose(p, [1.0, 1.5])
        assert np.allclose(op.matrix @ np.array([0.0, 1.0]), [0.0, 1.0])

    def test_shear_p_adds_momentum_to_position(self):
        op = shear_p(-0.5)
        assert np.allclose(op.matrix @ np.array([0.0, 1.0]), [-0.5, 1.0])

    def test_squeeze_scales_reciprocally(self):
        op = squeeze(2.0)
        vec = op.matrix @ np.array([1.0, 1.0])
        assert vec[0] * vec[1] == pytest.approx(1.0)

    def test_cz_couples_positions_into_momenta(self):
        mat = cz(0.7).matrix
        q1, q2, p1, p2 = np.eye(4)
        out = mat @ q1
        assert np.allclose(out, q1 + 0.7 * p2)
        out = mat @ q2
        assert np.allclose(out, q2 + 0.7 * p1)

    def test_balanced_splitter_blocks(self):
        mat = beam_splitter().matrix
        block = np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2.0)
        assert np.allclose(mat[:2, :2], block)
        assert np.allclose(mat[2:, 2:], block)
        assert np.allclose(mat[:2, 2:], 0.0)

    def test_swap_exchanges_modes(self):
        mat = swap().matrix
        assert np.allclose(mat @ np.array([1.0, 0.0, 0.0, 0.0]), [0, 1, 0, 0])

    def test_displacement_shift_only(self):
        op = displacement(0.25, -1.0)
        assert np.allclose(op.matrix, np.eye(2))
        assert np.allclose(op.shift, [0.25, -1.0])

    def test_displacement_from_amplitude(self):
        op = displacement_from_amplitude(1.0 + 2.0j)
        assert np.allclose(op.shift, [math.sqrt(2.0), 2.0 * math.sqrt(2.0)])

    def test_network_op_matches_exact_matrix(self):
        net = BsNetwork.of(4, [(1, 2), (3, 4), (1, 3), (2, 4)])
        op = network_op(net)
        exact = net.matrix().to_float()
        assert np.allclose(op.matrix[:4, :4], exact)
        assert np.allclose(op.matrix[4:, 4:], exact)
        assert op.is_symplectic()


class TestLduFactorization:
    @pytest.mark.parametrize("theta", [-1.4, -0.9, -0.3, 0.2, math.pi / 4, 0.8, 1.3])
    def test_both_orientations_hold(self, theta):
        assert verify_ldu(theta, tol=1e-12)

    def test_dense_grid(self):
        grid = np.linspace(-1.5, 1.5, 61)
        assert all(verify_ldu(float(t), tol=1e-11) for t in grid)


class TestVGate:
    def test_three_forms_agree_on_random_angles(self):
        rng = np.random.default_rng(20240817)
        checked = 0
        while checked < 1000:
            t1, t2 = rng.uniform(-math.pi, math.pi, size=2)
            if abs(math.sin(t1 - t2)) < 1e-3:
                continue
            f1, f2, f3 = v_gate_forms(t1, t2)
            assert np.abs(f1 - f2).max() < 1e-10
            assert np.abs(f1 - f3).max() < 1e-10
            checked += 1

    def test_identity_angles(self):
        assert v_gate(HALF_PI, 0.0).max_deviation(identity()) < 1e-15

    def test_fourier_angles(self):
        op = v_gate(3 * math.pi / 4, math.pi / 4)
        assert op.max_deviation(fourier()) < 1e-15

    def test_shear_angles(self):
        op = v_gate(HALF_PI, HALF_PI - CHI)
        assert op.max_deviation(shear_q(1.0)) < 1e-12

    def test_equal_diagonal_family(self):
        # every reachable V has equal diagonal entries; gates outside this
        # family cannot be produced by any angle pair
        rng = np.random.default_rng(7)
        for _ in range(200):
            t1, t2 = rng.uniform(-math.pi, math.pi, size=2)
            if abs(math.sin(t1 - t2)) < 1e-3:
                continue
            mat = v_gate(t1, t2).matrix
            assert abs(mat[0, 0] - mat[1, 1]) < 1e-10

    def test_equal_angles_rejected(self):
        with pytest.raises(ValueError, match="equal mod pi"):
            v_gate(0.4, 0.4)
        with pytest.raises(ValueError, match="equal mod pi"):
            v_gate(0.4, 0.4 - math.pi)

    def test_result_is_symplectic(self):
        assert v_gate(1.1, -0.4).is_symplectic()


GATE_NAMES = ("QRL", "cBSL", "cDBSL", "cMSG", "cMBSL", "vcBSL", "vcDBSL", "vcMSG")


def _guarded_angles(rng, name):
    """Angle vectors whose local gates stay well-conditioned."""
    _, rule = resolve_gate_architecture(name)
    while True:
        angles = rng.uniform(-math.pi, math.pi, size=4)
        if rule is not None:
            j, k = rule.pair
            angles[k - 1] = angles[j - 1]
        try:
            gate = two_mode_gate(name, tuple(angles))
        except (ValueError, AssertionError):
            continue
        if np.abs(gate.op.matrix).max() <= 3.0:
            return tuple(angles), gate


class TestTeleportedGates:
    def test_identity_row(self):
        gate = two_mode_gate("QRL", (HALF_PI, 0.0, HALF_PI, 0.0))
        assert gate.op.max_deviation(identity(2)) < 1e-12

    def test_cz_rows(self):
        plus = two_mode_gate("QRL", (HALF_PI, HALF_PI + CHI, HALF_PI, HALF_PI - CHI))
        minus = two_mode_gate("QRL", (HALF_PI, HALF_PI - CHI, HALF_PI, HALF_PI + CHI))
        assert plus.op.max_deviation(cz(1.0)) < 1e-12
        assert minus.op.max_deviation(cz(-1.0)) < 1e-12

    def test_swap_row(self):
        gate = two_mode_gate("QRL", (0.0, HALF_PI, HALF_PI, 0.0))
        assert gate.op.max_deviation(swap()) < 1e-12

    def test_slot_wiring_cmbsl(self):
        # slots route physical angles (theta4, theta3, theta1, theta2) into
        # the V pairs, with no output parity for this layout
        gate = two_mode_gate("cMBSL", (HALF_PI, 0.0, 0.0, HALF_PI))
        assert gate.op.max_deviation(identity(2)) < 1e-12

    def test_slot_wiring_cbsl_carries_parity(self):
        gate = two_mode_gate("cBSL", (HALF_PI, 0.0, 0.0, HALF_PI))
        parity2 = double_fourier().embed(2, (2,))
        assert gate.op.max_deviation(parity2) < 1e-12

    @pytest.mark.parametrize("name", GATE_NAMES)
    def test_random_gates_are_symplectic(self, name):
        rng = np.random.default_rng(hash(name) % 2**32)
        for _ in range(5):
            _, gate = _guarded_angles(rng, name)
            assert gate.op.is_symplectic(tol=1e-9)

    def test_displacement_zero_outcomes(self):
        _, gate = _guarded_angles(np.random.default_rng(3), "QRL")
        assert np.allclose(gate.displacement((0.0, 0.0, 0.0, 0.0)), 0.0)

    def test_displacement_is_linear(self):
        rng = np.random.default_rng(11)
        _, gate = _guarded_angles(rng, "cDBSL")
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        summed = gate.displacement(tuple(a + b))
        parts = gate.displacement(tuple(a)) + gate.displacement(tuple(b))
        assert np.allclose(summed, parts, atol=1e-12)

    def test_vc_route_transforms_outcomes(self):
        angles = (0.8, -0.4, 1.1, 0.8)
        direct = two_mode_gate("cBSL", angles)
        virtual = two_mode_gate("vcBSL", angles)
        assert virtual.op.max_deviation(direct.op) == 0.0
        m = (0.5, -1.2, 0.3, 2.0)
        root = math.sqrt(2.0)
        rewired = ((m[0] - m[3]) / root, m[1], m[2], (m[0] + m[3]) / root)
        assert np.allclose(virtual.displacement(m), direct.displacement(rewired))

    def test_vc_restriction_enforced(self):
        with pytest.raises(ValueError, match="theta_2 = theta_3"):
            two_mode_gate("vcMSG", (0.1, 0.2, 0.3, 0.4))
        with pytest.raises(ValueError, match="theta_1 = theta_4"):
            two_mode_gate("vcDBSL", (0.1, 0.2, 0.3, 0.4))

    def test_incomplete_architectures_have_no_gate(self):
        with pytest.raises(ValueError, match="complete"):
            two_mode_gate("MSG", (0.1, 0.2, 0.3, 0.4))
        with pytest.raises(ValueError, match="kind"):
            two_mode_gate("vcMBSL", (0.1, 0.2, 0.3, 0.4))

    def test_angle_count_checked(self):
        with pytest.raises(ValueError, match="four"):
            two_mode_gate("QRL", (0.1, 0.2, 0.3))

    def test_singular_angles_rejected(self):
        with pytest.raises(ValueError, match="equal mod pi"):
            two_mode_gate("QRL", (0.3, 0.3, 1.0, 0.2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angles_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            two_mode_gate("QRL", (HALF_PI, bad, HALF_PI, 0.0))

    @given(
        st.sampled_from(GATE_NAMES),
        st.lists(st.floats(-math.pi, math.pi), min_size=4, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_gates_are_symplectic_property(self, name, angles):
        arch, rule = resolve_gate_architecture(name)
        if rule is not None:
            j, k = rule.pair
            angles[k - 1] = angles[j - 1]
        eff = [angles[idx - 1] for idx, _ in arch.gate_slots]
        # each V pair stays clear of equal angles mod pi, where V is undefined
        assume(abs(math.sin(eff[0] - eff[1])) >= 0.1)
        assume(abs(math.sin(eff[2] - eff[3])) >= 0.1)
        assert two_mode_gate(name, angles).op.is_symplectic(tol=1e-9)


class TestAngleMapping:
    def test_maps_are_permutations(self):
        for name, perm in gates.VC_ANGLE_MAPS.items():
            assert sorted(perm) == [1, 2, 3, 4], name

    def test_maps_pinned_and_inverse_to_gate_slots(self):
        assert gates.VC_ANGLE_MAPS == {
            "vcBSL": (1, 2, 4, 3),
            "vcDBSL": (1, 4, 2, 3),
            "vcMSG": (1, 2, 4, 3),
        }
        for vc_name, perm in gates.VC_ANGLE_MAPS.items():
            completed = zoo.architecture(zoo.virtual_completion(vc_name[2:]).completed)
            for slot, (angle_index, _) in enumerate(completed.gate_slots, start=1):
                assert perm[angle_index - 1] == slot

    def test_mapped_angles(self):
        assert map_reference_angles("vcBSL", (1.0, 2.0, 3.0, 4.0)) == (1.0, 2.0, 4.0, 3.0)
        assert map_reference_angles("vcDBSL", (1.0, 2.0, 3.0, 4.0)) == (1.0, 4.0, 2.0, 3.0)

    def test_swap_row_is_never_compatible(self):
        swap_angles = (0.0, HALF_PI, HALF_PI, 0.0)
        assert not any(
            mapping_compatible(vc, swap_angles) for vc in gates.VC_ANGLE_MAPS
        )

    def test_cz_row_compatibility_pattern(self):
        cz_angles = (HALF_PI, HALF_PI + CHI, HALF_PI, HALF_PI - CHI)
        assert mapping_compatible("vcBSL", cz_angles)
        assert mapping_compatible("vcDBSL", cz_angles)
        assert not mapping_compatible("vcMSG", cz_angles)


@pytest.fixture(scope="module")
def dictionary_report():
    return verify_dictionary()


@pytest.fixture(scope="module")
def identities_report():
    return verify_circuit_identities()


class TestDictionary:
    @pytest.fixture
    def report(self, dictionary_report):
        return dictionary_report

    def test_entry_count(self, report):
        assert len(report.entries) == 26

    def test_all_but_native_claim_pass(self, report):
        failing = [e for e in report.entries if not e["pass"]]
        assert len(failing) == 1
        assert failing[0]["gate"] == "fourier_conjugated_CZ(+1)"
        assert failing[0]["deviation"] == pytest.approx(1.0, abs=1e-9)

    def test_reference_rows_present(self, report):
        qrl_gates = {e["gate"] for e in report.entries if e["architecture"] == "QRL"}
        assert qrl_gates == {
            "CZ(+1)",
            "CZ(-1)",
            "SWAP",
            "identity",
            "fourier_pair",
            "shear_pair(+1)",
            "shear_pair(-1)",
        }

    def test_mapped_row_counts(self, report):
        by_arch = {}
        for e in report.entries:
            by_arch.setdefault(e["architecture"], []).append(e)
        assert len(by_arch["vcBSL"]) == 6
        assert len(by_arch["vcDBSL"]) == 6
        assert len(by_arch["vcMSG"]) == 6  # 4 mapped + the two native entries

    def test_passing_deviations_are_tiny(self, report):
        devs = [e["deviation"] for e in report.entries if e["pass"]]
        assert max(devs) < 1e-12

    def test_swap_negative_entry(self, report):
        entry = next(e for e in report.entries if e["architecture"] == "vc*")
        assert entry["gate"] == "SWAP"
        assert entry["pass"]

    def test_exact_gate_at_native_angles(self, report):
        entry = next(
            e for e in report.entries if e["gate"] == "fourier_dressed_CZ(-1)"
        )
        assert entry["pass"]
        assert entry["deviation"] < 1e-12

    def test_rows_follow_each_reference_row_with_its_mappings(self, report):
        rows = gates.dictionary_rows()
        assert [(row["gate"], arch) for row, arch, _ in rows] == [
            (e["gate"], e["architecture"]) for e in report.entries[: len(rows)]
        ]
        for row, arch, angles in rows:
            if arch != "QRL":
                assert angles == map_reference_angles(arch, row["angles"])

    def test_every_target_matches_itself_first(self):
        for name, target in gates.dictionary_targets():
            assert gates.dictionary_match(target) == name
        assert gates.dictionary_match(rotation(0.3).tensor(identity())) is None

    def test_momentum_shear_argument_documented(self, report):
        assert report.momentum_shear_argument == "2*cot(theta2-theta1)"

    def test_overall_flag_reports_the_failure(self, report):
        assert not report.all_pass
        assert report.max_deviation == pytest.approx(1.0, abs=1e-9)


class TestThreeModeRotations:
    def test_generator_axes(self):
        theta = 0.7
        assert np.allclose(splitter_rotation_3((1, 2), theta), rot_z(theta))
        assert np.allclose(splitter_rotation_3((2, 3), theta), rot_x(theta))
        assert np.allclose(splitter_rotation_3((3, 1), theta), rot_y(theta))

    def test_invalid_pair_rejected(self):
        with pytest.raises(ValueError, match="pair"):
            splitter_rotation_3((1, 3), 0.5)

    def test_decompose_rebuilds_on_grid(self):
        grid = np.linspace(-math.pi, math.pi, 7)
        for t1 in grid:
            for t2 in grid:
                m = rot_x(t2) @ rot_z(t1)
                alpha, beta, gamma = euler_decompose(m)
                rebuilt = rot_z(gamma) @ rot_y(beta) @ rot_x(alpha)
                assert np.abs(rebuilt - m).max() < 1e-12

    def test_balanced_pair_angles_exact(self):
        alpha, beta, gamma = euler_decompose(rot_x(math.pi / 4) @ rot_z(math.pi / 4))
        assert alpha == pytest.approx(math.atan(1.0 / math.sqrt(2.0)), abs=1e-14)
        assert beta == pytest.approx(math.atan(-math.sqrt(3.0) / 3.0), abs=1e-14)
        assert gamma == pytest.approx(math.atan(1.0 / math.sqrt(2.0)), abs=1e-14)

    def test_gimbal_lock_handled(self):
        m = rot_y(HALF_PI)
        alpha, beta, gamma = euler_decompose(m)
        rebuilt = rot_z(gamma) @ rot_y(beta) @ rot_x(alpha)
        assert np.abs(rebuilt - m).max() < 1e-12
        assert gamma == 0.0

    def test_reflection_rejected(self):
        with pytest.raises(ValueError, match="rotation"):
            euler_decompose(np.diag([1.0, 1.0, -1.0]))


class TestMeasurementCovectors:
    def test_covector_components(self):
        v = quadrature_covector(2, 1, 0.3)
        assert v[0] == pytest.approx(math.sin(0.3))
        assert v[2] == pytest.approx(math.cos(0.3))
        assert v[1] == v[3] == 0.0

    def test_zero_angle_reads_momentum(self):
        v = quadrature_covector(1, 1, 0.0)
        assert np.allclose(v, [0.0, 1.0])

    def test_measured_quadratures_shape(self):
        net = BsNetwork.of(2, [(1, 2)])
        rows = measured_quadratures(net, (0.4, -0.2))
        assert rows.shape == (2, 4)

    def test_single_mode_support_detection(self):
        assert single_mode_supported(quadrature_covector(3, 2, 1.2))
        net = BsNetwork.of(2, [(1, 2)])
        rows = measured_quadratures(net, (0.4, -0.2))
        assert not single_mode_supported(rows[0])

    def test_splitter_removable_iff_equal_angles(self):
        net = BsNetwork.of(2, [(1, 2)])
        assert splitter_removable(measured_quadratures(net, (0.7, 0.7)))
        assert splitter_removable(measured_quadratures(net, (0.7, 0.7 - math.pi)))
        assert not splitter_removable(measured_quadratures(net, (0.7, 0.2)))

    def test_angle_count_enforced(self):
        net = BsNetwork.of(2, [(1, 2)])
        with pytest.raises(ValueError, match="angle"):
            measured_quadratures(net, (0.4,))


class TestCircuitIdentities:
    @pytest.fixture
    def report(self, identities_report):
        return identities_report

    def test_all_identities_hold(self, report):
        assert report.all_pass
        assert max(report.deviations.values()) <= report.tol

    def test_expected_identity_set(self, report):
        assert set(report.deviations) == {
            "splitter_shear_squeeze_a",
            "splitter_shear_squeeze_b",
            "splitter_direction_reversal",
            "cz_from_sheared_splitter",
            "swap_from_controlled_shifts",
            "swap_from_double_splitter",
            "cx_reordering",
            "three_mode_angle_decomposition",
            "balanced_pair_euler_angles",
            "rotated_measurement_as_shear",
        }

    def test_swap_lemma_exact(self, report):
        assert report.swap_double_splitter_exact

    def test_json_round_trip(self, report):
        data = report.to_json_dict()
        assert data["all_pass"] is True
        assert set(data["deviations"]) == set(report.deviations)


@pytest.mark.parametrize("name", zoo.architecture_names())
def test_architecture_op_is_cached_and_fresh(name):
    expected = network_op(zoo.architecture(name).network()).matrix
    op = gates.architecture_op(name)
    assert np.array_equal(op.matrix, expected)
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 9.0
    op.shift[:] = 5.0
    op.matrix = np.zeros((8, 8))
    later = gates.architecture_op(name)
    assert later is not op
    assert np.array_equal(later.matrix, expected)
    assert not later.shift.any()


def test_v_gate_disagreement_is_value_error():
    # just outside SINGULAR_TOL the three forms drift apart by ~2e-9
    with pytest.raises(ValueError, match="disagree"):
        v_gate(0.0, 5.960464477539063e-08)
