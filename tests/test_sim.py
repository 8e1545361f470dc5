"""Gaussian simulation of the measurement gadgets, end to end."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from foursplit import gates, sim
from foursplit.gates import CHI, SymplecticOp, cz, two_mode_gate
from foursplit.sim import (
    GaussianState,
    apply,
    extracted_gate_matrix,
    homodyne,
    noise_compare,
    simulate_gadget,
    squeezed_vacuum,
    virtual_completion_experiment,
)

HALF_PI = math.pi / 2


class TestGaussianState:
    def test_vacuum(self):
        state = GaussianState.vacuum(3)
        assert np.allclose(state.mean, 0.0)
        assert np.allclose(state.cov, 0.5 * np.eye(6))
        assert state.purity_det() == pytest.approx(1.0)

    def test_immutable(self):
        state = GaussianState.vacuum(1)
        with pytest.raises(AttributeError):
            state.n_modes = 2

    def test_mode_indices(self):
        state = GaussianState.vacuum(3)
        assert state.mode_indices(1) == (0, 3)
        assert state.mode_indices(3) == (2, 5)
        with pytest.raises(ValueError, match="out of range"):
            state.mode_indices(4)

    def test_rejects_asymmetric_covariance(self):
        cov = 0.5 * np.eye(2)
        cov[0, 1] = 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            GaussianState(1, np.zeros(2), cov)

    def test_rejects_sub_uncertainty_covariance(self):
        with pytest.raises(ValueError, match="uncertainty"):
            GaussianState(1, np.zeros(2), 0.1 * np.eye(2))

    def test_non_symplectic_op_on_vacuum_rejected(self):
        with pytest.raises(ValueError, match="uncertainty"):
            apply(SymplecticOp(0.5 * np.eye(2)), GaussianState.vacuum(1))

    def test_rejects_entry_scaled_violation(self):
        # det = 0.0156 against 0.25 for a pure state; large entries must not
        # loosen the test
        with pytest.raises(ValueError, match="uncertainty"):
            GaussianState(1, np.zeros(2), np.diag([1.25e-7, 1.25e5]))

    def test_rejects_non_symplectic_op_on_squeezed_state(self):
        with pytest.raises(ValueError, match="uncertainty"):
            apply(SymplecticOp(0.5 * np.eye(2)), squeezed_vacuum(60.0, "q"))

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(ValueError, match="uncertainty"):
            GaussianState(1, np.zeros(2), np.diag([1.0, -1.0]))

    def test_accepts_160_db_squeezed_vacuum(self):
        state = squeezed_vacuum(160.0, "q")
        assert state.cov[0, 0] == pytest.approx(0.5e-16)

    @given(
        st.floats(0.0, 60.0),
        st.sampled_from("qp"),
        st.lists(
            st.tuples(st.sampled_from(["rotation", "shear", "squeeze"]), st.floats(-1.0, 1.0)),
            max_size=4,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_symplectic_images_accepted_and_scaled_ones_rejected(self, db, axis, steps):
        ops = []
        for kind, x in steps:
            if kind == "rotation":
                ops.append(gates.rotation(math.pi * x))
            elif kind == "shear":
                ops.append(gates.shear_q(3.0 * x))
            else:  # up to 20 dB either way
                ops.append(gates.squeeze(10.0 ** x))
        cov = squeezed_vacuum(db, axis).cov
        for op in ops:
            cov = op.matrix @ cov @ op.matrix.T
            # past ~60 dB in a rotated frame, float64 entries no longer carry
            # the squeezed quadrature: its variance is below their rounding
            assume(np.linalg.eigvalsh(cov)[-1] <= 0.5e6)
        state = squeezed_vacuum(db, axis)
        for op in ops:
            state = apply(op, state)
        with pytest.raises(ValueError, match="uncertainty"):
            GaussianState(1, state.mean, 0.99 * state.cov)

    def test_tolerance_scales_with_magnitude(self):
        # a strongly squeezed state carries covariance entries ~5e5 whose
        # eigenvalue noise would trip a fixed absolute threshold
        state = squeezed_vacuum(60.0, "p")
        assert state.cov.max() > 1e5
        assert state.purity_det() == pytest.approx(1.0, rel=1e-9)


class TestSqueezedVacuum:
    @pytest.mark.parametrize("db", [0.0, 5.0, 10.0, 15.0])
    def test_variances(self, db):
        state = squeezed_vacuum(db, "q")
        qq, pp = state.cov[0, 0], state.cov[1, 1]
        assert qq == pytest.approx(0.5 * 10 ** (-db / 10))
        assert pp == pytest.approx(0.5 * 10 ** (db / 10))

    def test_axis_selects_quadrature(self):
        q_state = squeezed_vacuum(10.0, "q")
        p_state = squeezed_vacuum(10.0, "p")
        assert q_state.cov[0, 0] < q_state.cov[1, 1]
        assert p_state.cov[1, 1] < p_state.cov[0, 0]

    def test_pure(self):
        assert squeezed_vacuum(12.0, "p").purity_det() == pytest.approx(1.0)

    def test_negative_db_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            squeezed_vacuum(-3.0, "q")

    @pytest.mark.parametrize("db", [math.nan, math.inf])
    def test_non_finite_db_rejected(self, db):
        with pytest.raises(ValueError, match="finite"):
            squeezed_vacuum(db, "q")

    def test_db_beyond_float_range_rejected(self):
        with pytest.raises(ValueError, match="float range"):
            squeezed_vacuum(4000.0, "q")

    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            squeezed_vacuum(3.0, "x")


class TestApply:
    def test_rotation_leaves_vacuum_invariant(self):
        state = GaussianState.vacuum(1)
        rotated = apply(gates.rotation(0.7), state)
        assert np.allclose(rotated.cov, state.cov)

    def test_displacement_moves_mean_only(self):
        state = GaussianState.vacuum(1)
        moved = apply(gates.displacement(1.5, -0.5), state)
        assert np.allclose(moved.mean, [1.5, -0.5])
        assert np.allclose(moved.cov, state.cov)

    def test_purity_preserved(self):
        state = squeezed_vacuum(8.0, "q")
        evolved = apply(gates.shear_q(1.3) @ gates.rotation(-0.4), state)
        assert evolved.purity_det() == pytest.approx(1.0, rel=1e-10)

    def test_mode_count_checked(self):
        with pytest.raises(ValueError, match="modes"):
            apply(gates.cz(1.0), GaussianState.vacuum(1))


class TestHomodyne:
    def test_vacuum_statistics(self):
        rng = np.random.default_rng(42)
        samples = [
            homodyne(GaussianState.vacuum(1), 1, 0.3, rng=rng)[0] for _ in range(4000)
        ]
        assert np.mean(samples) == pytest.approx(0.0, abs=0.05)
        assert np.var(samples) == pytest.approx(0.5, rel=0.1)

    def test_uncorrelated_mode_untouched(self):
        state = GaussianState.vacuum(2)
        state = apply(gates.shear_q(2.0).embed(2, (2,)), state)
        before = state.cov[np.ix_([1, 3], [1, 3])]
        _, reduced = homodyne(state, 1, 0.9, outcome=1.7)
        assert np.allclose(reduced.cov, before)
        assert np.allclose(reduced.mean, 0.0)

    def test_fixed_outcome_returned(self):
        m, _ = homodyne(GaussianState.vacuum(1), 1, 0.0, outcome=2.5)
        assert m == 2.5

    def test_conditioning_preserves_purity(self):
        two = GaussianState(
            2,
            np.zeros(4),
            np.kron(np.eye(2), np.eye(2)) * 0.5,
        )
        entangled = apply(gates.cz(1.0), two)
        _, reduced = homodyne(entangled, 2, 0.4, outcome=-0.8)
        assert reduced.purity_det() == pytest.approx(1.0, rel=1e-10)

    def test_covariance_ignores_outcome(self):
        entangled = apply(gates.cz(1.0), GaussianState.vacuum(2))
        covs = [
            homodyne(entangled, 1, 0.2, outcome=m)[1].cov for m in (-3.0, 0.0, 7.5)
        ]
        assert np.allclose(covs[0], covs[1])
        assert np.allclose(covs[1], covs[2])

    def test_entangled_pair_conditioning_tightens(self):
        # couple a p-squeezed and a q-squeezed mode on a balanced splitter,
        # then measuring one side must shrink the other side's spread
        n = 2
        mean = np.zeros(2 * n)
        cov = np.zeros((2 * n, 2 * n))
        sim._place(mean, cov, n, (1,), squeezed_vacuum(10.0, "p"))
        sim._place(mean, cov, n, (2,), squeezed_vacuum(10.0, "q"))
        pair = apply(gates.beam_splitter(), GaussianState(n, mean, cov))
        marginal_var = pair.cov[3, 3]
        _, conditioned = homodyne(pair, 1, 0.0, outcome=0.0)
        assert conditioned.cov[1, 1] < 0.1 * marginal_var

    def test_equal_axes_stay_product(self):
        # identical squeezing axes commute with the real coupler: no
        # correlations form and the pair is useless for teleportation
        n = 2
        mean = np.zeros(2 * n)
        cov = np.zeros((2 * n, 2 * n))
        for mode in (1, 2):
            sim._place(mean, cov, n, (mode,), squeezed_vacuum(10.0, "q"))
        pair = apply(gates.beam_splitter(), GaussianState(n, mean, cov))
        off_block = pair.cov[np.ix_([0, 2], [1, 3])]
        assert np.abs(off_block).max() < 1e-12

    def test_zero_variance_rejected(self):
        state = squeezed_vacuum(160.0, "p")
        with pytest.raises(ValueError, match="variance"):
            homodyne(state, 1, 0.0, outcome=0.0)


IDENTITY_ANGLES = (HALF_PI, 0.0, HALF_PI, 0.0)


def _random_input(seed):
    rng = np.random.default_rng(seed)
    return GaussianState(2, rng.normal(0.0, 1.0, 4), 0.5 * np.eye(4))


class TestGadget:
    def test_identity_teleportation(self):
        probe = _random_input(5)
        res = simulate_gadget("QRL", IDENTITY_ANGLES, 60.0, probe, outcomes=(0.0,) * 4)
        assert np.abs(res.output.mean - probe.mean).max() < 1e-5
        assert np.abs(res.output.cov - probe.cov).max() < 1e-5

    def test_deterministic_given_seed(self):
        a = simulate_gadget("QRL", IDENTITY_ANGLES, 10.0, seed=7)
        b = simulate_gadget("QRL", IDENTITY_ANGLES, 10.0, seed=7)
        assert a.raw_outcomes == b.raw_outcomes
        assert np.allclose(a.output.mean, b.output.mean)

    def test_fixed_outcomes_honored(self):
        fixed = (0.4, -1.1, 0.0, 2.2)
        res = simulate_gadget("QRL", IDENTITY_ANGLES, 10.0, outcomes=fixed)
        assert res.raw_outcomes == fixed

    def test_output_covariance_ignores_outcomes(self):
        runs = [
            simulate_gadget("QRL", IDENTITY_ANGLES, 10.0, seed=s) for s in (1, 2, 3)
        ]
        assert np.allclose(runs[0].output.cov, runs[1].output.cov)
        assert np.allclose(runs[1].output.cov, runs[2].output.cov)

    def test_output_stays_pure(self):
        res = simulate_gadget("cMBSL", (0.9, -0.3, 1.2, 0.2), 10.0, seed=1)
        assert res.output.purity_det() == pytest.approx(1.0, rel=1e-8)

    @pytest.mark.parametrize(
        "name,angles",
        [
            ("QRL", (HALF_PI, HALF_PI + CHI, HALF_PI, HALF_PI - CHI)),
            ("cBSL", (0.8, -0.4, 1.1, 0.8)),
            ("cDBSL", (0.5, 1.2, -0.9, 0.5)),
            ("cMBSL", (0.9, -0.3, 1.2, 0.2)),
            ("vcBSL", (0.8, -0.4, 1.1, 0.8)),
            ("vcDBSL", (0.5, 1.2, -0.9, 0.5)),
            ("vcMSG", (1.0, 0.3, 0.3, -0.7)),
        ],
    )
    def test_corrected_mean_tracks_the_gate(self, name, angles):
        probe = _random_input(17)
        res = simulate_gadget(
            name, angles, 60.0, probe, outcomes=(0.5, -1.0, 2.0, 0.7)
        )
        expected = res.gate.op.matrix @ probe.mean
        assert np.abs(res.output.mean - expected).max() < 1e-3

    def test_swapped_orientation_breaks_teleportation(self):
        probe = _random_input(5)
        res = simulate_gadget(
            "QRL", IDENTITY_ANGLES, 60.0, probe, outcomes=(0.0,) * 4, orientation="qp"
        )
        assert np.abs(res.output.mean - probe.mean).max() > 0.1

    def test_unknown_orientation_rejected(self):
        with pytest.raises(ValueError, match="orientation"):
            simulate_gadget("QRL", IDENTITY_ANGLES, 10.0, orientation="xy")

    @pytest.mark.parametrize("outcomes", [(0.0, 0.0, 0.0), (0.0,) * 5])
    def test_outcome_count_checked(self, outcomes):
        with pytest.raises(ValueError, match="four outcomes"):
            simulate_gadget("QRL", IDENTITY_ANGLES, 10.0, outcomes=outcomes)

    def test_unrepresentable_squeezing_refused(self):
        # at 400 dB the squeezed quadrature is lost to rounding in the first splitter
        with pytest.raises(ValueError, match="uncertainty"):
            simulate_gadget("QRL", IDENTITY_ANGLES, 400.0, outcomes=(0.0,) * 4)

    def test_input_must_be_two_modes(self):
        with pytest.raises(ValueError, match="two-mode"):
            simulate_gadget("QRL", IDENTITY_ANGLES, 10.0, GaussianState.vacuum(3))

    def test_json_dict_is_serializable(self):
        import json

        res = simulate_gadget("QRL", IDENTITY_ANGLES, 10.0, seed=0)
        payload = json.loads(json.dumps(res.to_json_dict()))
        assert payload["architecture"] == "QRL"
        assert len(payload["output_mean"]) == 4


class TestExtractedGate:
    def test_cz_angles_reproduce_cz(self):
        angles = (HALF_PI, HALF_PI + CHI, HALF_PI, HALF_PI - CHI)
        mat = extracted_gate_matrix("QRL", angles)
        assert np.abs(mat - cz(1.0).matrix).max() < 1e-4

    def test_matches_predicted_gate(self):
        for name, angles in [
            ("cMBSL", (0.9, -0.3, 1.2, 0.2)),
            ("vcMSG", (1.0, 0.3, 0.3, -0.7)),
        ]:
            gate = two_mode_gate(name, angles)
            mat = extracted_gate_matrix(name, angles)
            assert np.abs(mat - gate.op.matrix).max() < 1e-4

    def test_conditioned_60db_state_is_not_a_spurious_violation(self):
        # Conditioning shrinks the covariance from ~5e5 to ~1, but the
        # rounding noise it carries stays at the scale it passed through.
        angles = (1.4247577075230016, -0.3211984560994092, -0.3211984560994092, -2.184999323560268)
        mat = extracted_gate_matrix("vcMSG", angles, 60.0)
        assert np.abs(mat - two_mode_gate("vcMSG", angles).op.matrix).max() <= 1e-4


CZ_ROW = (HALF_PI, HALF_PI + CHI, HALF_PI, HALF_PI - CHI)


class TestNoiseCompare:
    @pytest.mark.parametrize("db", [5.0, 10.0, 15.0])
    def test_mapped_cz_row_has_identical_noise(self, db):
        mapped = gates.map_reference_angles("vcBSL", CZ_ROW)
        dev = noise_compare("QRL", CZ_ROW, "vcBSL", mapped, db)
        assert dev < 1e-9

    def test_all_mapped_identity_rows(self):
        for vc in ("vcBSL", "vcDBSL", "vcMSG"):
            mapped = gates.map_reference_angles(vc, IDENTITY_ANGLES)
            dev = noise_compare("QRL", IDENTITY_ANGLES, vc, mapped, 10.0)
            assert dev < 1e-9, vc

    def test_nonzero_between_different_gates(self):
        dev = noise_compare("QRL", CZ_ROW, "QRL", IDENTITY_ANGLES, 10.0)
        assert dev > 1e-3


class TestVirtualCompletionExperiments:
    @pytest.mark.parametrize(
        "incomplete,completed,angles",
        [
            ("BSL", "cBSL", (0.8, -0.4, 1.1, 0.8)),
            ("DBSL", "cDBSL", (0.5, 1.2, -0.9, 0.5)),
            ("MSG", "cMSG", (1.0, 0.3, 0.3, -0.7)),
        ],
    )
    def test_post_processing_reproduces_completed_network(
        self, incomplete, completed, angles
    ):
        exp = virtual_completion_experiment(incomplete, completed, angles, 10.0)
        assert exp.mean_deviation < 1e-9
        assert exp.cov_deviation < 1e-9

    def test_restriction_enforced(self):
        with pytest.raises(ValueError, match="theta_1 = theta_4"):
            virtual_completion_experiment("BSL", "cBSL", (0.1, 0.2, 0.3, 0.4), 10.0)

    def test_wrong_completion_target_rejected(self):
        with pytest.raises(ValueError, match="completes to"):
            virtual_completion_experiment("BSL", "cMSG", (0.8, -0.4, 1.1, 0.8), 10.0)

    def test_mbsl_cannot_be_completed(self):
        with pytest.raises(ValueError, match="kind"):
            virtual_completion_experiment("MBSL", "cMBSL", (0.5, 0.5, 0.5, 0.5), 10.0)
