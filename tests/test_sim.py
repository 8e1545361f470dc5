"""Gaussian simulation of the measurement gadgets, end to end."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from foursplit import gates, sim, zoo
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

    def test_owns_read_only_copies(self):
        mean, cov = np.zeros(2), 0.5 * np.eye(2)
        state = GaussianState(1, mean, cov)
        mean[0], cov[1, 1] = 5.0, 9.0
        assert np.array_equal(state.mean, [0.0, 0.0])
        assert np.array_equal(state.cov, 0.5 * np.eye(2))
        for arr in (state.mean, state.cov):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_displaced_moves_mean_without_revalidating(self, monkeypatch):
        state = squeezed_vacuum(10.0, "q")
        calls = []
        monkeypatch.setattr(sim, "_check_uncertainty", lambda cov: calls.append(1))
        moved = state.displaced(np.array([1.5, -2.0]))
        assert not calls
        assert np.array_equal(moved.mean, [1.5, -2.0])
        assert moved.cov is state.cov
        assert np.array_equal(state.mean, [0.0, 0.0])
        with pytest.raises(ValueError):
            moved.mean[0] = 0.0

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
    def test_mean_maps_by_the_matrix(self):
        state = GaussianState.vacuum(2).displaced(np.array([1.5, -0.5, 0.25, 2.0]))
        op = gates.cz(0.7) @ gates.beam_splitter(0.3)
        moved = apply(op, state)
        assert np.array_equal(moved.mean, op.matrix @ state.mean)
        assert np.allclose(moved.cov, op.matrix @ state.cov @ op.matrix.T)

    def test_rotation_leaves_vacuum_invariant(self):
        state = GaussianState.vacuum(1)
        rotated = apply(gates.rotation(0.7), state)
        assert np.allclose(rotated.cov, state.cov)

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
            homodyne(GaussianState.vacuum(1), (1,), (0.3,), rng=rng)[0] for _ in range(4000)
        ]
        assert np.mean(samples) == pytest.approx(0.0, abs=0.05)
        assert np.var(samples) == pytest.approx(0.5, rel=0.1)

    def test_uncorrelated_mode_untouched(self):
        state = GaussianState.vacuum(2)
        state = apply(gates.shear_q(2.0).embed(2, (2,)), state)
        before = state.cov[np.ix_([1, 3], [1, 3])]
        _, reduced = homodyne(state, (1,), (0.9,), outcomes=(1.7,))
        assert np.allclose(reduced.cov, before)
        assert np.allclose(reduced.mean, 0.0)

    def test_fixed_outcome_returned(self):
        (m,), _ = homodyne(GaussianState.vacuum(1), (1,), (0.0,), outcomes=(2.5,))
        assert m == 2.5

    def test_conditioning_preserves_purity(self):
        two = GaussianState(
            2,
            np.zeros(4),
            np.kron(np.eye(2), np.eye(2)) * 0.5,
        )
        entangled = apply(gates.cz(1.0), two)
        _, reduced = homodyne(entangled, (2,), (0.4,), outcomes=(-0.8,))
        assert reduced.purity_det() == pytest.approx(1.0, rel=1e-10)

    def test_covariance_ignores_outcome(self):
        entangled = apply(gates.cz(1.0), GaussianState.vacuum(2))
        covs = [
            homodyne(entangled, (1,), (0.2,), outcomes=(m,))[1].cov for m in (-3.0, 0.0, 7.5)
        ]
        assert np.allclose(covs[0], covs[1])
        assert np.allclose(covs[1], covs[2])

    def test_entangled_pair_conditioning_tightens(self):
        # couple a p-squeezed and a q-squeezed mode on a balanced splitter,
        # then measuring one side must shrink the other side's spread
        p_sq, q_sq = squeezed_vacuum(10.0, "p").cov, squeezed_vacuum(10.0, "q").cov
        cov = np.diag([p_sq[0, 0], q_sq[0, 0], p_sq[1, 1], q_sq[1, 1]])
        pair = apply(gates.beam_splitter(), GaussianState(2, np.zeros(4), cov))
        marginal_var = pair.cov[3, 3]
        _, conditioned = homodyne(pair, (1,), (0.0,), outcomes=(0.0,))
        assert conditioned.cov[1, 1] < 0.1 * marginal_var

    def test_equal_axes_stay_product(self):
        # identical squeezing axes commute with the real coupler: no
        # correlations form and the pair is useless for teleportation
        cov = np.kron(squeezed_vacuum(10.0, "q").cov, np.eye(2))
        pair = apply(gates.beam_splitter(), GaussianState(2, np.zeros(4), cov))
        off_block = pair.cov[np.ix_([0, 2], [1, 3])]
        assert np.abs(off_block).max() < 1e-12

    def test_joint_matches_one_mode_at_a_time(self):
        squeezers = gates.squeeze(1.5).tensor(gates.squeeze(0.6)).tensor(gates.squeeze(2.0))
        mixer = gates.cz(0.7).embed(3, (1, 3)) @ gates.beam_splitter().embed(3, (2, 3))
        start = GaussianState(3, np.array([0.3, -1.0, 0.5, 0.2, 0.0, 1.1]), 0.5 * np.eye(6))
        three = apply(mixer @ squeezers, start)
        for fixed in ((0.4, -1.3), None):
            joint, state = homodyne(three, (3, 1), (0.9, -0.2), fixed, np.random.default_rng(8))
            rng = np.random.default_rng(8)
            first, part = homodyne(three, (3,), (0.9,), None if fixed is None else fixed[:1], rng)
            second, part = homodyne(part, (1,), (-0.2,), None if fixed is None else fixed[1:], rng)
            assert np.allclose(joint, first + second, rtol=0.0, atol=1e-12)
            assert np.allclose(state.mean, part.mean, rtol=0.0, atol=1e-12)
            assert np.allclose(state.cov, part.cov, rtol=0.0, atol=1e-12)

    def test_repeated_mode_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            homodyne(GaussianState.vacuum(2), (1, 1), (0.0, HALF_PI), outcomes=(0.0, 0.0))

    def test_one_angle_per_mode(self):
        with pytest.raises(ValueError, match="per measured mode"):
            homodyne(GaussianState.vacuum(2), (1, 2), (0.0,))

    def test_zero_variance_rejected(self):
        state = squeezed_vacuum(160.0, "p")
        with pytest.raises(ValueError, match="variance"):
            homodyne(state, (1,), (0.0,), outcomes=(0.0,))


def _mixed_state(squeezings, mix, mean):
    """A three-mode pure state: squeezed modes mixed by splitters and a CZ."""
    op = gates.squeeze(squeezings[0]).tensor(gates.squeeze(squeezings[1])).tensor(
        gates.squeeze(squeezings[2])
    )
    op = gates.rotation(mix[0]).embed(3, (1,)) @ op
    op = gates.cz(mix[1]).embed(3, (1, 3)) @ gates.beam_splitter().embed(3, (2, 3)) @ op
    return apply(op, GaussianState(3, np.array(mean), 0.5 * np.eye(6)))


STATES = st.builds(
    _mixed_state,
    st.lists(st.floats(0.3, 3.0), min_size=3, max_size=3),
    st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
    st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6),
)


PAIR = st.lists(st.floats(-math.pi, math.pi), min_size=2, max_size=2)


@given(
    st.lists(st.tuples(STATES, PAIR), min_size=1, max_size=4),
    st.permutations((1, 2, 3)),
    st.integers(1, 2),
    st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_each_kernel_slice_matches_one_state_homodyne(stack, order, n_measured, fixed, seed):
    """Each element of one batched conditioning agrees with homodyne on
    that state alone, for fixed and for seeded sampled outcomes."""
    modes, fixed = order[:n_measured], fixed[:n_measured]
    measured = [i for mode in modes for i in stack[0][0].mode_indices(mode)]
    keep = [i for i in range(6) if i not in measured]
    rows = np.array(
        [[gates.quadrature_covector(3, m, t) for m, t in zip(modes, thetas)] for _, thetas in stack]
    )
    chol, gain, cond = sim._condition(np.stack([state.cov for state, _ in stack]), rows, keep)
    for k, (state, thetas) in enumerate(stack):
        thetas = thetas[:n_measured]
        scale = max(1.0, np.abs(state.cov).max())
        for outcomes in (fixed, None):
            values, white = sim._outcomes(
                chol[k], rows[k] @ state.mean, outcomes, np.random.default_rng(seed)
            )
            expected_values, expected = homodyne(
                state, modes, thetas, outcomes, np.random.default_rng(seed)
            )
            assert np.allclose(values, expected_values, rtol=0.0, atol=1e-12 * scale)
            mean = state.mean[keep] + gain[k] @ white
            assert np.allclose(mean, expected.mean, rtol=0.0, atol=1e-12 * scale)
            assert np.allclose(cond[k], expected.cov, rtol=0.0, atol=1e-12 * scale)


class TestConditioningKernel:
    def _stack(self, second_cov):
        good = GaussianState.vacuum(1).cov
        return np.stack([good, second_cov]), np.array([[[0.0, 1.0]], [[0.0, 1.0]]])

    def test_invalid_second_element_refused(self):
        covs, rows = self._stack(0.1 * np.eye(2))
        with pytest.raises(ValueError, match=r"least symplectic eigenvalue 0\.1 < 1/2"):
            sim._condition(covs, rows, [])

    def test_asymmetric_second_element_refused(self):
        covs, rows = self._stack(np.array([[0.5, 1e-3], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="not symmetric"):
            sim._condition(covs, rows, [])

    def test_zero_variance_second_element_refused(self):
        covs, rows = self._stack(squeezed_vacuum(160.0, "p").cov)
        with pytest.raises(ValueError, match="variance is numerically zero"):
            sim._condition(covs, rows, [])

    def test_earliest_invalid_element_reported(self):
        # element 0 fails only at the measurement, element 1 already on entry:
        # one at a time, element 0's failure comes first
        covs = np.stack([squeezed_vacuum(160.0, "p").cov, 0.1 * np.eye(2)])
        rows = np.array([[[0.0, 1.0]], [[0.0, 1.0]]])
        with pytest.raises(ValueError, match="variance is numerically zero"):
            sim._condition(covs, rows, [])

    def test_stacked_uncertainty_check_names_the_failing_element(self):
        covs = np.stack([0.5 * np.eye(2), 0.2 * np.eye(2), 0.1 * np.eye(2)])
        with pytest.raises(ValueError, match=r"eigenvalue 0\.2 < 1/2"):
            sim._check_uncertainty(covs)


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


GATE_NAMES = ("QRL", "cBSL", "cDBSL", "cMSG", "cMBSL", "vcBSL", "vcDBSL", "vcMSG")
OUTCOMES = st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4)


@given(
    st.sampled_from(GATE_NAMES),
    st.lists(st.floats(-math.pi, math.pi), min_size=4, max_size=4),
    st.floats(3.0, 20.0),
    OUTCOMES,
    OUTCOMES,
)
@settings(max_examples=100, deadline=None)
def test_output_covariance_ignores_outcomes_property(name, angles, db, first, second):
    arch, lab = gates.resolve_gate_architecture(name)
    if lab.virtual_pair is not None:
        j, k = lab.virtual_pair
        angles[k - 1] = angles[j - 1]
    eff = [angles[idx - 1] for idx, _ in arch.gate_slots]
    # each V pair stays clear of equal angles mod pi, where V is undefined
    assume(abs(math.sin(eff[0] - eff[1])) >= 0.1)
    assume(abs(math.sin(eff[2] - eff[3])) >= 0.1)
    cov_a = simulate_gadget(name, angles, db, outcomes=first).output.cov
    cov_b = simulate_gadget(name, angles, db, outcomes=second).output.cov
    assert np.abs(cov_a - cov_b).max() <= 1e-9 * max(1.0, np.abs(cov_a).max())


#: Seeded runs pinned to the values of the sequential one-mode-at-a-time
#: conditioning: (name, angles, dB, input seed or None for vacuum, seed,
#: raw outcomes, output mean, output covariance).
PINNED_RUNS = [
    (
        "cBSL", (0.8, -0.4, 1.1, 0.8), 12.0, None, 5,
        (0.708286358781, -0.371630945034, -0.438161625237, -1.199954046463),
        (2.770257903501, -2.626511884852, 3.752988471864, -3.808026267371),
        (
            (1.02939969055, -0.161858241917, 0.84065182091, -0.721626904121),
            (-0.161858241917, 1.02939969055, -0.721626904121, 0.84065182091),
            (0.84065182091, -0.721626904121, 1.281608936427, -0.977108291261),
            (-0.721626904121, 0.84065182091, -0.977108291261, 1.281608936427),
        ),
    ),
    (
        "vcDBSL", (0.5, 1.2, -0.9, 0.5), 10.0, 17, 3,
        (-1.055604056754, 0.006969074892, -3.259894421844, 1.842692297794),
        (-0.086989282705, 1.077366418194, -0.006146416399, 0.142918276642),
        (
            (0.692581717611, -0.073293621464, 0.321616820824, -0.366505831112),
            (-0.073293621464, 0.692581717611, -0.366505831112, 0.321616820824),
            (0.321616820824, -0.366505831112, 0.675815255383, -0.268872146331),
            (-0.366505831112, 0.321616820824, -0.268872146331, 0.675815255383),
        ),
    ),
    (
        "QRL", (HALF_PI, HALF_PI + CHI, HALF_PI, HALF_PI - CHI), 20.0, None, 11,
        (-3.524587078201, 4.373343327638, 4.331975152063, 0.122098584841),
        (0.118068765836, 0.137120149047, 0.116559648641, 0.223115442669),
        (
            (0.490759056702, 0.0, 0.0, 0.471334312918),
            (0.0, 0.490759056702, 0.471334312918, 0.0),
            (0.0, 0.471334312918, 0.96209336962, 0.0),
            (0.471334312918, 0.0, 0.0, 0.96209336962),
        ),
    ),
    (
        "vcMSG", (1.0, 0.3, 0.3, -0.7), 5.0, 4, 0,
        (0.062628054199, 1.505243350113, 0.289294616517, 1.258586913811),
        (-1.638954197336, 3.333294070798, 1.38199739031, 0.506125001616),
        (
            (0.630558676914, -0.02838539188, 0.074861913869, 0.13287786404),
            (-0.02838539188, 0.630558676914, 0.13287786404, 0.074861913869),
            (0.074861913869, 0.13287786404, 0.435666238092, 0.051163421429),
            (0.13287786404, 0.074861913869, 0.051163421429, 0.435666238092),
        ),
    ),
]


@pytest.mark.parametrize(
    "name,angles,db,input_seed,seed,raw,mean,cov", PINNED_RUNS, ids=[r[0] for r in PINNED_RUNS]
)
def test_seeded_run_pinned(name, angles, db, input_seed, seed, raw, mean, cov):
    probe = None if input_seed is None else _random_input(input_seed)
    res = simulate_gadget(name, angles, db, probe, seed=seed)
    assert np.allclose(res.raw_outcomes, raw, rtol=0.0, atol=1e-9)
    assert np.allclose(res.output.mean, mean, rtol=0.0, atol=1e-9)
    assert np.allclose(res.output.cov, cov, rtol=0.0, atol=1e-9)


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

    def test_restriction_holds_up_to_a_whole_turn(self):
        exp = virtual_completion_experiment("BSL", "cBSL", (0.3, 1.0, 2.0, 0.3 + 2 * math.pi), 10.0)
        assert exp.mean_deviation <= 1e-9
        assert exp.cov_deviation <= 1e-9
        for shift in (math.pi, 1e-6):
            with pytest.raises(ValueError, match="theta_1 = theta_4"):
                virtual_completion_experiment("BSL", "cBSL", (0.3, 1.0, 2.0, 0.3 + shift), 10.0)

    def test_wrong_completion_target_rejected(self):
        with pytest.raises(ValueError, match="completes to"):
            virtual_completion_experiment("BSL", "cMSG", (0.8, -0.4, 1.1, 0.8), 10.0)

    def test_mbsl_cannot_be_completed(self):
        with pytest.raises(ValueError, match="kind"):
            virtual_completion_experiment("MBSL", "cMBSL", (0.5, 0.5, 0.5, 0.5), 10.0)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_default_input_mean_is_not_the_outcome_noise(self, seed, monkeypatch):
        # the virtual run draws its white noise from default_rng(seed), as
        # simulate_gadget does; the default input mean must not repeat it
        means = []
        prepare = sim._prepare

        def spy(gate, db, input_state, *rest):
            means.append(input_state.mean.copy())
            return prepare(gate, db, input_state, *rest)

        monkeypatch.setattr(sim, "_prepare", spy)
        exp = virtual_completion_experiment("BSL", "cBSL", (0.8, -0.4, 1.1, 0.8), 10.0, seed=seed)
        white = np.random.default_rng(seed).standard_normal(4)
        assert len(means) == 2 and np.array_equal(means[0], means[1])
        assert np.abs(means[0] - white).min() > 1e-3
        assert max(exp.mean_deviation, exp.cov_deviation) < 1e-9


@given(
    st.sampled_from(sim.COMPLETION_CASES),
    st.lists(st.floats(-math.pi, math.pi), min_size=4, max_size=4),
    st.floats(3.0, 20.0),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_virtual_completion_equivalent_for_random_restricted_angles(case, angles, db, seed):
    incomplete, completed, _ = case
    arch, lab = gates.resolve_gate_architecture("vc" + incomplete)
    j, k = lab.virtual_pair
    angles[k - 1] = angles[j - 1]
    eff = [angles[idx - 1] for idx, _ in arch.gate_slots]
    # each V pair stays clear of equal angles mod pi, where V is undefined
    assume(abs(math.sin(eff[0] - eff[1])) >= 0.1)
    assume(abs(math.sin(eff[2] - eff[3])) >= 0.1)
    exp = virtual_completion_experiment(incomplete, completed, angles, db, seed=seed)
    assert exp.mean_deviation <= 1e-9
    assert exp.cov_deviation <= 1e-9


@pytest.mark.parametrize("name", sorted(zoo.ARCHITECTURES))
def test_gadget_network_is_cached_read_only(name):
    layout = zoo.architecture(name)
    net = sim._gadget_network(layout)
    expected = gates.network_op(layout.network()).embed(6, (1, 2, 3, 4)) @ sim.COUPLERS
    assert np.array_equal(net, expected.matrix)
    assert sim._gadget_network(layout) is net
    with pytest.raises(ValueError):
        net[0, 0] = 9.0


def test_gadget_constants_are_read_only():
    assert np.array_equal(sim._PARITY_FLIP, gates.double_fourier().embed(2, (2,)).matrix)
    assert np.array_equal(sim._VACUUM_INPUT.cov, 0.5 * np.eye(4))
    for arr in (sim._PARITY_FLIP, sim._VACUUM_INPUT.cov):
        with pytest.raises(ValueError):
            arr[0, 0] = 9.0
