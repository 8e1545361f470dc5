"""The noise, completion and oracle checks, pinned to their gadget-run references.

``sim.noise_compare`` and ``sim.virtual_completion_experiment`` each compare
two gadgets.  The reference here runs them as two full ``simulate_gadget``
calls, one after the other, and reads the compared quantities off the two
results; the package's checks must agree with it, and must refuse every
input the reference refuses, with the same message.  The oracle,
``sim.extracted_gate_matrix``, is pinned bit for bit to four full runs on
validated probe states, one per unit input displacement.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from foursplit import gates, sim
from foursplit.sim import (
    GaussianState,
    extracted_gate_matrix,
    noise_compare,
    simulate_gadget,
    virtual_completion_experiment,
)

HALF_PI = math.pi / 2
GATE_NAMES = ("QRL", "cBSL", "cDBSL", "cMSG", "cMBSL", "vcBSL", "vcDBSL", "vcMSG")
MAPPED_ROWS = [(row["angles"], arch, angles) for row, arch, angles in gates.dictionary_rows() if arch != "QRL"]
AGREE = 1e-12


def reference_noise_compare(arch_a, angles_a, arch_b, angles_b, db, input_state=None):
    res_a = simulate_gadget(arch_a, angles_a, db, input_state, outcomes=(0.0,) * 4)
    res_b = simulate_gadget(arch_b, angles_b, db, input_state, outcomes=(0.0,) * 4)
    cov_a, cov_b = res_a.output.cov, res_b.output.cov
    parity_a = gates.resolve_gate_architecture(arch_a)[0].parity_on_output
    parity_b = gates.resolve_gate_architecture(arch_b)[0].parity_on_output
    if parity_a != parity_b:
        flip = gates.double_fourier().embed(2, (2,)).matrix
        cov_b = flip @ cov_b @ flip.T
    return float(np.abs(cov_a - cov_b).max())


def reference_completion(incomplete, completed, angles, db, seed=0, input_state=None):
    """(mean deviation, covariance deviation) of the sampled virtual run
    and the completed network replayed on its processed outcomes."""
    if input_state is None:
        rng = np.random.default_rng(seed)
        input_state = GaussianState(2, rng.normal(0.0, 1.0, 4), 0.5 * np.eye(4))
    virtual = simulate_gadget("vc" + incomplete, angles, db, input_state, seed=seed)
    replay = simulate_gadget(completed, angles, db, input_state, outcomes=virtual.processed_outcomes)
    mean_v = virtual.output.mean - virtual.correction
    mean_c = replay.output.mean - replay.correction
    return (
        float(np.abs(mean_v - mean_c).max()),
        float(np.abs(virtual.output.cov - replay.output.cov).max()),
    )


def _restricted(name, angles):
    """``angles`` with the layout's equal-angle restriction imposed, or
    rejected when a V pair comes near equal angles mod pi."""
    arch, rule = gates.resolve_gate_architecture(name)
    angles = list(angles)
    if rule is not None:
        j, k = rule.pair
        angles[k - 1] = angles[j - 1]
    eff = [angles[idx - 1] for idx, _ in arch.gate_slots]
    assume(abs(math.sin(eff[0] - eff[1])) >= 0.1)
    assume(abs(math.sin(eff[2] - eff[3])) >= 0.1)
    return tuple(angles)


ANGLES = st.lists(st.floats(-math.pi, math.pi), min_size=4, max_size=4)
DB = st.floats(3.0, 20.0)
INPUT_SEED = st.one_of(st.none(), st.integers(0, 2**32 - 1))


def _input(seed):
    if seed is None:
        return None
    rng = np.random.default_rng(seed)
    return GaussianState(2, rng.normal(0.0, 1.0, 4), 0.5 * np.eye(4))


@given(st.sampled_from(MAPPED_ROWS), DB, INPUT_SEED)
@settings(max_examples=60, deadline=None)
def test_noise_compare_matches_two_runs_on_dictionary_rows(row, db, input_seed):
    qrl_angles, arch, angles = row
    args = ("QRL", qrl_angles, arch, angles, db, _input(input_seed))
    assert abs(noise_compare(*args) - reference_noise_compare(*args)) <= AGREE


@given(st.sampled_from(GATE_NAMES), ANGLES, st.sampled_from(GATE_NAMES), ANGLES, DB, INPUT_SEED)
@settings(max_examples=80, deadline=None)
def test_noise_compare_matches_two_runs_on_random_angles(name_a, angles_a, name_b, angles_b, db, input_seed):
    args = (
        name_a, _restricted(name_a, angles_a), name_b, _restricted(name_b, angles_b), db, _input(input_seed)
    )
    assert abs(noise_compare(*args) - reference_noise_compare(*args)) <= AGREE


@given(st.sampled_from(sim.COMPLETION_CASES), ANGLES, DB, st.integers(0, 2**32 - 1), INPUT_SEED)
@settings(max_examples=80, deadline=None)
def test_completion_matches_two_runs(case, angles, db, seed, input_seed):
    incomplete, completed, _ = case
    angles = _restricted("vc" + incomplete, angles)
    probe = _input(input_seed)
    exp = virtual_completion_experiment(incomplete, completed, angles, db, seed=seed, input_state=probe)
    mean_dev, cov_dev = reference_completion(incomplete, completed, angles, db, seed, probe)
    assert abs(exp.mean_deviation - mean_dev) <= AGREE
    assert abs(exp.cov_deviation - cov_dev) <= AGREE


# -- refusals -----------------------------------------------------------------

GOOD = (0.8, -0.4, 1.1, 0.8)  # satisfies every layout's V pairs and the BSL restriction
ZERO_VARIANCE = "measured quadrature variance is numerically zero"
SCALED_STATE = "covariance violates the uncertainty relation (least symplectic eigenvalue 0.125 < 1/2)"


def _run_noise(arch_b, angles_b, db=10.0, angles_a=GOOD):
    return noise_compare("QRL", angles_a, arch_b, angles_b, db)


def _run_completion(angles, db=10.0):
    return virtual_completion_experiment("BSL", "cBSL", angles, db, seed=3)


def _networks(monkeypatch, per_layout):
    """Replace the gadget network of the layouts named in ``per_layout``."""
    original = sim._gadget_network
    monkeypatch.setattr(
        sim, "_gadget_network", lambda layout: per_layout[layout.name] if layout.name in per_layout else original(layout)
    )


def _rotated_ancillas():
    """The identity with network-side ancillas 2 and 4 turned by pi/2, so
    that their loose quadrature is the measured p."""
    net = np.eye(12)
    for mode in (2, 4):
        q, p = mode - 1, 6 + mode - 1
        net[np.ix_((q, p), (q, p))] = [[0.0, -1.0], [1.0, 0.0]]
    return net


@pytest.mark.parametrize(
    "run,message",
    [
        (lambda: _run_noise("QRL", (0.3, 0.3, 1.0, 2.0)), "gate undefined: angles 0.3 and 0.3 are equal mod pi"),
        (lambda: _run_noise("QRL", GOOD, angles_a=(0.3, 1.3, 2.0, 2.0 + math.pi)),
         f"gate undefined: angles 2.0 and {2.0 + math.pi!r} are equal mod pi"),
        (lambda: _run_completion((0.8, 0.8, 1.1, 0.8)), "gate undefined: angles 0.8 and 0.8 are equal mod pi"),
        (lambda: _run_noise("vcBSL", (0.1, 0.2, 0.3, 0.4)), "virtual completion of BSL requires theta_1 = theta_4"),
        (lambda: _run_completion((0.1, 0.2, 0.3, 0.4)), "virtual completion of BSL requires theta_1 = theta_4"),
    ],
    ids=["noise_undefined_second", "noise_undefined_first", "completion_undefined",
         "noise_restriction", "completion_restriction"],
)
def test_gate_refusals_kept(run, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        run()


def test_zero_variance_refused_by_noise_compare(monkeypatch):
    # with no network at all, a p measurement on a network-side ancilla reads
    # its 160 dB squeezed quadrature
    _networks(monkeypatch, {"QRL": np.eye(12)})
    with pytest.raises(ValueError, match=re.escape(ZERO_VARIANCE)):
        noise_compare("QRL", (0.3, 0.0, -0.4, 0.9), "QRL", (0.3, 0.0, -0.4, 0.9), 160.0)


def test_zero_variance_refused_by_completion(monkeypatch):
    _networks(monkeypatch, {"BSL": np.eye(12), "cBSL": np.eye(12)})
    with pytest.raises(ValueError, match=re.escape(ZERO_VARIANCE)):
        virtual_completion_experiment("BSL", "cBSL", (0.3, 0.0, 1.1, 0.3), 160.0)


def test_zero_variance_in_second_gadget_only_refused_by_noise_compare(monkeypatch):
    _networks(monkeypatch, {"QRL": np.eye(12)})
    assert noise_compare("QRL", (0.3, 1.2, -0.4, 0.9), "QRL", (0.3, 1.2, -0.4, 0.9), 160.0) == 0.0
    with pytest.raises(ValueError, match=re.escape(ZERO_VARIANCE)):
        noise_compare("QRL", (0.3, 1.2, -0.4, 0.9), "QRL", (0.3, 0.0, -0.4, 0.9), 160.0)


def test_zero_variance_in_replay_only_refused_by_completion(monkeypatch):
    _networks(monkeypatch, {"BSL": _rotated_ancillas(), "cBSL": _rotated_ancillas()})
    virtual_completion_experiment("BSL", "cBSL", (0.3, 0.0, 1.1, 0.3), 160.0)
    _networks(monkeypatch, {"BSL": _rotated_ancillas(), "cBSL": np.eye(12)})
    with pytest.raises(ValueError, match=re.escape(ZERO_VARIANCE)):
        virtual_completion_experiment("BSL", "cBSL", (0.3, 0.0, 1.1, 0.3), 160.0)


def test_invalid_second_state_only_refused_by_noise_compare(monkeypatch):
    _networks(monkeypatch, {"cDBSL": 0.5 * np.eye(12)})
    with pytest.raises(ValueError, match=re.escape(SCALED_STATE)):
        noise_compare("QRL", GOOD, "cDBSL", (0.5, 1.2, -0.9, 0.5), 10.0)


def test_invalid_replay_state_only_refused_by_completion(monkeypatch):
    _networks(monkeypatch, {"cBSL": 0.5 * np.eye(12)})
    with pytest.raises(ValueError, match=re.escape(SCALED_STATE)):
        _run_completion(GOOD)


DB_REFUSALS = [
    (400.0, "covariance violates the uncertainty relation (not positive definite)"),
    (math.nan, "squeezing must be a finite, nonnegative dB value, got nan"),
    (math.inf, "squeezing must be a finite, nonnegative dB value, got inf"),
    (-1.0, "squeezing must be a finite, nonnegative dB value, got -1.0"),
    (4000.0, "squeezing of 4000.0 dB is beyond float range"),
]
DB_RUNS = {
    "simulate_gadget": lambda db: simulate_gadget("QRL", GOOD, db, outcomes=(0.0,) * 4),
    "simulate_gadget_sampled": lambda db: simulate_gadget("vcBSL", GOOD, db, seed=1),
    "noise_compare": lambda db: _run_noise("vcBSL", GOOD, db),
    "completion": lambda db: _run_completion(GOOD, db),
}


@pytest.mark.parametrize("db,message", DB_REFUSALS, ids=["400dB", "nan", "inf", "negative", "4000dB"])
@pytest.mark.parametrize("run", DB_RUNS.values(), ids=DB_RUNS.keys())
def test_squeezing_refusals_kept(run, db, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        run(db)


# -- the oracle ---------------------------------------------------------------


def reference_extracted_gate_matrix(architecture, angles, ancilla_db=60.0):
    """The input-to-output mean map at zero outcomes as four full gadget
    runs, each on a vacuum probe displaced by one unit vector."""
    columns = []
    for k in range(4):
        mean = np.zeros(4)
        mean[k] = 1.0
        probe = GaussianState(2, mean, 0.5 * np.eye(4))
        columns.append(simulate_gadget(architecture, angles, ancilla_db, probe, outcomes=(0.0,) * 4).output.mean)
    return np.column_stack(columns)


@given(st.sampled_from(GATE_NAMES), ANGLES, st.floats(20.0, 60.0))
@settings(max_examples=60, deadline=None)
def test_extracted_gate_matrix_equals_four_probe_runs(name, angles, db):
    angles = _restricted(name, angles)
    assert np.array_equal(extracted_gate_matrix(name, angles, db), reference_extracted_gate_matrix(name, angles, db))


ORACLE_REFUSALS = {
    "undefined_gate": ("QRL", (0.3, 0.3, 1.0, 2.0), 60.0),
    "400dB": ("QRL", GOOD, 400.0),
    "4000dB": ("QRL", GOOD, 4000.0),
    "nan_dB": ("QRL", GOOD, math.nan),
    "negative_dB": ("QRL", GOOD, -1.0),
    "nan_angle": ("QRL", (math.nan, 0.3, 1.0, 2.0), 60.0),
    "unknown_name": ("XYZ", GOOD, 60.0),
    "vc_restriction": ("vcBSL", (0.1, 0.2, 0.3, 0.4), 60.0),
    "three_angles": ("QRL", (0.8, -0.4, 1.1), 60.0),
}


@pytest.mark.parametrize("args", ORACLE_REFUSALS.values(), ids=ORACLE_REFUSALS.keys())
def test_oracle_refusals_kept(args):
    with pytest.raises(Exception) as expected:
        reference_extracted_gate_matrix(*args)
    with pytest.raises(expected.type) as refused:
        extracted_gate_matrix(*args)
    assert type(refused.value) is expected.type
    assert str(refused.value) == str(expected.value)
