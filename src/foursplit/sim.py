"""Gaussian simulation of the six-mode two-input teleportation gadget.

States are tracked as mean vectors and covariance matrices in the
quadrature ordering ``(q_1 .. q_n, p_1 .. p_n)`` with vacuum covariance
``I/2``.  The gadget couples two squeezed ancilla pairs to a four-mode
splitter network, homodynes the four network modes, and leaves the
teleported two-mode output on the ancilla partner modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import gates, zoo
from .gates import SymplecticOp, TeleportedGate, omega

SYMMETRY_TOL = 1e-10
UNCERTAINTY_TOL = 1e-10
CONDITION_FLOOR = 1e-14


class GaussianState:
    """Zero-indexed internals, one-indexed mode arguments throughout."""

    __slots__ = ("n_modes", "mean", "cov", "_scale")

    def __init__(self, n_modes: int, mean: np.ndarray, cov: np.ndarray, *, _scale: float = 1.0):
        # internal _scale: the largest magnitude a derived state passed through
        mean = np.asarray(mean, dtype=float).reshape(2 * n_modes)
        cov = np.asarray(cov, dtype=float).reshape(2 * n_modes, 2 * n_modes)
        scale = max(_scale, float(np.abs(cov).max(initial=1.0)))
        if n_modes:  # measuring out the last mode leaves a legitimate empty state
            if np.abs(cov - cov.T).max() > SYMMETRY_TOL * scale:
                raise ValueError("covariance matrix is not symmetric")
            herm = cov + 0.5j * omega(n_modes)
            least = np.linalg.eigvalsh(herm).min()
            # Tolerance scales with the magnitudes passed through: entries of order
            # 1e6 leave eigenvalue noise that conditioning to small entries keeps.
            if least < -UNCERTAINTY_TOL * scale:
                raise ValueError(
                    f"covariance violates the uncertainty relation (eig {least:.3e})"
                )
        object.__setattr__(self, "n_modes", n_modes)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", 0.5 * (cov + cov.T))
        object.__setattr__(self, "_scale", scale)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GaussianState is immutable")

    @staticmethod
    def vacuum(n_modes: int) -> "GaussianState":
        return GaussianState(n_modes, np.zeros(2 * n_modes), 0.5 * np.eye(2 * n_modes))

    def purity_det(self) -> float:
        """det(2 cov); equals 1 for pure states."""
        return float(np.linalg.det(2.0 * self.cov))

    def mode_indices(self, mode: int) -> tuple[int, int]:
        if not 1 <= mode <= self.n_modes:
            raise ValueError(f"mode {mode} out of range for {self.n_modes} modes")
        return mode - 1, self.n_modes + mode - 1


def squeezed_vacuum(db: float, axis: str) -> GaussianState:
    """Single-mode squeezed vacuum with the squeezed-axis variance (1/2)*10^(-db/10)."""
    if db < 0:
        raise ValueError("squeezing must be given as a nonnegative dB value")
    if axis not in ("q", "p"):
        raise ValueError("axis must be 'q' or 'p'")
    tight = 0.5 * 10.0 ** (-db / 10.0)
    loose = 0.5 * 10.0 ** (db / 10.0)
    cov = np.diag([tight, loose] if axis == "q" else [loose, tight])
    return GaussianState(1, np.zeros(2), cov)


def apply(op: SymplecticOp, state: GaussianState) -> GaussianState:
    if op.n_modes != state.n_modes:
        raise ValueError(f"operator acts on {op.n_modes} modes, state has {state.n_modes}")
    s = op.matrix
    # rounding in S C S^T grows with |S|_2^2 = max eig(S^T S) (Higham, Accuracy and Stability)
    scale = state._scale * np.linalg.eigvalsh(s.T @ s)[-1]
    mean, cov = s @ state.mean + op.shift, s @ state.cov @ s.T
    return GaussianState(state.n_modes, mean, cov, _scale=scale)


def homodyne(
    state: GaussianState,
    mode: int,
    theta: float,
    outcome: float | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[float, GaussianState]:
    """Measure p_theta = q sin(theta) + p cos(theta) on a mode and remove it.

    Rotating the mode by R(theta) maps p_theta onto the plain p quadrature,
    which is then conditioned on via the Schur complement.  Passing
    ``outcome`` fixes the result; otherwise it is sampled from ``rng``.
    """
    rotated = apply(gates.rotation(theta).embed(state.n_modes, (mode,)), state)
    qi, pi = rotated.mode_indices(mode)
    var = rotated.cov[pi, pi]
    if var <= CONDITION_FLOOR:
        raise ValueError("measured quadrature variance is numerically zero")
    if outcome is None:
        if rng is None:
            rng = np.random.default_rng()
        outcome = float(rng.normal(rotated.mean[pi], np.sqrt(var)))
    keep = [i for i in range(2 * state.n_modes) if i not in (qi, pi)]
    cross = rotated.cov[keep, pi]
    mean = rotated.mean[keep] + cross * (outcome - rotated.mean[pi]) / var
    cov = rotated.cov[np.ix_(keep, keep)] - np.outer(cross, cross) / var
    return outcome, GaussianState(state.n_modes - 1, mean, cov, _scale=rotated._scale)


def _place(
    target_mean: np.ndarray,
    target_cov: np.ndarray,
    n_total: int,
    modes: Sequence[int],
    part: GaussianState,
) -> None:
    idx = [m - 1 for m in modes] + [n_total + m - 1 for m in modes]
    target_mean[idx] = part.mean
    target_cov[np.ix_(idx, idx)] = part.cov


# Gadget layout: inputs ride modes 1 and 3; ancilla pairs (2, 5) and (4, 6)
# are each coupled by one balanced splitter, leaving outputs on 5 and 6.
OUT_A, OUT_B = 5, 6
ANCILLA_PAIRS = ((2, OUT_A), (4, OUT_B))

# Squeezing axes (network-side mode, output-side mode).  Identical axes on
# both halves commute with the real coupler and yield an uncorrelated
# product instead of a two-mode squeezed pair, so the axes must differ; the
# p-then-q order is the one that teleports the identity at identity angles.
ORIENTATIONS = {"qp": ("q", "p"), "pq": ("p", "q")}
DEFAULT_ORIENTATION = "pq"


@dataclass(frozen=True)
class GadgetResult:
    architecture: str
    angles: tuple[float, float, float, float]
    ancilla_db: float
    raw_outcomes: tuple[float, float, float, float]
    processed_outcomes: tuple[float, float, float, float]
    correction: tuple[float, float, float, float]
    output: GaussianState
    gate: TeleportedGate

    def to_json_dict(self) -> dict:
        return {
            "architecture": self.architecture,
            "angles": list(self.angles),
            "ancilla_db": self.ancilla_db,
            "raw_outcomes": list(self.raw_outcomes),
            "processed_outcomes": list(self.processed_outcomes),
            "correction": list(self.correction),
            "output_mean": np.round(self.output.mean, 12).tolist(),
            "output_cov": np.round(self.output.cov, 12).tolist(),
        }


def _physical_network(name: str) -> zoo.Architecture:
    """Network actually built in the lab: vc names run their incomplete base."""
    if name.startswith("vc"):
        return zoo.architecture(name[2:])
    return zoo.architecture(name)


def simulate_gadget(
    architecture: str,
    angles: Sequence[float],
    ancilla_db: float,
    input_state: GaussianState | None = None,
    outcomes: Sequence[float] | None = None,
    seed: int | None = None,
    orientation: str = DEFAULT_ORIENTATION,
) -> GadgetResult:
    """Run the six-mode gadget end to end and return the conditioned output.

    ``outcomes`` fixes the four homodyne results (network-mode order);
    ``None`` samples them from the measurement statistics using ``seed``.
    The Gaussian correction displacement is applied to the output, so in
    the high-squeezing limit the output state is the teleported gate acting
    on the input regardless of the outcomes.
    """
    gate = gates.two_mode_gate(architecture, angles)
    _, rule = gates.resolve_gate_architecture(architecture)
    physical = _physical_network(architecture)
    if input_state is None:
        input_state = GaussianState.vacuum(2)
    if input_state.n_modes != 2:
        raise ValueError("gadget input must be a two-mode state")
    if orientation not in ORIENTATIONS:
        raise ValueError(f"unknown ancilla orientation {orientation!r}")
    net_axis, out_axis = ORIENTATIONS[orientation]

    n = 6
    mean = np.zeros(2 * n)
    cov = np.zeros((2 * n, 2 * n))
    _place(mean, cov, n, (1, 3), input_state)
    for net_mode, out_mode in ANCILLA_PAIRS:
        _place(mean, cov, n, (net_mode,), squeezed_vacuum(ancilla_db, net_axis))
        _place(mean, cov, n, (out_mode,), squeezed_vacuum(ancilla_db, out_axis))
    state = GaussianState(n, mean, cov)

    for net_mode, out_mode in ANCILLA_PAIRS:
        state = apply(gates.beam_splitter().embed(n, (net_mode, out_mode)), state)
    state = apply(gates.network_op(physical.network()).embed(n, (1, 2, 3, 4)), state)

    rng = np.random.default_rng(seed)
    raw: list[float] = [0.0, 0.0, 0.0, 0.0]
    for mode in (4, 3, 2, 1):
        fixed = None if outcomes is None else float(outcomes[mode - 1])
        m, state = homodyne(state, mode, float(angles[mode - 1]), fixed, rng)
        raw[mode - 1] = m

    processed = list(raw) if rule is None else list(rule.transform_outcomes(raw))

    shift = gate.displacement(raw)
    state = apply(SymplecticOp(np.eye(4), -shift), state)
    return GadgetResult(
        architecture=architecture,
        angles=tuple(float(a) for a in angles),
        ancilla_db=float(ancilla_db),
        raw_outcomes=tuple(raw),
        processed_outcomes=tuple(processed),
        correction=tuple((-shift).tolist()),
        output=state,
        gate=gate,
    )


def _parity_aligned(cov: np.ndarray) -> np.ndarray:
    flip = np.diag([1.0, -1.0, 1.0, -1.0])
    return flip @ cov @ flip


def noise_compare(
    arch_a: str,
    angles_a: Sequence[float],
    arch_b: str,
    angles_b: Sequence[float],
    ancilla_db: float,
    input_state: GaussianState | None = None,
) -> float:
    """Max covariance deviation between two gadgets on the same input.

    When exactly one of the two gates carries the output parity, the second
    output mode of that covariance is sign-conjugated before comparing.
    """
    res_a = simulate_gadget(arch_a, angles_a, ancilla_db, input_state, outcomes=(0.0,) * 4)
    res_b = simulate_gadget(arch_b, angles_b, ancilla_db, input_state, outcomes=(0.0,) * 4)
    cov_a, cov_b = res_a.output.cov, res_b.output.cov
    parity_a = gates.resolve_gate_architecture(arch_a)[0].parity_on_output
    parity_b = gates.resolve_gate_architecture(arch_b)[0].parity_on_output
    if parity_a != parity_b:
        cov_b = _parity_aligned(cov_b)
    return float(np.abs(cov_a - cov_b).max())


@dataclass(frozen=True)
class CompletionExperiment:
    incomplete: str
    completed: str
    angles: tuple[float, float, float, float]
    ancilla_db: float
    mean_deviation: float
    cov_deviation: float

    def to_json_dict(self) -> dict:
        return {
            "incomplete": self.incomplete,
            "completed": self.completed,
            "angles": list(self.angles),
            "ancilla_db": self.ancilla_db,
            "mean_deviation": self.mean_deviation,
            "cov_deviation": self.cov_deviation,
        }


def virtual_completion_experiment(
    incomplete: str,
    completed: str,
    angles: Sequence[float],
    ancilla_db: float,
    seed: int = 0,
    input_state: GaussianState | None = None,
) -> CompletionExperiment:
    """Sample the incomplete gadget, replay the completed one on the
    post-processed outcomes, and compare the conditional outputs.

    The comparison is made on the uncorrected conditional states: outcome
    post-processing alone must make the two networks indistinguishable.
    """
    rule = zoo.virtual_completion(incomplete)
    if rule.completed != completed:
        raise ValueError(f"{incomplete} virtually completes to {rule.completed}, not {completed}")
    rule.check_angles(angles)
    if input_state is None:
        rng = np.random.default_rng(seed)
        mean = rng.normal(0.0, 1.0, 4)
        input_state = GaussianState(2, mean, 0.5 * np.eye(4))

    virtual = simulate_gadget("vc" + incomplete, angles, ancilla_db, input_state, seed=seed)
    replay = simulate_gadget(completed, angles, ancilla_db, input_state, outcomes=virtual.processed_outcomes)

    # Undo the correction on both sides: it is outcome-convention specific.
    out_v = apply(SymplecticOp(np.eye(4), -np.asarray(virtual.correction)), virtual.output)
    out_c = apply(SymplecticOp(np.eye(4), -np.asarray(replay.correction)), replay.output)
    return CompletionExperiment(
        incomplete=incomplete,
        completed=completed,
        angles=tuple(float(a) for a in angles),
        ancilla_db=float(ancilla_db),
        mean_deviation=float(np.abs(out_v.mean - out_c.mean).max()),
        cov_deviation=float(np.abs(out_v.cov - out_c.cov).max()),
    )


def extracted_gate_matrix(
    architecture: str,
    angles: Sequence[float],
    ancilla_db: float = 60.0,
) -> np.ndarray:
    """Linear input-to-output mean map of the gadget at zero outcomes.

    In the high-squeezing limit this reproduces the teleported gate's
    symplectic matrix column by column.
    """
    columns = []
    for k in range(4):
        mean = np.zeros(4)
        mean[k] = 1.0
        probe = GaussianState(2, mean, 0.5 * np.eye(4))
        res = simulate_gadget(architecture, angles, ancilla_db, probe, outcomes=(0.0,) * 4)
        columns.append(res.output.mean)
    return np.column_stack(columns)
