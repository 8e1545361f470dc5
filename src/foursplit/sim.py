"""Gaussian simulation of the six-mode two-input teleportation gadget.

States are tracked as mean vectors and covariance matrices in the
quadrature ordering ``(q_1 .. q_n, p_1 .. p_n)`` with vacuum covariance
``I/2``.  The gadget couples two squeezed ancilla pairs to a four-mode
splitter network, homodynes the four network modes, and leaves the
teleported two-mode output on the ancilla partner modes.  A run builds the
six-mode state once, applies the couplers and the network as one symplectic
matrix, and conditions on all four outcomes in one step; states are
validated where they enter (the squeezed ancillas), after the network, and
at the output.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import gates, zoo
from .gates import SymplecticOp, TeleportedGate

SYMMETRY_TOL = 1e-10
#: Relative shortfall below 1/2 allowed in the least symplectic eigenvalue.
UNCERTAINTY_TOL = 1e-3
CONDITION_FLOOR = 1e-14


class GaussianState:
    """Zero-indexed internals, one-indexed mode arguments throughout.

    The state owns read-only copies of its mean and covariance, so neither
    the caller's arrays nor later writes can change it.
    """

    __slots__ = ("n_modes", "mean", "cov")

    def __init__(self, n_modes: int, mean: np.ndarray, cov: np.ndarray):
        mean = np.array(mean, dtype=float).reshape(2 * n_modes)
        cov = np.asarray(cov, dtype=float).reshape(2 * n_modes, 2 * n_modes)
        if n_modes:  # measuring out the last mode leaves a legitimate empty state
            if np.abs(cov - cov.T).max() > SYMMETRY_TOL * np.abs(cov).max(initial=1.0):
                raise ValueError("covariance matrix is not symmetric")
            _check_uncertainty(cov)
        self._freeze(n_modes, mean, 0.5 * (cov + cov.T))

    def _freeze(self, n_modes: int, mean: np.ndarray, cov: np.ndarray) -> None:
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "n_modes", n_modes)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GaussianState is immutable")

    def displaced(self, shift: np.ndarray) -> "GaussianState":
        """This state with its mean moved by ``shift``.

        A displacement leaves the covariance as it is, so the new state
        shares this one's read-only, already validated covariance.
        """
        out = object.__new__(GaussianState)
        out._freeze(self.n_modes, (self.mean + shift).reshape(2 * self.n_modes), self.cov)
        return out

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


def _check_uncertainty(cov: np.ndarray) -> None:
    """Raise unless every symplectic eigenvalue of cov is at least 1/2.

    With cov = L L^T, the symplectic eigenvalues are the moduli of the
    eigenvalues of i L^T Omega L.  The test is relative to 1/2 whatever the
    size of the entries, so strong squeezing neither loosens nor trips it.
    """
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValueError(
            "covariance violates the uncertainty relation (not positive definite)"
        ) from None
    n = cov.shape[0] // 2
    cross = chol[:n].T @ chol[n:]  # L^T Omega L = cross - cross^T
    least = np.abs(np.linalg.eigvalsh(1j * (cross - cross.T))).min()
    if not least >= 0.5 * (1.0 - UNCERTAINTY_TOL):
        raise ValueError(
            "covariance violates the uncertainty relation "
            f"(least symplectic eigenvalue {least:.6g} < 1/2)"
        )


def squeezed_vacuum(db: float, axis: str) -> GaussianState:
    """Single-mode squeezed vacuum with the squeezed-axis variance (1/2)*10^(-db/10)."""
    if not 0 <= db < math.inf:
        raise ValueError(f"squeezing must be a finite, nonnegative dB value, got {db}")
    if axis not in ("q", "p"):
        raise ValueError("axis must be 'q' or 'p'")
    try:
        loose = 0.5 * 10.0 ** (db / 10.0)
    except OverflowError:
        raise ValueError(f"squeezing of {db} dB is beyond float range") from None
    tight = 0.5 * 10.0 ** (-db / 10.0)
    cov = np.diag([tight, loose] if axis == "q" else [loose, tight])
    return GaussianState(1, np.zeros(2), cov)


def apply(op: SymplecticOp, state: GaussianState) -> GaussianState:
    if op.n_modes != state.n_modes:
        raise ValueError(f"operator acts on {op.n_modes} modes, state has {state.n_modes}")
    s = op.matrix
    return GaussianState(state.n_modes, s @ state.mean + op.shift, s @ state.cov @ s.T)


def homodyne(
    state: GaussianState,
    modes: Sequence[int],
    thetas: Sequence[float],
    outcomes: Sequence[float] | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[tuple[float, ...], GaussianState]:
    """Measure p_theta = q sin(theta) + p cos(theta) on several modes and remove them.

    The measured quadratures are the :func:`gates.quadrature_covector` rows;
    the remaining modes are conditioned on all of them in one Schur
    complement over their joint outcome marginal.  Passing ``outcomes``
    fixes the results, one per mode in the order of ``modes``; otherwise
    they are sampled from ``rng`` in that order through the Cholesky factor
    of the marginal, which draws what measuring the modes one at a time in
    that order would.
    """
    if len(thetas) != len(modes) or (outcomes is not None and len(outcomes) != len(modes)):
        raise ValueError("need one angle, and one outcome if fixed, per measured mode")
    measured = [i for mode in modes for i in state.mode_indices(mode)]
    if len(set(measured)) != len(measured):
        raise ValueError(f"measured modes {tuple(modes)} are not distinct")
    keep = [i for i in range(2 * state.n_modes) if i not in measured]
    rows = np.array([gates.quadrature_covector(state.n_modes, m, t) for m, t in zip(modes, thetas)])
    try:
        chol = np.linalg.cholesky(rows @ state.cov @ rows.T)
    except np.linalg.LinAlgError:
        chol = None
    # the squared pivots are the variances of each outcome given the earlier ones
    if chol is None or np.diag(chol).min() ** 2 <= CONDITION_FLOOR:
        raise ValueError("measured quadrature variance is numerically zero")
    expected = rows @ state.mean
    if outcomes is None:
        if rng is None:
            rng = np.random.default_rng()
        white = rng.standard_normal(len(modes))
        values = expected + chol @ white
    else:
        values = np.asarray(outcomes, dtype=float)
        white = np.linalg.solve(chol, values - expected)
    gain = np.linalg.solve(chol, rows @ state.cov[:, keep]).T
    mean = state.mean[keep] + gain @ white
    cov = state.cov[np.ix_(keep, keep)] - gain @ gain.T
    return tuple(values.tolist()), GaussianState(state.n_modes - len(modes), mean, cov)


# Gadget layout: inputs ride modes 1 and 3; ancilla pairs (2, 5) and (4, 6)
# are each coupled by one balanced splitter, leaving outputs on 5 and 6.
OUT_A, OUT_B = 5, 6
ANCILLA_PAIRS = ((2, OUT_A), (4, OUT_B))
#: Both ancilla couplers as one six-mode operator.
COUPLERS = gates.beam_splitter().embed(6, ANCILLA_PAIRS[0]) @ gates.beam_splitter().embed(
    6, ANCILLA_PAIRS[1]
)

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


@functools.cache
def _gadget_network(name: str) -> np.ndarray:
    """The two couplers, then layout ``name``'s network on modes 1-4, as one
    read-only 12x12 symplectic matrix, built once per physical layout."""
    net = (gates.architecture_op(name).embed(6, (1, 2, 3, 4)) @ COUPLERS).matrix
    net.setflags(write=False)
    return net


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
    The Gaussian correction, minus the gate's linear displacement rule
    ``D`` applied to the raw outcomes, is added to the output mean, so in
    the high-squeezing limit the output state is the teleported gate acting
    on the input regardless of the outcomes.  The couplers and the network
    act as one matrix, built once per physical layout.
    """
    gate = gates.two_mode_gate(architecture, angles)
    if outcomes is not None and len(outcomes) != 4:
        raise ValueError(f"need exactly four outcomes, got {len(outcomes)}")
    _, rule = gates.resolve_gate_architecture(architecture)
    if input_state is None:
        input_state = GaussianState.vacuum(2)
    if input_state.n_modes != 2:
        raise ValueError("gadget input must be a two-mode state")
    if orientation not in ORIENTATIONS:
        raise ValueError(f"unknown ancilla orientation {orientation!r}")
    net_axis, out_axis = ORIENTATIONS[orientation]

    n = 6
    inputs = [0, 2, n, n + 2]  # q1, q3, p1, p3
    mean = np.zeros(2 * n)
    mean[inputs] = input_state.mean
    cov = np.zeros((2 * n, 2 * n))
    cov[np.ix_(inputs, inputs)] = input_state.cov
    # network-side ancillas (2, 4) take net_axis, output-side ones (5, 6) out_axis
    for ancilla_modes, axis in zip(zip(*ANCILLA_PAIRS), (net_axis, out_axis)):
        q_var, p_var = np.diag(squeezed_vacuum(ancilla_db, axis).cov)
        for mode in ancilla_modes:
            cov[mode - 1, mode - 1], cov[n + mode - 1, n + mode - 1] = q_var, p_var
    # the network built in the lab: vc names run their incomplete base
    net = _gadget_network(architecture[2:] if architecture.startswith("vc") else architecture)
    state = GaussianState(n, net @ mean, net @ cov @ net.T)

    order = (4, 3, 2, 1)
    fixed = None if outcomes is None else [outcomes[m - 1] for m in order]
    measured, output = homodyne(
        state, order, [angles[m - 1] for m in order], fixed, np.random.default_rng(seed)
    )
    raw = measured[::-1]
    processed = list(raw) if rule is None else list(rule.transform_outcomes(raw))

    shift = gate.displacement(raw)
    output = output.displaced(-shift)
    return GadgetResult(
        architecture=architecture,
        angles=tuple(float(a) for a in angles),
        ancilla_db=float(ancilla_db),
        raw_outcomes=raw,
        processed_outcomes=tuple(processed),
        correction=tuple((-shift).tolist()),
        output=output,
        gate=gate,
    )


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
        flip = gates.double_fourier().embed(2, (2,)).matrix
        cov_b = flip @ cov_b @ flip.T
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


#: The virtual-completion claim: each kind-a layout, its completion and
#: angles respecting its equal-angle restriction.
COMPLETION_CASES: tuple[tuple[str, str, tuple[float, float, float, float]], ...] = (
    ("BSL", "cBSL", (0.8, -0.4, 1.1, 0.8)),
    ("DBSL", "cDBSL", (0.5, 1.2, -0.9, 0.5)),
    ("MSG", "cMSG", (1.0, 0.3, 0.3, -0.7)),
)
#: The kind-b layout that outcome rewiring cannot complete: the experiment
#: must refuse it even at equal angles.
REFUSED_COMPLETION: tuple[str, str, tuple[float, float, float, float]] = (
    "MBSL", "cMBSL", (0.5, 0.5, 0.5, 0.5),
)


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
    mean_v = virtual.output.mean - virtual.correction
    mean_c = replay.output.mean - replay.correction
    return CompletionExperiment(
        incomplete=incomplete,
        completed=completed,
        angles=tuple(float(a) for a in angles),
        ancilla_db=float(ancilla_db),
        mean_deviation=float(np.abs(mean_v - mean_c).max()),
        cov_deviation=float(np.abs(virtual.output.cov - replay.output.cov).max()),
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
