"""Gaussian simulation of the six-mode two-input teleportation gadget.

States are tracked as mean vectors and covariance matrices in the
quadrature ordering ``(q_1 .. q_n, p_1 .. p_n)`` with vacuum covariance
``I/2``.  The gadget couples two squeezed ancilla pairs to a four-mode
splitter network, homodynes the four network modes, and leaves the
teleported two-mode output on the ancilla partner modes.  A run builds the
six-mode mean and covariance as arrays, applies the couplers and the
network as one symplectic matrix, and conditions on all four outcomes in
one step.  Unitaries are linear (:func:`apply` maps a mean by S alone).
Each run reads its lab network and outcome rewiring off its gate's
``lab_layout``, its output parity off ``layout`` and its correction off
``gate.D``; each check builds each of its gates once.

Every conditioning, of :func:`homodyne`, of a gadget run and of all the
gadgets that :func:`noise_deviations` and :func:`completion_experiments`
compare, goes through one batched kernel, ``_condition``.  It validates
each covariance it is given (the state before the measurement) and each
conditional covariance it returns, as :class:`GaussianState` validates
one; the states it hands out are built from those without a second check.
The ancilla variances come from the squeezing in closed form, under the
same input checks as :func:`squeezed_vacuum`.  Past ~65 dB, float64
rounding can make a gadget covariance fail its validation; the error then
names the squeezing level and the rounding.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import gates
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
        self._freeze(n_modes, mean, _checked(cov))

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
        return _state(self.n_modes, (self.mean + shift).reshape(2 * self.n_modes), self.cov)

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


def _state(n_modes: int, mean: np.ndarray, cov: np.ndarray) -> GaussianState:
    """A state on arrays that are already validated: no check, no copy."""
    out = object.__new__(GaussianState)
    out._freeze(n_modes, mean, cov)
    return out


def _swap(a: np.ndarray) -> np.ndarray:
    """Transpose of a matrix or of each matrix in a stack."""
    return a.swapaxes(-1, -2)


def _checked(cov: np.ndarray) -> np.ndarray:
    """Symmetrised copy of a covariance, or of each in a stack, after
    checking that each is symmetric and meets the uncertainty relation."""
    if not cov.shape[-1]:  # measuring out the last mode leaves a legitimate empty state
        return cov.copy()
    scale = np.abs(cov).max(axis=(-2, -1), initial=1.0)
    if (np.abs(cov - _swap(cov)).max(axis=(-2, -1)) > SYMMETRY_TOL * scale).any():
        raise ValueError("covariance matrix is not symmetric")
    _check_uncertainty(cov)
    return 0.5 * (cov + _swap(cov))


def _check_uncertainty(cov: np.ndarray) -> None:
    """Raise unless every symplectic eigenvalue of cov, or of each
    covariance in a stack, is at least 1/2.

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
    n = cov.shape[-1] // 2
    cross = _swap(chol[..., :n, :]) @ chol[..., n:, :]  # L^T Omega L = cross - cross^T
    least = np.abs(np.linalg.eigvalsh(1j * (cross - _swap(cross)))).min(axis=-1)
    violated = ~(least >= 0.5 * (1.0 - UNCERTAINTY_TOL))
    if violated.any():
        raise ValueError(
            "covariance violates the uncertainty relation "
            f"(least symplectic eigenvalue {least[violated][0]:.6g} < 1/2)"
        )


def _squeezed_variances(db: float) -> tuple[float, float]:
    """The (squeezed, anti-squeezed) quadrature variances (1/2)*10^(-+db/10)."""
    if not 0 <= db < math.inf:
        raise ValueError(f"squeezing must be a finite, nonnegative dB value, got {db}")
    try:
        loose = 0.5 * 10.0 ** (db / 10.0)
    except OverflowError:
        raise ValueError(f"squeezing of {db} dB is beyond float range") from None
    return 0.5 * 10.0 ** (-db / 10.0), loose


def squeezed_vacuum(db: float, axis: str) -> GaussianState:
    """Single-mode squeezed vacuum with the squeezed-axis variance (1/2)*10^(-db/10)."""
    tight, loose = _squeezed_variances(db)
    if axis not in ("q", "p"):
        raise ValueError("axis must be 'q' or 'p'")
    cov = np.diag([tight, loose] if axis == "q" else [loose, tight])
    return GaussianState(1, np.zeros(2), cov)


def apply(op: SymplecticOp, state: GaussianState) -> GaussianState:
    """The state after the linear unitary ``op``: mean S x, covariance S V S^T."""
    if op.n_modes != state.n_modes:
        raise ValueError(f"operator acts on {op.n_modes} modes, state has {state.n_modes}")
    s = op.matrix
    return GaussianState(state.n_modes, s @ state.mean, s @ state.cov @ s.T)


def _condition(
    covs: np.ndarray, rows: np.ndarray, keep: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Condition a stack of states on their measured quadratures, each in
    one Schur complement over its joint outcome marginal.

    ``covs`` is a (B, N, N) stack of covariances, ``rows`` the (B, M, N)
    measured covectors and ``keep`` the N - M quadratures that remain.
    Each covariance, and each conditional covariance, is validated as
    :class:`GaussianState` validates one.  Returns the (B, M, M) Cholesky
    factors L of the outcome marginals, the (B, K, M) gains G and the
    (B, K, K) symmetrised conditional covariances.  Outcomes x with
    expectation e = rows @ mean move the remaining mean by G L^-1 (x - e);
    the conditional covariance does not depend on them.  When several
    elements are invalid, the first one's error is raised, as conditioning
    them one at a time would.
    """
    try:
        return _condition_stack(covs, rows, keep)
    except ValueError as err:
        error = err
    for k in range(len(covs) - 1):
        _condition_stack(covs[k : k + 1], rows[k : k + 1], keep)
    raise error


def _condition_stack(
    covs: np.ndarray, rows: np.ndarray, keep: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_condition` on the whole stack at once."""
    covs = _checked(covs)
    try:
        chol = np.linalg.cholesky(rows @ covs @ _swap(rows))
    except np.linalg.LinAlgError:
        chol = None
    # the squared pivots are the variances of each outcome given the earlier ones
    if chol is None or np.diagonal(chol, axis1=-2, axis2=-1).min() ** 2 <= CONDITION_FLOOR:
        raise ValueError("measured quadrature variance is numerically zero")
    gain = _swap(np.linalg.solve(chol, rows @ covs[:, :, keep]))
    cond = covs[:, keep][:, :, keep] - gain @ _swap(gain)
    return chol, gain, _checked(cond)


def _outcomes(
    chol: np.ndarray,
    expected: np.ndarray,
    fixed: Sequence[float] | None,
    rng: np.random.Generator | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Outcome values and their whitened form L^-1 (values - expected).

    Fixed values are whitened; otherwise white noise is drawn from ``rng``,
    one standard normal per outcome in order, and coloured by L, which
    draws what measuring the quadratures one at a time in that order would.
    """
    if fixed is None:
        if rng is None:
            rng = np.random.default_rng()
        white = rng.standard_normal(len(expected))
        return expected + chol @ white, white
    values = np.asarray(fixed, dtype=float)
    return values, np.linalg.solve(chol, values - expected)


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
    (chol,), (gain,), (cov,) = _condition(state.cov[None], rows[None], keep)
    values, white = _outcomes(chol, rows @ state.mean, outcomes, rng)
    mean = state.mean[keep] + gain @ white
    return tuple(values.tolist()), _state(state.n_modes - len(modes), mean, cov)


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

_N = 6
#: The network modes in the order they are measured, and so sampled.
_MEASURED = (4, 3, 2, 1)
#: The quadratures (q1, q3, p1, p3) that carry the two-mode input.
_INPUTS = np.array([0, 2, _N, _N + 2])
_INPUT_BLOCK = np.ix_(_INPUTS, _INPUTS)
#: The quadratures (q5, q6, p5, p6) left after the measurement.
_OUTPUTS = np.array([OUT_A - 1, OUT_B - 1, _N + OUT_A - 1, _N + OUT_B - 1])


def _ancilla_masks(orientation: str) -> tuple[np.ndarray, np.ndarray]:
    """Indicators of the squeezed and of the anti-squeezed ancilla
    quadratures on the six-mode diagonal: network-side ancillas (2, 4) take
    the orientation's first axis, output-side ones (5, 6) its second."""
    tight, loose = np.zeros(2 * _N), np.zeros(2 * _N)
    for ancilla_modes, axis in zip(zip(*ANCILLA_PAIRS), ORIENTATIONS[orientation]):
        for mode in ancilla_modes:
            q, p = mode - 1, _N + mode - 1
            tight[q if axis == "q" else p] = loose[p if axis == "q" else q] = 1.0
    return tight, loose


_ANCILLA_MASKS = {orientation: _ancilla_masks(orientation) for orientation in ORIENTATIONS}
#: The default gadget input.
_VACUUM_INPUT = GaussianState.vacuum(2)
#: The parity (q, p) -> (-q, -p) on output mode 2, as a read-only matrix.
_PARITY_FLIP = gates.double_fourier().embed(2, (2,)).matrix
_PARITY_FLIP.setflags(write=False)


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
def _gadget_network(layout: gates.zoo.Architecture) -> np.ndarray:
    """The two couplers, then registry entry ``layout``'s network on modes
    1-4, as one read-only 12x12 symplectic matrix, built once per entry."""
    net = (gates.network_op(layout.network()).embed(6, (1, 2, 3, 4)) @ COUPLERS).matrix
    net.setflags(write=False)
    return net


def _prepare(
    gate: TeleportedGate,
    ancilla_db: float,
    input_state: GaussianState | None,
    orientation: str = DEFAULT_ORIENTATION,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check the input, orientation and squeezing of a run of ``gate``'s
    gadget; return its post-network mean and covariance (not yet validated)
    and its four measured covectors, in measurement order."""
    if input_state is None:
        input_state = _VACUUM_INPUT
    if input_state.n_modes != 2:
        raise ValueError("gadget input must be a two-mode state")
    if orientation not in ORIENTATIONS:
        raise ValueError(f"unknown ancilla orientation {orientation!r}")
    tight, loose = _squeezed_variances(ancilla_db)
    tight_mask, loose_mask = _ANCILLA_MASKS[orientation]
    mean = np.zeros(2 * _N)
    mean[_INPUTS] = input_state.mean
    cov = np.diag(tight * tight_mask + loose * loose_mask)
    cov[_INPUT_BLOCK] = input_state.cov
    net = _gadget_network(gate.lab_layout)
    rows = np.zeros((4, 2 * _N))
    for i, mode in enumerate(_MEASURED):
        rows[i, mode - 1] = math.sin(gate.angles[mode - 1])
        rows[i, _N + mode - 1] = math.cos(gate.angles[mode - 1])
    return net @ mean, net @ cov @ net.T, rows


def _condition_gadgets(
    runs: Sequence[TeleportedGate], covs: np.ndarray, rows: np.ndarray, ancilla_db: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_condition` of the prepared gadgets of ``runs``.  Behind symplectic
    networks each covariance is a symplectic image of validated states, so an
    uncertainty violation is float64 rounding: the error says so."""
    try:
        return _condition(covs, rows, _OUTPUTS)
    except ValueError as err:
        nets = (SymplecticOp(_gadget_network(gate.lab_layout)) for gate in runs)
        if "uncertainty" not in str(err) or not all(net.is_symplectic() for net in nets):
            raise
        raise ValueError(
            f"{err}: float64 rounding at {ancilla_db:g} dB of ancilla squeezing; the exact state is valid"
        ) from None


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
    act as one matrix, built once per registry entry.
    """
    gate = gates.two_mode_gate(architecture, angles)
    if outcomes is not None and len(outcomes) != 4:
        raise ValueError(f"need exactly four outcomes, got {len(outcomes)}")
    return _run_gadget(gate, ancilla_db, input_state, outcomes, seed, orientation)


def _run_gadget(
    gate: TeleportedGate,
    ancilla_db: float,
    input_state: GaussianState | None,
    outcomes: Sequence[float] | None,
    seed: int | None,
    orientation: str = DEFAULT_ORIENTATION,
) -> GadgetResult:
    """:func:`simulate_gadget` on a gate already built for its architecture
    and angles, with ``outcomes`` None or four long."""
    mean, cov, rows = _prepare(gate, ancilla_db, input_state, orientation)
    (chol,), (gain,), (out_cov,) = _condition_gadgets([gate], cov[None], rows[None], ancilla_db)
    if outcomes is None:
        values, white = _outcomes(chol, rows @ mean, None, np.random.default_rng(seed))
    else:
        values, white = _outcomes(chol, rows @ mean, [outcomes[m - 1] for m in _MEASURED], None)
    raw = tuple(values.tolist())[::-1]
    processed = gate.lab_layout.transform_outcomes(raw)
    shift = gate.displacement(raw)
    return GadgetResult(
        architecture=gate.architecture,
        angles=gate.angles,
        ancilla_db=float(ancilla_db),
        raw_outcomes=raw,
        processed_outcomes=processed,
        correction=tuple((-shift).tolist()),
        output=_state(2, mean[_OUTPUTS] + gain @ white - shift, out_cov),
        gate=gate,
    )


def noise_deviations(
    pairs: Sequence[tuple[str, Sequence[float], str, Sequence[float]]],
    ancilla_db: float,
    input_state: GaussianState | None = None,
) -> list[float]:
    """Max covariance deviation between the two gadgets of each pair
    (arch_a, angles_a, arch_b, angles_b) on the same input, all conditioned
    in one batched step.  The output covariance does not depend on the
    outcomes, so none is drawn.  When exactly one gate of a pair carries the
    output parity, its second output mode is sign-conjugated before comparing.
    Every gadget is built and prepared, in order, before any is conditioned;
    of conditioning errors, the first gadget's is raised.
    """
    if not pairs:
        return []
    built, prepared = [], []
    for arch_a, angles_a, arch_b, angles_b in pairs:
        for arch, angles in ((arch_a, angles_a), (arch_b, angles_b)):
            built.append(gates.two_mode_gate(arch, angles))
            prepared.append(_prepare(built[-1], ancilla_db, input_state))
    _, befores, rows = zip(*prepared)
    _, _, conds = _condition_gadgets(built, np.stack(befores), np.stack(rows), ancilla_db)
    deviations = []
    for gate_a, gate_b, cov_a, cov_b in zip(built[0::2], built[1::2], conds[0::2], conds[1::2]):
        if gate_a.layout.parity_on_output != gate_b.layout.parity_on_output:
            cov_b = _PARITY_FLIP @ cov_b @ _PARITY_FLIP.T
        deviations.append(float(np.abs(cov_a - cov_b).max()))
    return deviations


def noise_compare(
    arch_a: str,
    angles_a: Sequence[float],
    arch_b: str,
    angles_b: Sequence[float],
    ancilla_db: float,
    input_state: GaussianState | None = None,
) -> float:
    """:func:`noise_deviations` of one pair of gadgets."""
    pair = (arch_a, angles_a, arch_b, angles_b)
    return noise_deviations([pair], ancilla_db, input_state)[0]


@dataclass(frozen=True)
class CompletionExperiment:
    incomplete: str
    completed: str
    angles: tuple[float, float, float, float]
    ancilla_db: float
    mean_deviation: float
    cov_deviation: float

    def to_json_dict(self) -> dict:
        return {**dataclasses.asdict(self), "angles": list(self.angles)}


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


def completion_experiments(
    cases: Sequence[tuple[str, str, Sequence[float]]],
    ancilla_db: float,
    seed: int = 0,
    input_state: GaussianState | None = None,
) -> list[CompletionExperiment]:
    """For each (incomplete, completed, angles) case, sample the incomplete
    gadget, replay the completed one on the post-processed outcomes, and
    compare the uncorrected conditional outputs: outcome post-processing
    alone must make the two networks indistinguishable.  The gadgets of all
    cases are conditioned in one batched step, after every case is checked
    and prepared in order; each case draws from its own seeded streams, as
    it does alone, and its replay's mean follows from those outcomes.  The
    outcomes are drawn from ``default_rng(seed)``, as
    :func:`simulate_gadget` draws them, and the default input mean from the
    independent ``default_rng((seed, 1))``.
    """
    if not cases:
        return []
    if input_state is None:  # vacuum noise around a mean from a stream of its own
        input_state = _VACUUM_INPUT.displaced(np.random.default_rng((seed, 1)).normal(0.0, 1.0, 4))
    runs = []  # (gate, mean, covariance, covectors): each virtual run, then its replay
    for incomplete, completed, angles in cases:
        virtual = gates.two_mode_gate("vc" + incomplete, angles)
        if virtual.layout.name != completed:
            raise ValueError(f"{incomplete} virtually completes to {virtual.layout.name}, not {completed}")
        for gate in (virtual, gates.two_mode_gate(completed, angles)):
            runs.append((gate, *_prepare(gate, ancilla_db, input_state)))
    gadgets, _, covs, rows = zip(*runs)
    chol, gain, cond = _condition_gadgets(gadgets, np.stack(covs), np.stack(rows), ancilla_db)
    experiments = []
    for (incomplete, completed, _), v in zip(cases, range(0, len(runs), 2)):
        (virtual, mean_v, _, rows_v), (_, mean_c, _, rows_c) = runs[v : v + 2]
        values, white_v = _outcomes(chol[v], rows_v @ mean_v, None, np.random.default_rng(seed))
        processed = virtual.lab_layout.transform_outcomes(tuple(values.tolist())[::-1])
        replayed = [processed[m - 1] for m in _MEASURED]
        _, white_c = _outcomes(chol[v + 1], rows_c @ mean_c, replayed, None)
        out_v = mean_v[_OUTPUTS] + gain[v] @ white_v
        out_c = mean_c[_OUTPUTS] + gain[v + 1] @ white_c
        mean_dev = float(np.abs(out_v - out_c).max())
        cov_dev = float(np.abs(cond[v] - cond[v + 1]).max())
        experiments.append(
            CompletionExperiment(incomplete, completed, virtual.angles, float(ancilla_db), mean_dev, cov_dev)
        )
    return experiments


def virtual_completion_experiment(
    incomplete: str,
    completed: str,
    angles: Sequence[float],
    ancilla_db: float,
    seed: int = 0,
    input_state: GaussianState | None = None,
) -> CompletionExperiment:
    """:func:`completion_experiments` of one case."""
    case = (incomplete, completed, angles)
    (experiment,) = completion_experiments([case], ancilla_db, seed, input_state)
    return experiment


def extracted_gate_matrix(
    architecture: str,
    angles: Sequence[float],
    ancilla_db: float = 60.0,
) -> np.ndarray:
    """Linear input-to-output mean map of the gadget at zero outcomes.

    In the high-squeezing limit this reproduces the teleported gate's
    symplectic matrix column by column.  The gate is built, and its
    refusals raised, once; column k is the output mean of one gadget run
    on the vacuum input displaced by the k-th unit vector.  That probe
    shares the module's validated vacuum covariance; each run validates
    its own post-network and conditional covariances.
    """
    gate = gates.two_mode_gate(architecture, angles)
    columns = [
        _run_gadget(gate, ancilla_db, _VACUUM_INPUT.displaced(unit), (0.0,) * 4, None).output.mean
        for unit in np.eye(4)
    ]
    return np.column_stack(columns)
