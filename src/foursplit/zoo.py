"""Registry of the named four-mode cluster-state architectures.

Nine architectures are tracked: the four-splitter reference network (QRL) and
four families that either already realize a balanced four-splitter or miss it
by one splitter.  Incomplete architectures come in two kinds, recognizable
from the matrix alone: kind "a" has two rows carrying the pattern (two zeros,
two entries of magnitude 1/sqrt(2))) and can be completed on the measurement
side, physically or virtually; kind "b" carries the pattern in columns and
admits no measurement-side completion.

All matrix work here is exact; nothing in this module touches floating point
except the virtual-completion angle scan, which is a numerical non-existence
sweep by construction.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from itertools import permutations, product
from typing import Sequence

import numpy as np

from .exact import (
    HALF,
    INV_SQRT2,
    ExactMatrix,
    ExactScalar,
    beam_splitter_matrix,
    negation_matrix,
    permutation_matrix,
    swap_matrix,
)
from .hadamard import _signed_row_perms
from .networks import BsNetwork, Pair, is_balanced_foursplitter

SQRT2_INV = 2 ** -0.5

#: Largest grid of the no-virtual-completion scan, per angle: 20**4 = 160,000
#: grid points, whose 4x4 complex conjugates take about 44 MB per array
#: (a run at the cap peaks under 200 MB).
MAX_GRID_POINTS = 20


@dataclass(frozen=True)
class Completion:
    """How a completed architecture extends its incomplete base."""

    base: str
    splitter: Pair
    side: str  # "measurement": appended last; "state": prepended first


@dataclass(frozen=True)
class Architecture:
    """A named splitter sequence plus its relations to the other entries.

    ``gate_slots`` orders the measurement angles so the architecture's
    teleported two-mode gate reads as the reference (QRL) gadget: slot k holds
    (angle index, outcome sign).  ``parity_on_output`` marks gates carrying an
    extra double Fourier (sign flip) on the second output mode.
    """

    name: str
    sequence: tuple[Pair, ...]
    completion: Completion | None = None
    completed_by: str | None = None
    virtual_pair: Pair | None = None
    gate_slots: tuple[tuple[int, int], ...] | None = None
    parity_on_output: bool = False

    @property
    def declared_kind(self) -> str:
        """The kind the registry fields encode: 'complete' with gate slots,
        'a' with a virtual pair, otherwise 'b'."""
        if self.gate_slots is not None:
            return "complete"
        return "a" if self.virtual_pair is not None else "b"

    def network(self) -> BsNetwork:
        return BsNetwork(4, self.sequence)

    def matrix(self) -> ExactMatrix:
        return self.network().matrix()


_ARCH_LIST = [
    Architecture(
        name="QRL",
        sequence=((1, 2), (3, 4), (1, 3), (2, 4)),
        gate_slots=((1, 1), (2, 1), (3, 1), (4, 1)),
    ),
    Architecture(
        name="BSL",
        sequence=((1, 2), (3, 4), (2, 3)),
        completed_by="cBSL",
        virtual_pair=(1, 4),
    ),
    Architecture(
        name="cBSL",
        sequence=((1, 2), (3, 4), (2, 3), (1, 4)),
        completion=Completion("BSL", (1, 4), "measurement"),
        gate_slots=((1, 1), (2, 1), (4, 1), (3, 1)),
        parity_on_output=True,
    ),
    Architecture(
        name="DBSL",
        sequence=((1, 2), (3, 4), (3, 2)),
        completed_by="cDBSL",
        virtual_pair=(1, 4),
    ),
    Architecture(
        name="cDBSL",
        sequence=((1, 2), (3, 4), (3, 2), (1, 4)),
        completion=Completion("DBSL", (1, 4), "measurement"),
        gate_slots=((1, 1), (3, -1), (4, 1), (2, 1)),
        parity_on_output=True,
    ),
    Architecture(
        name="MSG",
        sequence=((1, 2), (3, 4), (1, 4)),
        completed_by="cMSG",
        virtual_pair=(2, 3),
    ),
    Architecture(
        name="cMSG",
        sequence=((1, 2), (3, 4), (1, 4), (2, 3)),
        completion=Completion("MSG", (2, 3), "measurement"),
        gate_slots=((1, 1), (2, 1), (4, 1), (3, 1)),
        parity_on_output=True,
    ),
    Architecture(
        name="MBSL",
        sequence=((4, 3), (3, 2), (1, 4)),
        completed_by="cMBSL",
    ),
    Architecture(
        name="cMBSL",
        sequence=((1, 2), (4, 3), (3, 2), (1, 4)),
        completion=Completion("MBSL", (1, 2), "state"),
        gate_slots=((4, 1), (3, -1), (1, 1), (2, 1)),
        parity_on_output=False,
    ),
]

ARCHITECTURES: dict[str, Architecture] = {a.name: a for a in _ARCH_LIST}


def architecture_names() -> list[str]:
    return [a.name for a in _ARCH_LIST]


def architecture(name: str) -> Architecture:
    try:
        return ARCHITECTURES[name]
    except KeyError:
        raise KeyError(
            f"unknown architecture {name!r}; expected one of {architecture_names()}"
        ) from None


def architecture_matrix(name: str) -> ExactMatrix:
    """The exact matrix of a registry architecture, built once per name
    (an :class:`ExactMatrix` is immutable, so callers share it)."""
    return _registry_matrix(architecture(name).name)


@functools.cache
def _registry_matrix(name: str) -> ExactMatrix:
    return ARCHITECTURES[name].matrix()


# -- relating completed architectures to the reference network ---------------


@dataclass(frozen=True)
class Decomposition:
    """Signed row/column operations carrying the reference matrix to another.

    target = rowneg * perm * reference * colneg, where ``row_perm`` lists the
    source row of each output row (1-based), and the negation tuples list the
    negated modes.  Verification is exact.
    """

    row_perm: tuple[int, ...]
    row_negations: tuple[int, ...]
    col_negations: tuple[int, ...]

    def left_matrix(self, n: int = 4) -> ExactMatrix:
        out = permutation_matrix(n, self.row_perm)
        for j in self.row_negations:
            out = negation_matrix(n, j) @ out
        return out

    def right_matrix(self, n: int = 4) -> ExactMatrix:
        out = ExactMatrix.identity(n)
        for j in self.col_negations:
            out = out @ negation_matrix(n, j)
        return out

    def apply(self, reference: ExactMatrix) -> ExactMatrix:
        return self.left_matrix(reference.n) @ reference @ self.right_matrix(reference.n)


# Conventional decomposition per architecture: the form whose left factor is
# the measurement-side relabeling used to derive the teleported-gate slots.
_PREFERRED_DECOMP: dict[str, Decomposition] = {
    "QRL": Decomposition((1, 2, 3, 4), (), ()),
    "cBSL": Decomposition((1, 2, 4, 3), (), (4,)),
    "cDBSL": Decomposition((1, 4, 2, 3), (3,), (4,)),
    "cMSG": Decomposition((1, 2, 4, 3), (), (4,)),
    "cMBSL": Decomposition((3, 4, 2, 1), (3,), ()),
}


def qrl_decomposition(name: str) -> tuple[Decomposition, list[Decomposition]]:
    """Express a completed architecture as signed row/column ops on QRL.

    Compares all 4! * 2**4 * 2**4 = 6144 (row permutation, row negation set,
    column negation set) combinations at once on the sign matrices 2R, and
    returns the conventional solution first along with all solutions in that
    nesting order (the relation is never unique: eight sign/permutation
    redressings preserve the reference matrix).  Raises for architectures
    whose matrix is not a balanced four-splitter, where none can exist.
    """
    target = architecture_matrix(name)
    if not is_balanced_foursplitter(target):
        raise ValueError(f"{name} is not a completed architecture")
    ref = architecture_matrix("QRL")
    lefts = _signed_row_perms()  # (384, 4, 4)
    col_signs = np.array(list(product((1, -1), repeat=4)))  # (16, 4)
    candidates = (lefts @ ref.doubled_signs())[:, None] * col_signs[None, :, None, :]
    hits = (candidates == target.doubled_signs()).all(axis=(2, 3))  # (384, 16)
    solutions = [
        Decomposition(
            row_perm=tuple(int(p) + 1 for p in np.abs(lefts[li]).argmax(axis=1)),
            row_negations=tuple(int(i) + 1 for i in np.nonzero(lefts[li].sum(axis=1) < 0)[0]),
            col_negations=tuple(int(i) + 1 for i in np.nonzero(col_signs[ci] < 0)[0]),
        )
        for li, ci in np.argwhere(hits)
    ]
    for sol in solutions:
        if sol.apply(ref) != target:
            raise AssertionError("integer search and exact verification disagree")
    if not solutions:
        raise ValueError(f"no signed-permutation relation found for {name}")
    preferred = _PREFERRED_DECOMP.get(name)
    if preferred is not None and preferred in solutions:
        return preferred, solutions
    return solutions[0], solutions


# -- incompleteness ----------------------------------------------------------


def _line_pattern(line: Sequence[ExactScalar]) -> str | None:
    """Classify a row/column: 'mixing' (two 0, two +-1/sqrt2), 'balanced'
    (all +-1/2), or None."""
    zeros = sum(1 for x in line if x.is_zero())
    isq = sum(1 for x in line if x == INV_SQRT2 or x == -INV_SQRT2)
    halves = sum(1 for x in line if x == HALF or x == -HALF)
    if zeros == 2 and isq == 2:
        return "mixing"
    if halves == len(line):
        return "balanced"
    return None


def classify_incompleteness(mat: ExactMatrix) -> str:
    """Return 'complete', 'a' (pattern in rows) or 'b' (pattern in columns).

    A complete matrix is a balanced four-splitter.  An incomplete one must
    show exactly two mixing lines (two zeros and two entries of magnitude
    1/sqrt(2)) on one side with all other lines balanced; anything else is
    outside the classification and raises.
    """
    if mat.n != 4:
        raise ValueError("classification applies to 4x4 matrices")
    if is_balanced_foursplitter(mat):
        return "complete"
    rows = [_line_pattern(r) for r in mat.rows]
    cols = [_line_pattern(c) for c in mat.transpose().rows]

    def shape(kinds: list[str | None]) -> bool:
        return kinds.count("mixing") == 2 and kinds.count("balanced") == 2

    row_hit, col_hit = shape(rows), shape(cols)
    if row_hit == col_hit:
        raise ValueError("matrix does not match the one-missing-splitter pattern")
    return "a" if row_hit else "b"


@dataclass
class ResidualReport:
    """Exact residual between an incomplete network and its completion."""

    incomplete: str
    completed: str
    residual: ExactMatrix
    zero_entries: int
    kind: str

    def to_json_dict(self) -> dict:
        return {
            "incomplete": self.incomplete,
            "completed": self.completed,
            "kind": self.kind,
            "zero_entries": self.zero_entries,
            "residual": self.residual.text_rows(),
        }


def residual_analysis(incomplete: str, completed: str) -> ResidualReport:
    """The operator separating an incomplete network from its completion.

    residual = R_incomplete @ R_completed^T, exact.  For measurement-side
    (kind a) pairs the residual is a single splitter and contains zeros; for
    the state-side (kind b) pair it is dense with no zero entries, which is
    what blocks any measurement-side fix.
    """
    r_inc = architecture_matrix(incomplete)
    r_comp = architecture_matrix(completed)
    residual = r_inc @ r_comp.transpose()
    zeros = sum(1 for row in residual.rows for x in row if x.is_zero())
    return ResidualReport(
        incomplete=incomplete,
        completed=completed,
        residual=residual,
        zero_entries=zeros,
        kind=classify_incompleteness(r_inc),
    )


def find_mode_relabeling(mat: ExactMatrix, target: ExactMatrix) -> tuple[int, ...] | None:
    """Search all mode relabelings P for P @ mat @ P.T == target (exact)."""
    for perm in permutations(range(1, mat.n + 1)):
        p = permutation_matrix(mat.n, perm)
        if p @ mat @ p.transpose() == target:
            return perm
    return None


@dataclass
class ScanReport:
    """Result of the virtual-completion non-existence sweep."""

    nontrivial_points: int
    min_max_offdiagonal: float
    uniform_max_offdiagonal: float
    tol: float

    @property
    def no_completion_exists(self) -> bool:
        return self.min_max_offdiagonal > self.tol and self.uniform_max_offdiagonal <= self.tol


def no_virtual_completion_scan(
    residual: ExactMatrix,
    grid_points: int = 9,
    random_points: int = 10000,
    tol: float = 1e-6,
    seed: int = 0,
) -> ScanReport:
    """Sweep measurement-rotation angles against a kind-b residual.

    A virtual completion by reinterpreted homodyne angles would require
    R^T @ diag(exp(2i theta_j)) @ R to be diagonal for some angle vector that
    is not uniform.  The sweep covers a full grid over (-pi/2, pi/2]^4 plus
    random draws, records the smallest maximum off-diagonal magnitude over
    all non-uniform points, and checks that uniform angles do produce a
    diagonal (the trivial global-phase case).  ``grid_points`` is limited
    to 1..:data:`MAX_GRID_POINTS`.
    """
    if not 1 <= grid_points <= MAX_GRID_POINTS:
        raise ValueError(f"grid_points must be in 1..{MAX_GRID_POINTS}, got {grid_points}")
    r = residual.to_float()
    axis = -np.pi / 2 + np.pi * (np.arange(1, grid_points + 1) / grid_points)
    grid = np.stack(np.meshgrid(axis, axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 4)
    rng = np.random.default_rng(seed)
    rand = rng.uniform(-np.pi / 2, np.pi / 2, size=(random_points, 4))
    thetas = np.vstack([grid, rand])
    uniform = np.all(np.isclose(thetas, thetas[:, :1]), axis=1)
    phases = np.exp(2j * thetas)  # (N, 4)
    # conj = R^T D R for every angle vector at once
    conj = np.einsum("ji,nj,jk->nik", r, phases, r)
    off = np.abs(conj - conj * np.eye(4)[None]).max(axis=(1, 2))
    uni_t = np.full((4,), 0.37)
    uni_conj = r.T @ np.diag(np.exp(2j * uni_t)) @ r
    uni_off = float(np.abs(uni_conj - np.diag(np.diag(uni_conj))).max())
    return ScanReport(
        nontrivial_points=int((~uniform).sum()),
        min_max_offdiagonal=float(off[~uniform].min()),
        uniform_max_offdiagonal=max(uni_off, float(off[uniform].max(initial=0.0))),
        tol=tol,
    )


# -- virtual completion ------------------------------------------------------


@dataclass(frozen=True)
class VirtualCompletionRule:
    """Measurement-side completion by restriction and outcome rewiring.

    Valid runs must measure the two ``pair`` modes at equal angles; the raw
    outcomes on that pair are then replaced by their balanced combinations,
    after which the statistics equal those of the physically completed
    architecture ``completed``.
    """

    incomplete: str
    completed: str
    pair: Pair

    def check_angles(self, angles: Sequence[float], tol: float = 1e-12) -> None:
        j, k = self.pair
        if abs(angles[j - 1] - angles[k - 1]) > tol:
            raise ValueError(
                f"virtual completion of {self.incomplete} requires "
                f"theta_{j} = theta_{k}"
            )

    def transform_outcomes(self, outcomes: Sequence[float]) -> tuple[float, ...]:
        out = list(outcomes)
        j, k = self.pair
        mj, mk = out[j - 1], out[k - 1]
        out[j - 1] = (mj - mk) * SQRT2_INV
        out[k - 1] = (mj + mk) * SQRT2_INV
        return tuple(out)


def virtual_completion(name: str) -> VirtualCompletionRule:
    """The virtual completion rule of an incomplete architecture.

    Raises for kind-b architectures (MBSL), which cannot be completed by
    restricting measurements: their missing splitter sits on the state side.
    """
    arch = architecture(name)
    if arch.completed_by is None:
        raise ValueError(f"{name} is already complete")
    if arch.virtual_pair is None:
        raise ValueError(
            f"{name} is of kind (b): it cannot be completed by restricting "
            "measurements"
        )
    return VirtualCompletionRule(
        incomplete=name, completed=arch.completed_by, pair=arch.virtual_pair
    )


# -- two-mode entangled-pair insertion ---------------------------------------


@dataclass
class InsertionReport:
    """Exact equivalences behind inserting an entangled pair into a wire."""

    identity_holds: bool
    negative_control_differs: bool
    swap_lemma_holds: bool


def bell_pair_insertion_identity() -> InsertionReport:
    """Check that splicing an entangled pair into a wire is two extra splitters.

    On modes (wire-in, new-a, new-b, wire-out) = (1, 2, 3, 4): the full
    splice [(1,4), (4,1), (2,3), (1,2), (3,4)] collapses exactly to
    [(2,3), (1,2), (3,4)] because the first two splitters cancel.  Dropping
    the cancelling partner must break the identity (negative control).  The
    swap lemma is the exact two-mode fact that a doubled splitter is a mode
    swap up to one sign: B @ B == neg_1 @ swap.
    """
    full = BsNetwork(4, ((1, 4), (4, 1), (2, 3), (1, 2), (3, 4)))
    simplified = BsNetwork(4, ((2, 3), (1, 2), (3, 4)))
    broken = BsNetwork(4, ((1, 4), (2, 3), (1, 2), (3, 4)))
    b = beam_splitter_matrix(2, 1, 2)
    lemma = (b @ b) == (negation_matrix(2, 1) @ swap_matrix(2, 1, 2))
    return InsertionReport(
        identity_holds=full.matrix() == simplified.matrix(),
        negative_control_differs=broken.matrix() != simplified.matrix(),
        swap_lemma_holds=lemma,
    )


# -- registry export ---------------------------------------------------------


def registry_json_dict() -> dict:
    """Serializable dump of the architecture registry (zoo.json payload)."""
    out = {}
    for arch in _ARCH_LIST:
        mat = architecture_matrix(arch.name)
        entry: dict = {
            "sequence": [list(p) for p in arch.sequence],
            "kind": classify_incompleteness(mat),
            "matrix": mat.text_rows(),
        }
        if arch.completion:
            entry["completion"] = {
                "base": arch.completion.base,
                "splitter": list(arch.completion.splitter),
                "side": arch.completion.side,
            }
        if arch.completed_by:
            entry["completed_by"] = arch.completed_by
        if arch.virtual_pair:
            entry["virtual_pair"] = list(arch.virtual_pair)
        if arch.gate_slots:
            entry["gate_slots"] = [list(s) for s in arch.gate_slots]
            entry["parity_on_output"] = arch.parity_on_output
        out[arch.name] = entry
    return out


def registry_json() -> str:
    return json.dumps(registry_json_dict(), ensure_ascii=False, indent=2)
