"""Registry of the named four-mode cluster-state architectures.

Nine architectures are tracked: the four-splitter reference network (QRL) and
four families that either already realize a balanced four-splitter or miss it
by one splitter.  Incomplete architectures come in two kinds, recognizable
from the matrix alone: kind "a" has two rows carrying the pattern (two zeros,
two entries of magnitude 1/sqrt(2))) and can be completed on the measurement
side, physically or virtually; kind "b" carries the pattern in columns and
admits no measurement-side completion.

The registry's ``gate_slots`` and ``parity_on_output`` alone state how each
completed architecture relates to QRL: its conventional decomposition (signed
row/column operations on the QRL matrix) and each virtual completion's angle
remap in :mod:`gates` are read off them.

:data:`ARCHITECTURES` is the one registry.  Every table derived from it is
cached on the frozen entry values it is read from, never on a name, so
replacing the dict or one of its entries installs a different registry.

All matrix work here is exact; nothing in this module touches floating point
except the virtual-completion angle scan, which is a numerical non-existence
sweep by construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import permutations, product
from typing import Sequence

import numpy as np

from .exact import (
    ExactMatrix,
    beam_splitter_matrix,
    magnitude_mask,
    negation_matrix,
    permutation_matrix,
    swap_matrix,
)
from .hadamard import _signed_row_perms, pack_keys, signed_orbit
from .networks import BsNetwork, Pair, is_balanced_foursplitter

SQRT2_INV = 2 ** -0.5

#: Largest grid of the no-virtual-completion scan, per angle: 20**4 = 160,000
#: grid points.  The scan works in blocks, so a run at the cap traces a
#: 3.4 MB peak and ``verify appendixD --grid 20`` peaks at 41 MB RSS, most of
#: it the interpreter and numpy; the cap bounds its time (~0.15 s).
MAX_GRID_POINTS = 20
#: Angle vectors per block of the scan.
_SCAN_BLOCK = 2048


@dataclass(frozen=True)
class Architecture:
    """A named splitter sequence plus its relations to the other entries.

    ``gate_slots`` orders the measurement angles so the architecture's
    teleported two-mode gate reads as the reference (QRL) gadget: slot k holds
    (angle index, outcome sign).  ``parity_on_output`` marks gates carrying an
    extra double Fourier (sign flip) on the second output mode.

    An incomplete entry with a ``virtual_pair`` is its own virtual
    completion: runs must measure the two pair modes at equal angles, up to a
    whole turn (the same homodyne setting), and the raw outcomes on the pair
    are then replaced by their balanced combinations, after which the
    statistics equal those of the physically completed ``completed_by``.
    """

    name: str
    sequence: tuple[Pair, ...]
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

    def admits(self, angles: Sequence[float], tol: float = 1e-12) -> bool:
        """Whether finite ``angles`` are equal on the virtual pair, up to a
        whole turn; every angle vector is admitted without a pair."""
        if self.virtual_pair is None:
            return True
        j, k = self.virtual_pair
        return abs(math.remainder(angles[j - 1] - angles[k - 1], math.tau)) <= tol

    def check_angles(self, angles: Sequence[float], tol: float = 1e-12) -> None:
        check_finite_angles(angles)
        if not self.admits(angles, tol):
            j, k = self.virtual_pair
            raise ValueError(f"virtual completion of {self.name} requires theta_{j} = theta_{k}")

    def transform_outcomes(self, outcomes: Sequence[float]) -> tuple[float, ...]:
        """The raw outcomes with the virtual pair's replaced by their
        balanced combinations; unchanged without a pair."""
        out = list(outcomes)
        if self.virtual_pair is not None:
            j, k = self.virtual_pair
            mj, mk = out[j - 1], out[k - 1]
            out[j - 1], out[k - 1] = (mj - mk) * SQRT2_INV, (mj + mk) * SQRT2_INV
        return tuple(out)

    def matrix(self) -> ExactMatrix:
        return self.network().matrix()


ARCHITECTURES: dict[str, Architecture] = {
    arch.name: arch
    for arch in (
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
            gate_slots=((4, 1), (3, -1), (1, 1), (2, 1)),
            parity_on_output=False,
        ),
    )
}


def architecture_names() -> list[str]:
    return list(ARCHITECTURES)


def architecture(name: str) -> Architecture:
    try:
        return ARCHITECTURES[name]
    except KeyError:
        raise KeyError(
            f"unknown architecture {name!r}; expected one of {architecture_names()}"
        ) from None


def architecture_matrix(name: str) -> ExactMatrix:
    """The exact matrix of a registry architecture, built once per entry
    (an :class:`ExactMatrix` is immutable, so callers share it)."""
    return _registry_matrix(architecture(name))


@functools.cache
def _registry_matrix(arch: Architecture) -> ExactMatrix:
    return arch.matrix()


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

    def apply(self, reference: ExactMatrix) -> ExactMatrix:
        n = reference.n
        left = np.eye(n, dtype=np.int64)[[p - 1 for p in self.row_perm]]
        left[[j - 1 for j in self.row_negations]] *= -1
        right = np.eye(n, dtype=np.int64)
        right[[j - 1 for j in self.col_negations]] *= -1
        return ExactMatrix.from_ints(left) @ reference @ ExactMatrix.from_ints(right)


def conventional_decomposition(name: str) -> Decomposition:
    """The relation to QRL that the registry states for a completed layout.

    Slot k of ``gate_slots`` feeds the same V factor in every layout, so it
    maps QRL's slot-k row onto this layout's slot-k row, negated when the two
    slot signs differ.  An output parity that QRL lacks (or has alone) is a
    column negation on network input 4: input 4 is the ancilla half paired
    with output mode 2.  Derived once per pair of entries.
    """
    return _decomposition(architecture(name), ARCHITECTURES["QRL"])


@functools.cache
def _decomposition(arch: Architecture, reference: Architecture) -> Decomposition:
    if arch.gate_slots is None:
        raise ValueError(f"{arch.name} has no gate slots")
    by_row = sorted(zip(arch.gate_slots, reference.gate_slots))
    return Decomposition(
        row_perm=tuple(ref_row for _, (ref_row, _) in by_row),
        row_negations=tuple(row for (row, sign), (_, ref_sign) in by_row if sign != ref_sign),
        col_negations=(4,) if arch.parity_on_output != reference.parity_on_output else (),
    )


def qrl_decomposition(name: str) -> tuple[Decomposition, list[Decomposition]]:
    """Express a completed architecture as signed row/column ops on QRL.

    Returns the registry's :func:`conventional_decomposition`, unverified
    (applying it checks the registry against the exact matrices), and all
    solutions found by comparing all 4! * 2**4 * 2**4 = 6144 (row permutation,
    row negation set, column negation set) combinations at once on the sign
    matrices 2R, in that nesting order (the relation is never unique: eight
    sign/permutation redressings preserve the reference matrix).  Raises for
    architectures whose matrix is not a balanced four-splitter.
    """
    target = architecture_matrix(name)
    if not is_balanced_foursplitter(target):
        raise ValueError(f"{name} is not a completed architecture")
    ref = architecture_matrix("QRL")
    lefts = _signed_row_perms()  # (384, 4, 4)
    col_signs = np.array(list(product((1, -1), repeat=4)))  # (16, 4)
    orbit = pack_keys(signed_orbit(ref.doubled_signs()[None], col_signs))[0]  # (384, 16)
    hits = orbit == pack_keys(target.doubled_signs())
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
    return conventional_decomposition(name), solutions


# -- incompleteness ----------------------------------------------------------


def classify_incompleteness(mat: ExactMatrix) -> str:
    """Return 'complete', 'a' (pattern in rows) or 'b' (pattern in columns).

    A complete matrix is a balanced four-splitter.  An incomplete one must
    show exactly two mixing lines (two zeros and two entries of magnitude
    1/sqrt(2)) on one side with all other lines balanced (every entry of
    magnitude 1/2); anything else is outside the classification and raises.
    """
    if mat.n != 4:
        raise ValueError("classification applies to 4x4 matrices")
    if is_balanced_foursplitter(mat):
        return "complete"
    zeros = (mat.A == 0) & (mat.B == 0)
    isq, half = (magnitude_mask(mat.A, mat.B, mat.m, k) for k in (1, 2))

    def shape(axis: int) -> bool:
        mixing = (zeros.sum(axis) == 2) & (isq.sum(axis) == 2)
        return mixing.sum() == 2 and half.all(axis).sum() == 2

    row_hit, col_hit = shape(1), shape(0)
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
    return ResidualReport(
        incomplete=incomplete,
        completed=completed,
        residual=residual,
        zero_entries=int(((residual.A == 0) & (residual.B == 0)).sum()),
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
    to 1..:data:`MAX_GRID_POINTS`, ``random_points`` must be nonnegative,
    and at least one point must be non-uniform.

    The angle vectors are generated and conjugated block by block; only the
    per-point maximum off-diagonal magnitude and uniformity flag are kept
    for all points.
    """
    if not 1 <= grid_points <= MAX_GRID_POINTS:
        raise ValueError(f"grid_points must be in 1..{MAX_GRID_POINTS}, got {grid_points}")
    if random_points < 0:
        raise ValueError(f"random_points must be nonnegative, got {random_points}")
    r = residual.to_float()
    axis = -np.pi / 2 + np.pi * (np.arange(1, grid_points + 1) / grid_points)
    rng = np.random.default_rng(seed)
    rand = rng.uniform(-np.pi / 2, np.pi / 2, size=(random_points, 4))
    n_grid = grid_points**4
    total = n_grid + random_points
    off_diagonal = ~np.eye(4, dtype=bool)
    off = np.empty(total)
    uniform = np.empty(total, dtype=bool)
    for lo in range(0, total, _SCAN_BLOCK):
        hi = min(lo + _SCAN_BLOCK, total)
        # grid points lo.. in row-major (meshgrid "ij") order, then the random draws
        cells = np.unravel_index(np.arange(lo, min(hi, n_grid)), (grid_points,) * 4)
        thetas = np.concatenate(
            [axis[np.stack(cells, axis=-1)], rand[max(lo - n_grid, 0) : max(hi - n_grid, 0)]]
        )
        uniform[lo:hi] = np.all(np.isclose(thetas, thetas[:, :1]), axis=1)
        # conj = R^T D R for every angle vector of the block
        conj = np.einsum("ji,nj,jk->nik", r, np.exp(2j * thetas), r)
        off[lo:hi] = np.abs(conj[:, off_diagonal]).max(axis=1)
    if uniform.all():
        raise ValueError(
            "no non-uniform angle vector to scan: use grid_points >= 2 or random_points >= 1"
        )
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


def check_finite_angles(angles: Sequence[float]) -> None:
    """Raise a ValueError naming the first angle that is NaN or infinite."""
    for i, angle in enumerate(angles, 1):
        if not math.isfinite(angle):
            raise ValueError(f"theta_{i} = {angle!r} is not finite")


def virtual_completion(name: str) -> Architecture:
    """The registry entry of an incomplete architecture, as the virtual
    completion it measures: its restriction and rewiring are the entry's own.

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
    return arch


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
