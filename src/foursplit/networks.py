"""Directed balanced beam-splitter networks on a small register of modes.

A network is an ordered sequence of directed two-mode balanced splitters; its
matrix is the product of the individual splitter matrices with the first
splitter applied first (rightmost factor).  The module provides the exhaustive
four-splitter enumeration on four modes, the structural characterization of
which sequences produce a balanced four-splitter, and the census of physically
distinct networks.

The 12**4 candidate sweep is the stacked form of the exact kernel: it
multiplies the splitter matrices' int64 parts with
:func:`~foursplit.exact.ring_matmul`, the product :class:`ExactMatrix` uses,
so it needs no tolerances.  It runs once per process; the theorem-2 report
and the census both read it.  :meth:`BsNetwork.matrix` is kept as a
cross-check.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .exact import ExactMatrix, beam_splitter_matrix, ring_matmul, signs_of_halves

Pair = tuple[int, int]

#: All directed splitters on four modes, in enumeration order: grouped by
#: source mode, then by target mode.  Index = (src - 1) * 3 + rank of dst.
SPLITTER_PAIRS: tuple[Pair, ...] = tuple(
    (s, d) for s in range(1, 5) for d in range(1, 5) if d != s
)


@dataclass(frozen=True)
class BsNetwork:
    """An ordered directed splitter sequence on ``n_modes`` modes.

    ``sequence`` lists (src, dst) pairs in application order: the first entry
    acts on the input first and is therefore the rightmost matrix factor.
    """

    n_modes: int
    sequence: tuple[Pair, ...]

    def __post_init__(self) -> None:
        for s, d in self.sequence:
            if s == d or not (1 <= s <= self.n_modes) or not (1 <= d <= self.n_modes):
                raise ValueError(f"invalid splitter ({s}, {d}) on {self.n_modes} modes")

    @staticmethod
    def of(n_modes: int, pairs: Sequence[Pair]) -> BsNetwork:
        return BsNetwork(n_modes, tuple((int(s), int(d)) for s, d in pairs))

    def matrix(self) -> ExactMatrix:
        """Exact network matrix (product, first splitter rightmost)."""
        out = ExactMatrix.identity(self.n_modes)
        for s, d in self.sequence:
            out = beam_splitter_matrix(self.n_modes, s, d) @ out
        return out

    def reversed(self) -> BsNetwork:
        """Light propagated backwards: order and every arrow reversed.

        The matrix of the reversed network is the transpose of the original.
        """
        return BsNetwork(self.n_modes, tuple((d, s) for s, d in reversed(self.sequence)))


def is_balanced_foursplitter(mat: ExactMatrix) -> bool:
    """True iff ``mat`` is 4x4 orthogonal with every entry of magnitude 1/2.

    Raises ValueError for a non-orthogonal input: such a matrix cannot come
    from a splitter network and asking the question indicates a bug upstream.
    """
    if mat.n != 4:
        return False
    if not mat.is_orthogonal():
        raise ValueError("matrix is not orthogonal")
    return mat.doubled_signs() is not None


def structural_conditions(net: BsNetwork) -> tuple[bool, bool, bool]:
    """The three combinatorial conditions on a four-splitter sequence.

    c1: every mode appears in exactly two splitters;
    c2: the first two splitters already touch all four modes;
    c3: no unordered mode pair is used by two splitters.

    Together these are equivalent to the network matrix being a balanced
    four-splitter (verified exhaustively by :func:`verify_theorem2`).
    """
    if net.n_modes != 4 or len(net.sequence) != 4:
        raise ValueError("structural conditions apply to four splitters on four modes")
    seq = net.sequence
    counts = {m: 0 for m in range(1, 5)}
    for s, d in seq:
        counts[s] += 1
        counts[d] += 1
    c1 = all(v == 2 for v in counts.values())
    c2 = {seq[0][0], seq[0][1], seq[1][0], seq[1][1]} == {1, 2, 3, 4}
    pairs = [frozenset(p) for p in seq]
    c3 = len(set(pairs)) == len(pairs)
    return c1, c2, c3


# -- vectorized exact enumeration -------------------------------------------


def enumerate_candidates() -> np.ndarray:
    """All 12**4 splitter-index sequences in odometer order, shape (20736, 4).

    Column 0 is the first splitter applied; the last column ticks fastest.
    """
    return np.indices((12,) * 4, dtype=np.int64).reshape(4, -1).T


def _balanced_signs() -> tuple[np.ndarray, np.ndarray]:
    """(mask, 2R) of every candidate in :func:`enumerate_candidates` order.

    Each prefix product is formed once (12 -> 144 -> 1,728 -> 20,736
    matrices): the next splitter multiplies from the left and its index
    ticks fastest, as in the odometer.  The splitters share one canonical
    exponent m, so four-factor products sit at 4m.
    """
    splitters = [beam_splitter_matrix(4, s, d) for s, d in SPLITTER_PAIRS]
    (m,) = {sp.m for sp in splitters}
    a_parts, b_parts = np.stack([sp.A for sp in splitters]), np.stack([sp.B for sp in splitters])
    acc_a, acc_b = a_parts, b_parts
    for _ in range(3):
        acc_a, acc_b = ring_matmul(a_parts[None], b_parts[None], acc_a[:, None], acc_b[:, None])
        acc_a, acc_b = acc_a.reshape(-1, 4, 4), acc_b.reshape(-1, 4, 4)
    return signs_of_halves(acc_a, acc_b, 4 * m)


def _conditions_mask(idx: np.ndarray) -> np.ndarray:
    """Vectorized evaluation of the three structural conditions."""
    pairs = np.array(SPLITTER_PAIRS, dtype=np.int64)  # (12, 2)
    seq = pairs[idx]  # (N, 4, 2)
    # c1: each mode appears exactly twice among the eight endpoints
    flat = seq.reshape(len(idx), 8)
    c1 = np.ones(len(idx), dtype=bool)
    for mode in range(1, 5):
        c1 &= (flat == mode).sum(axis=1) == 2
    # c2: first two splitters touch all four modes
    first_four = seq[:, :2, :].reshape(len(idx), 4)
    c2 = np.ones(len(idx), dtype=bool)
    for mode in range(1, 5):
        c2 &= (first_four == mode).any(axis=1)
    # c3: the four unordered pairs are distinct
    lo = seq.min(axis=2)
    hi = seq.max(axis=2)
    code = lo * 8 + hi  # (N, 4) unordered-pair codes
    c3 = np.ones(len(idx), dtype=bool)
    for i in range(4):
        for j in range(i + 1, 4):
            c3 &= code[:, i] != code[:, j]
    return c1 & c2 & c3


def sequence_from_indices(indices: Sequence[int]) -> BsNetwork:
    return BsNetwork(4, tuple(SPLITTER_PAIRS[i] for i in indices))


@dataclass
class Theorem2Report:
    """Result of the exhaustive four-splitter equivalence check."""

    candidate_count: int
    condition_pass_count: int
    balanced_count: int
    counterexample_indices: list[int]
    elapsed_seconds: float

    @property
    def equivalence_holds(self) -> bool:
        return not self.counterexample_indices

    def to_json_dict(self) -> dict:
        return {
            "candidates": self.candidate_count,
            "condition_pass": self.condition_pass_count,
            "balanced": self.balanced_count,
            "counterexamples": self.counterexample_indices,
            "equivalence_holds": self.equivalence_holds,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }


@dataclass(frozen=True, eq=False)
class _Sweep:
    """One exhaustive sweep: its counts, and the balanced candidates' index
    rows and doubled matrices 2R.  The arrays are read-only."""

    balanced: np.ndarray  # (20736,) bool
    rows: np.ndarray  # (384, 4) splitter indices
    signs: np.ndarray  # (384, 4, 4) int8
    condition_pass_count: int
    counterexample_indices: tuple[int, ...]
    elapsed_seconds: float


@functools.cache
def _sweep() -> _Sweep:
    t0 = time.perf_counter()
    idx = enumerate_candidates()
    balanced, signs = _balanced_signs()
    conds = _conditions_mask(idx)
    rows, signs = idx[balanced], signs[balanced]
    for arr in (balanced, rows, signs):
        arr.setflags(write=False)
    return _Sweep(
        balanced=balanced,
        rows=rows,
        signs=signs,
        condition_pass_count=int(conds.sum()),
        counterexample_indices=tuple(np.nonzero(balanced != conds)[0].tolist()),
        elapsed_seconds=time.perf_counter() - t0,
    )


def verify_theorem2(cross_check_stride: int = 0) -> Theorem2Report:
    """Sweep all 20,736 directed four-splitter sequences on four modes.

    For every candidate, evaluates both the structural conditions and exact
    balancedness of the network matrix, and records any disagreement.  The
    condition-pass count is reported from the run rather than assumed.  The
    sweep runs once per process; ``elapsed_seconds`` is its time plus that of
    this call's cross-check.

    ``cross_check_stride`` > 0 additionally recomputes every balanced
    candidate and every stride-th unbalanced one, network by network,
    through :meth:`BsNetwork.matrix` and raises on any disagreement with the
    sweep, on every call.
    """
    sweep = _sweep()
    t0 = time.perf_counter()
    if cross_check_stride > 0:
        recheck = np.nonzero(sweep.balanced)[0].tolist()
        recheck += np.nonzero(~sweep.balanced)[0][::cross_check_stride].tolist()
        for i in recheck:
            net = sequence_from_indices(np.unravel_index(i, (12,) * 4))
            if is_balanced_foursplitter(net.matrix()) != bool(sweep.balanced[i]):
                raise AssertionError(f"sweep and network matrix disagree on {net.sequence}")
    return Theorem2Report(
        candidate_count=sweep.balanced.size,
        condition_pass_count=sweep.condition_pass_count,
        balanced_count=len(sweep.rows),
        counterexample_indices=list(sweep.counterexample_indices),
        elapsed_seconds=sweep.elapsed_seconds + time.perf_counter() - t0,
    )


# -- canonical form and census -----------------------------------------------


def _disjoint(p: Pair, q: Pair) -> bool:
    return not (set(p) & set(q))


def canonical_form(net: BsNetwork) -> BsNetwork:
    """Lexicographically minimal representative under adjacent commutation.

    Adjacent splitters on disjoint mode pairs commute, so sequences related by
    such swaps realize the same physical network.  Bubble-sorting to the
    lexicographic minimum is idempotent and, for sequences satisfying the
    structural conditions (the required precondition), reaches the true
    minimum of the commutation class.
    """
    if not all(structural_conditions(net)):
        raise ValueError("canonical form requires a condition-passing sequence")
    seq = list(net.sequence)
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if _disjoint(seq[i], seq[i + 1]) and seq[i + 1] < seq[i]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                changed = True
    return BsNetwork(net.n_modes, tuple(seq))


def _sign_key(doubled: np.ndarray) -> str:
    """Sign string of a balanced four-splitter from its 2R (entries +-1), row-major."""
    return "".join("+" if v > 0 else "-" for v in doubled.ravel())


@dataclass
class CensusReport:
    """Counts from the exhaustive classification of balanced four-splitters."""

    candidate_count: int
    condition_pass_count: int
    balanced_count: int
    physical_class_count: int
    distinct_matrix_count: int
    multiplicity_histogram: dict[int, int]
    representatives: dict[str, list[tuple[Pair, ...]]] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "candidates": self.candidate_count,
            "condition_pass": self.condition_pass_count,
            "balanced": self.balanced_count,
            "physical_classes": self.physical_class_count,
            "distinct_matrices": self.distinct_matrix_count,
            "multiplicity_histogram": {
                str(k): v for k, v in sorted(self.multiplicity_histogram.items())
            },
            "representatives": {
                k: [list(map(list, seq)) for seq in v]
                for k, v in sorted(self.representatives.items())
            },
        }


def physical_census() -> CensusReport:
    """Classify all balanced four-splitter sequences.

    Groups the passing sequences into physical classes (canonical forms under
    adjacent disjoint commutation), reads each class matrix from the sweep's
    exact 2R of its members, and histograms how many classes share a matrix.
    """
    sweep = _sweep()
    class_keys: dict[tuple[Pair, ...], str] = {}
    for indices, doubled in zip(sweep.rows, sweep.signs):
        seq = canonical_form(sequence_from_indices(indices)).sequence
        key = _sign_key(doubled)
        if class_keys.setdefault(seq, key) != key:
            raise AssertionError(f"members of class {seq} have different matrices")
    by_matrix: dict[str, list[tuple[Pair, ...]]] = {}
    for seq in sorted(class_keys):
        by_matrix.setdefault(class_keys[seq], []).append(seq)
    histogram: dict[int, int] = {}
    for seqs in by_matrix.values():
        histogram[len(seqs)] = histogram.get(len(seqs), 0) + 1
    return CensusReport(
        candidate_count=sweep.balanced.size,
        condition_pass_count=sweep.condition_pass_count,
        balanced_count=len(sweep.rows),
        physical_class_count=len(class_keys),
        distinct_matrix_count=len(by_matrix),
        multiplicity_histogram=histogram,
        representatives=by_matrix,
    )
