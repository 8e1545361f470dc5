"""Gaussian unitaries in symplectic form and the teleported two-mode gates.

Phase-space coordinates are ordered (q_1..q_n, p_1..p_n).  A Gaussian unitary
acts on means as x -> S x + d with S symplectic; composition follows operator
order, so ``a @ b`` applies ``b`` first.  The convention-sensitive gates are
pinned operationally by :func:`verify_ldu`: with rotations
R = [[cos, -sin], [sin, cos]], the squeeze must scale position
(S(z) = diag(z, 1/z)) and the momentum shear must add momentum to position
(Pp(s): q -> q + s p) for both shear-squeeze-shear factorizations of a
rotation to hold.

The measurement-based two-mode gate of each completed architecture is
composed here from single-mode gates; the Gaussian simulator provides the
independent cross-check that the composition and its outcome-dependent
displacement match what the measurement gadget actually produces.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import zoo
from .networks import BsNetwork

#: Shear strength with |sin(angle difference)| below this is treated as the
#: singular (undefined gate) case.
SINGULAR_TOL = 1e-9

CHI = math.atan(2.0)


def omega(n_modes: int) -> np.ndarray:
    """Symplectic form [[0, I], [-I, 0]] in (q..., p...) ordering."""
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    return np.block([[zero, eye], [-eye, zero]])


class SymplecticOp:
    """A Gaussian unitary: symplectic matrix plus phase-space shift."""

    __slots__ = ("n_modes", "matrix", "shift")

    def __init__(self, matrix: np.ndarray, shift: np.ndarray | None = None):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.shape[0] % 2:
            raise ValueError(f"bad symplectic shape {matrix.shape}")
        n = matrix.shape[0] // 2
        if shift is None:
            shift = np.zeros(2 * n)
        shift = np.asarray(shift, dtype=float)
        if shift.shape != (2 * n,):
            raise ValueError(f"shift shape {shift.shape} does not match {n} modes")
        self.n_modes = n
        self.matrix = matrix
        self.shift = shift

    def __matmul__(self, other: SymplecticOp) -> SymplecticOp:
        """Operator composition: ``self`` after ``other``."""
        if self.n_modes != other.n_modes:
            raise ValueError("mode count mismatch")
        return SymplecticOp(
            self.matrix @ other.matrix, self.matrix @ other.shift + self.shift
        )

    def inverse(self) -> SymplecticOp:
        inv = np.linalg.inv(self.matrix)
        return SymplecticOp(inv, -inv @ self.shift)

    def embed(self, n_modes: int, modes: Sequence[int]) -> SymplecticOp:
        """Place this operator onto the given 1-based modes of a larger register."""
        if len(modes) != self.n_modes or len(set(modes)) != len(modes):
            raise ValueError(f"need {self.n_modes} distinct target modes")
        if any(not 1 <= m <= n_modes for m in modes):
            raise ValueError(f"modes {modes} out of range for {n_modes}")
        sel = [m - 1 for m in modes] + [n_modes + m - 1 for m in modes]
        mat = np.eye(2 * n_modes)
        mat[np.ix_(sel, sel)] = self.matrix
        shift = np.zeros(2 * n_modes)
        shift[sel] = self.shift
        return SymplecticOp(mat, shift)

    def tensor(self, other: SymplecticOp) -> SymplecticOp:
        n = self.n_modes + other.n_modes
        a = self.embed(n, tuple(range(1, self.n_modes + 1)))
        b = other.embed(n, tuple(range(self.n_modes + 1, n + 1)))
        return a @ b

    def is_symplectic(self, tol: float = 1e-12) -> bool:
        w = omega(self.n_modes)
        return bool(
            np.abs(self.matrix.T @ w @ self.matrix - w).max() <= tol
        )

    def max_deviation(self, other: SymplecticOp) -> float:
        return float(
            max(
                np.abs(self.matrix - other.matrix).max(),
                np.abs(self.shift - other.shift).max(),
            )
        )

    def __repr__(self) -> str:
        return f"SymplecticOp(n_modes={self.n_modes})"


# -- elementary gates ---------------------------------------------------------


def identity(n_modes: int = 1) -> SymplecticOp:
    return SymplecticOp(np.eye(2 * n_modes))


def rotation(theta: float) -> SymplecticOp:
    c, s = math.cos(theta), math.sin(theta)
    return SymplecticOp(np.array([[c, -s], [s, c]]))


def fourier() -> SymplecticOp:
    return rotation(math.pi / 2)


def double_fourier() -> SymplecticOp:
    """The single-mode parity operation: (q, p) -> (-q, -p)."""
    return SymplecticOp(-np.eye(2))


def shear_q(sigma: float) -> SymplecticOp:
    """Position shear: p -> p + sigma q."""
    return SymplecticOp(np.array([[1.0, 0.0], [sigma, 1.0]]))


def shear_p(sigma: float) -> SymplecticOp:
    """Momentum shear: q -> q + sigma p."""
    return SymplecticOp(np.array([[1.0, sigma], [0.0, 1.0]]))


def squeeze(z: float) -> SymplecticOp:
    """Squeeze scaling position by z: (q, p) -> (z q, p / z)."""
    if z == 0:
        raise ValueError("squeeze parameter must be nonzero")
    return SymplecticOp(np.diag([z, 1.0 / z]))


def displacement(dq: float, dp: float) -> SymplecticOp:
    return SymplecticOp(np.eye(2), np.array([dq, dp]))


def displacement_from_amplitude(alpha: complex) -> SymplecticOp:
    """Displacement by a complex amplitude: mean shift sqrt(2)(Re, Im)."""
    return displacement(math.sqrt(2) * alpha.real, math.sqrt(2) * alpha.imag)


def beam_splitter(theta: float = math.pi / 4) -> SymplecticOp:
    """Two-mode splitter mixing (1 -> 2); balanced at theta = pi/4.

    Acts by the rotation block [[c, -s], [s, c]] identically on the position
    and momentum pairs.
    """
    c, s = math.cos(theta), math.sin(theta)
    block = np.array([[c, -s], [s, c]])
    mat = np.zeros((4, 4))
    mat[:2, :2] = block
    mat[2:, 2:] = block
    return SymplecticOp(mat)


def swap() -> SymplecticOp:
    mat = np.zeros((4, 4))
    mat[0, 1] = mat[1, 0] = mat[2, 3] = mat[3, 2] = 1.0
    return SymplecticOp(mat)


def cz(g: float) -> SymplecticOp:
    """Controlled phase: p1 -> p1 + g q2, p2 -> p2 + g q1."""
    mat = np.eye(4)
    mat[2, 1] = g
    mat[3, 0] = g
    return SymplecticOp(mat)


def cx(g: float) -> SymplecticOp:
    """Controlled shift, mode 1 controlling mode 2.

    q2 -> q2 + g q1 and p1 -> p1 - g p2.
    """
    mat = np.eye(4)
    mat[1, 0] = g
    mat[2, 3] = -g
    return SymplecticOp(mat)


def network_op(net: BsNetwork) -> SymplecticOp:
    """Symplectic form of a splitter network: the same orthogonal block on
    positions and momenta."""
    r = net.matrix().to_float()
    n = net.n_modes
    mat = np.zeros((2 * n, 2 * n))
    mat[:n, :n] = r
    mat[n:, n:] = r
    return SymplecticOp(mat)


def architecture_op(name: str) -> SymplecticOp:
    """:func:`network_op` of a registry architecture.  Its matrix is computed
    once per name and shared read-only; the returned op is new on each call."""
    return SymplecticOp(_architecture_block(zoo.architecture(name).name))


@functools.cache
def _architecture_block(name: str) -> np.ndarray:
    mat = network_op(zoo.ARCHITECTURES[name].network()).matrix
    mat.setflags(write=False)
    return mat


# -- convention checks --------------------------------------------------------


def verify_ldu(theta: float, tol: float = 1e-12) -> bool:
    """Both shear-squeeze-shear factorizations of a rotation.

    R(theta) = Pp(-tan) S(sec) P(tan) = P(tan) S(cos) Pp(-tan); requiring
    both pins the orientation of S and the sign of Pp.  theta must stay away
    from +-pi/2 where sec diverges.
    """
    t, sec, cos = math.tan(theta), 1.0 / math.cos(theta), math.cos(theta)
    target = rotation(theta)
    form_a = shear_p(-t) @ squeeze(sec) @ shear_q(t)
    form_b = shear_q(t) @ squeeze(cos) @ shear_p(-t)
    return (
        form_a.max_deviation(target) <= tol and form_b.max_deviation(target) <= tol
    )


# -- the teleported single-mode gate ------------------------------------------


def v_gate_forms(theta1: float, theta2: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three equivalent factorizations of the measurement gate V.

    Rotation-squeeze-rotation, rotation-sandwiched position shear, and
    rotation-sandwiched momentum shear.  The momentum-shear argument is
    2 cot(theta2 - theta1): of the two printed sign variants in circulation
    only this one agrees with the other forms under the conventions pinned by
    :func:`verify_ldu` (it is their image under Fourier conjugation).
    """
    diff = theta1 - theta2
    if abs(math.sin(diff)) < SINGULAR_TOL:
        raise ValueError(
            f"gate undefined: angles {theta1} and {theta2} are equal mod pi"
        )
    plus, minus = (theta1 + theta2) / 2, diff / 2
    form1 = rotation(plus - math.pi / 2) @ squeeze(math.tan(minus)) @ rotation(plus)
    g = 2.0 / math.tan(diff)
    half = rotation(theta1 - math.pi / 2)
    form2 = half @ shear_q(g) @ half
    form3 = rotation(theta1 - math.pi) @ shear_p(-g) @ rotation(theta1)
    return form1.matrix, form2.matrix, form3.matrix


def v_gate(theta1: float, theta2: float, tol: float = 1e-10) -> SymplecticOp:
    """The single-mode gate measured out by homodyne angles (theta1, theta2).

    Computes all three factorizations, requires mutual agreement to ``tol``,
    and returns their common symplectic matrix.  Undefined when the angles
    coincide mod pi; near that, where the forms drift apart by more than
    ``tol``, it raises ValueError too.
    """
    f1, f2, f3 = v_gate_forms(theta1, theta2)
    spread = max(np.abs(f1 - f2).max(), np.abs(f1 - f3).max())
    if spread > tol:
        raise ValueError(f"V-gate forms disagree by {spread:.3e}")
    return SymplecticOp(f1)


# -- two-mode teleported gates ------------------------------------------------


@dataclass(frozen=True)
class TeleportedGate:
    """The two-mode gate and displacement rule of a measurement gadget run.

    ``op`` is the outcome-independent symplectic part.  ``displacement``
    maps the four raw homodyne outcomes to the phase-space shift the gadget
    imparts on top of ``op``; the corrective displacement is its negative.
    """

    architecture: str
    angles: tuple[float, float, float, float]
    op: SymplecticOp
    displacement: Callable[[Sequence[float]], np.ndarray]


def _slot_view(arch: zoo.Architecture, angles: Sequence[float]) -> tuple[list[float], list[tuple[int, int]]]:
    """Angles and (outcome index, sign) pairs in reference slot order."""
    assert arch.gate_slots is not None
    eff_angles = [angles[idx - 1] for idx, _ in arch.gate_slots]
    outcome_map = [(idx - 1, sign) for idx, sign in arch.gate_slots]
    return eff_angles, outcome_map


def _pair_amplitude(theta_a: float, theta_b: float, m_a: float, m_b: float) -> complex:
    """Outcome-dependent displacement of one teleportation rail."""
    denom = math.sin(theta_a - theta_b)
    if abs(denom) < SINGULAR_TOL:
        raise ValueError("displacement undefined for equal angles mod pi")
    return -(m_a * cmath.exp(1j * theta_b) + m_b * cmath.exp(1j * theta_a)) / denom


def resolve_gate_architecture(name: str) -> tuple[zoo.Architecture, zoo.VirtualCompletionRule | None]:
    """Map a gate architecture name to its registry entry.

    Accepts the completed architectures plus the virtually completed forms
    (prefix "vc"), for which the returned rule carries the equal-angle
    restriction and outcome rewiring.
    """
    if name.startswith("vc"):
        rule = zoo.virtual_completion(name[2:])
        return zoo.architecture(rule.completed), rule
    arch = zoo.architecture(name)
    if arch.gate_slots is None:
        raise ValueError(
            f"{name} has no teleported two-mode gate; complete it first "
            f"(use {arch.completed_by or 'a completed architecture'})"
        )
    return arch, None


def two_mode_gate(name: str, angles: Sequence[float]) -> TeleportedGate:
    """The two-mode gate teleported by measuring a gadget at these angles.

    ``name`` is a completed architecture or a vc-prefixed virtual completion;
    virtual completions require their equal-angle restriction and transform
    outcomes before the displacement rule.  The gate is assembled on the two
    output modes as splitter - local V pair - reversed splitter, with a final
    double Fourier on output mode 2 for the architectures that carry it.
    """
    if len(angles) != 4:
        raise ValueError("need exactly four measurement angles")
    if not all(math.isfinite(a) for a in angles):
        raise ValueError(f"measurement angles must be finite, got {list(angles)}")
    arch, rule = resolve_gate_architecture(name)
    if rule is not None:
        rule.check_angles(angles)
    eff, outcome_map = _slot_view(arch, angles)
    v1 = v_gate(eff[0], eff[1])
    v2 = v_gate(eff[2], eff[3])
    b_in = beam_splitter()  # mixes (1 -> 2)
    b_out = swap() @ beam_splitter() @ swap()  # the reversed splitter (2 -> 1)
    op = b_out @ v1.tensor(v2) @ b_in
    if arch.parity_on_output:
        op = double_fourier().embed(2, (2,)) @ op

    angles_t = tuple(float(a) for a in angles)
    parity = arch.parity_on_output

    def displacement(outcomes: Sequence[float]) -> np.ndarray:
        if len(outcomes) != 4:
            raise ValueError("need exactly four outcomes")
        raw = tuple(float(m) for m in outcomes)
        if rule is not None:
            raw = rule.transform_outcomes(raw)
        slotted = [sign * raw[idx] for idx, sign in outcome_map]
        mu_a = _pair_amplitude(eff[0], eff[1], slotted[0], slotted[1])
        mu_b = _pair_amplitude(eff[2], eff[3], slotted[2], slotted[3])
        nu1 = (mu_a + mu_b) / math.sqrt(2)
        nu2 = (mu_b - mu_a) / math.sqrt(2)
        if parity:
            nu2 = -nu2
        return np.array(
            [
                math.sqrt(2) * nu1.real,
                math.sqrt(2) * nu2.real,
                math.sqrt(2) * nu1.imag,
                math.sqrt(2) * nu2.imag,
            ]
        )

    return TeleportedGate(
        architecture=name, angles=angles_t, op=op, displacement=displacement
    )


# -- the gate dictionary ------------------------------------------------------


def _qrl_rows() -> list[dict]:
    """Reference angle table: named gates and their QRL measurement angles."""
    hp = math.pi / 2
    return [
        {
            "gate": "CZ(+1)",
            "angles": (hp, hp + CHI, hp, hp - CHI),
            "target": cz(1.0),
        },
        {
            "gate": "CZ(-1)",
            "angles": (hp, hp - CHI, hp, hp + CHI),
            "target": cz(-1.0),
        },
        {
            "gate": "SWAP",
            "angles": (0.0, hp, hp, 0.0),
            "target": swap(),
        },
        {
            "gate": "identity",
            "angles": (hp, 0.0, hp, 0.0),
            "target": identity(2),
        },
        {
            "gate": "fourier_pair",
            "angles": (3 * math.pi / 4, math.pi / 4, 3 * math.pi / 4, math.pi / 4),
            "target": fourier().tensor(fourier()),
        },
        {
            "gate": "shear_pair(+1)",
            "angles": (hp, hp - CHI, hp, hp - CHI),
            "target": shear_q(1.0).tensor(shear_q(1.0)),
        },
        {
            "gate": "shear_pair(-1)",
            "angles": (hp, hp + CHI, hp, hp + CHI),
            "target": shear_q(-1.0).tensor(shear_q(-1.0)),
        },
    ]


def _inverse_gate_slots(arch: zoo.Architecture) -> tuple[int, ...]:
    """Inverse of ``gate_slots``: entry k is the slot that reads angle k."""
    angle_of_slot = [idx for idx, _ in arch.gate_slots]
    return tuple(angle_of_slot.index(k) + 1 for k in range(1, len(angle_of_slot) + 1))


#: How each virtually completed architecture reorders reference angles:
#: entry k is the reference slot whose angle feeds gadget angle k.
VC_ANGLE_MAPS: dict[str, tuple[int, ...]] = {
    "vc" + arch.name: _inverse_gate_slots(zoo.architecture(arch.completed_by))
    for arch in zoo.ARCHITECTURES.values()
    if arch.virtual_pair is not None
}


def map_reference_angles(vc_name: str, qrl_angles: Sequence[float]) -> tuple[float, ...]:
    """Reference (QRL) angles rearranged for a virtually completed gadget."""
    return tuple(qrl_angles[i - 1] for i in VC_ANGLE_MAPS[vc_name])


def mapping_compatible(vc_name: str, qrl_angles: Sequence[float], tol: float = 1e-12) -> bool:
    """Whether the mapped angles satisfy the architecture's restriction."""
    mapped = map_reference_angles(vc_name, qrl_angles)
    rule = zoo.virtual_completion(vc_name[2:])
    j, k = rule.pair
    return abs(mapped[j - 1] - mapped[k - 1]) <= tol


def dictionary_rows() -> list[tuple[dict, str, tuple[float, ...]]]:
    """Every (reference row, layout, angles) the dictionary covers.

    Each reference row on QRL comes first, followed by its
    restriction-compatible mappings onto the virtually completed layouts.
    """
    rows = []
    for row in _qrl_rows():
        rows.append((row, "QRL", row["angles"]))
        for vc_name in VC_ANGLE_MAPS:
            if mapping_compatible(vc_name, row["angles"]):
                rows.append((row, vc_name, map_reference_angles(vc_name, row["angles"])))
    return rows


def fourier_dressed_cz(sign: float) -> SymplecticOp:
    """[F^dag x F] CZ(sign) [F x F]."""
    f = fourier()
    return f.inverse().tensor(f) @ cz(sign) @ f.tensor(f)


def dictionary_targets() -> list[tuple[str, SymplecticOp]]:
    """Named dictionary gates in match order: each reference target without
    and with the output parity, then the Fourier-dressed CZ(+1) and CZ(-1)."""
    parity2 = double_fourier().embed(2, (2,))
    targets = []
    for row in _qrl_rows():
        targets.append((row["gate"], row["target"]))
        targets.append((row["gate"] + " (with output parity)", parity2 @ row["target"]))
    for sign in (1.0, -1.0):
        targets.append((f"fourier_dressed_CZ({sign:+.0f})", fourier_dressed_cz(sign)))
    return targets


def dictionary_match(op: SymplecticOp, tol: float = 1e-6) -> str | None:
    """First dictionary target within tol; loose enough for truncated angles."""
    for name, target in dictionary_targets():
        if op.max_deviation(target) <= tol:
            return name
    return None


@dataclass
class DictionaryReport:
    """Outcome of checking every gate-dictionary entry."""

    entries: list[dict]
    max_deviation: float
    tol: float
    momentum_shear_argument: str = "2*cot(theta2-theta1)"

    @property
    def all_pass(self) -> bool:
        return self.max_deviation <= self.tol

    def to_json_dict(self) -> dict:
        return {
            "tol": self.tol,
            "max_deviation": self.max_deviation,
            "all_pass": self.all_pass,
            "momentum_shear_argument": self.momentum_shear_argument,
            "entries": self.entries,
        }


def verify_dictionary(tol: float = 1e-10) -> DictionaryReport:
    """Check the whole angle dictionary against explicit gate targets.

    Covers the reference rows, the mapped rows of each virtually completed
    architecture (which must reproduce the reference gate with the extra
    output parity), the native controlled-phase row of the MSG layout, and
    the negative result that no mapping row is angle-compatible with SWAP.
    """
    entries: list[dict] = []
    worst = 0.0

    def record(name: str, arch: str, angles: Sequence[float], dev: float, note: str = ""):
        nonlocal worst
        worst = max(worst, dev)
        entries.append(
            {
                "gate": name,
                "architecture": arch,
                "angles": [round(a, 12) for a in angles],
                "deviation": dev,
                "pass": dev <= tol,
                **({"note": note} if note else {}),
            }
        )

    targets = dict(dictionary_targets())
    rows = dictionary_rows()
    for row, arch, angles in rows:
        note = "" if arch == "QRL" else "with output parity"
        target = targets[row["gate"] + (f" ({note})" if note else "")]
        dev = two_mode_gate(arch, angles).op.max_deviation(target)
        record(row["gate"], arch, angles, dev, note=note)

    # SWAP admits no restriction-compatible mapping: no mapped row carries it
    swap_angles = next(row["angles"] for row, _, _ in rows if row["gate"] == "SWAP")
    incompatible = all(arch == "QRL" for row, arch, _ in rows if row["gate"] == "SWAP")
    entries.append(
        {
            "gate": "SWAP",
            "architecture": "vc*",
            "angles": list(swap_angles),
            "deviation": 0.0 if incompatible else math.inf,
            "pass": incompatible,
            "note": "no angle-compatible mapping exists",
        }
    )
    if not incompatible:
        worst = math.inf

    # Native MSG controlled-phase row: angles satisfy the vcMSG restriction.
    # The stated target is checked as given (with and without the output
    # parity).  It cannot be reached: peeling the outer splitters off the
    # target leaves local factors outside the equal-diagonal V family, so no
    # angle vector produces it.  The exact gate the gadget does produce at
    # these angles is recorded next to it for reference.
    native = (-CHI, 0.0, 0.0, CHI)
    gate = two_mode_gate("vcMSG", native)
    claimed = fourier().inverse().tensor(fourier()) @ cz(1.0)
    parity2 = double_fourier().embed(2, (2,))
    dev_claimed = min(
        gate.op.max_deviation(claimed), gate.op.max_deviation(parity2 @ claimed)
    )
    record(
        "fourier_conjugated_CZ(+1)",
        "vcMSG",
        native,
        dev_claimed,
        note="stated native-row target; not producible at any angles",
    )
    record(
        "fourier_dressed_CZ(-1)",
        "vcMSG",
        native,
        gate.op.max_deviation(targets["fourier_dressed_CZ(-1)"]),
        note="exact gate at the native angles",
    )

    return DictionaryReport(entries=entries, max_deviation=worst, tol=tol)


# -- three-mode rotations and their angle decomposition ----------------------

_AXIS_OF_PAIR = {(1, 2): "z", (2, 3): "x", (3, 1): "y"}


def splitter_rotation_3(pair: tuple[int, int], theta: float) -> np.ndarray:
    """Variable splitter on a mode pair of a three-mode register.

    The pairs (1,2), (2,3), (3,1) generate rotations about the z, x and y
    axes respectively when mode amplitudes are read as coordinates.
    """
    if pair not in _AXIS_OF_PAIR:
        raise ValueError(f"pair {pair} is not one of (1,2), (2,3), (3,1)")
    j, k = pair[0] - 1, pair[1] - 1
    c, s = math.cos(theta), math.sin(theta)
    mat = np.eye(3)
    mat[j, j] = c
    mat[j, k] = -s
    mat[k, j] = s
    mat[k, k] = c
    return mat


def rot_x(theta: float) -> np.ndarray:
    return splitter_rotation_3((2, 3), theta)


def rot_y(theta: float) -> np.ndarray:
    return splitter_rotation_3((3, 1), theta)


def rot_z(theta: float) -> np.ndarray:
    return splitter_rotation_3((1, 2), theta)


def euler_decompose(mat: np.ndarray) -> tuple[float, float, float]:
    """Angles (alpha, beta, gamma) with mat = Rz(gamma) Ry(beta) Rx(alpha).

    Valid for any rotation matrix (orthogonal, determinant +1); at gimbal
    lock (|cos beta| = 0) the z angle is fixed to zero.  The reconstruction
    is exact to floating precision; callers verify by re-multiplication.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (3, 3) or abs(np.linalg.det(mat) - 1.0) > 1e-9:
        raise ValueError("not a three-mode rotation matrix")
    sin_beta = -mat[2, 0]
    if abs(sin_beta) >= 1.0 - 1e-12:
        beta = math.copysign(math.pi / 2, sin_beta)
        # columns 1, 2 collapse: only alpha +- gamma matters, pick gamma = 0
        return math.atan2(-mat[0, 1], mat[1, 1]), beta, 0.0
    beta = math.asin(sin_beta)
    alpha = math.atan2(mat[2, 1], mat[2, 2])
    gamma = math.atan2(mat[1, 0], mat[0, 0])
    return alpha, beta, gamma


def euler_round_trip(t1_grid: Sequence[float], t2_grid: Sequence[float]) -> dict:
    """The three-splitter angle decomposition, checked by re-multiplication.

    ``reconstruction_worst`` is the largest entry error of the rebuilt
    Rz(gamma) Ry(beta) Rx(alpha) over m = Rx(t2) Rz(t1) on the grid.  Two
    balanced splitters sharing a mode decompose into fixed-axis rotations by
    arctan(1/sqrt2), arctan(-sqrt3/3), arctan(1/sqrt2);
    ``balanced_pair_deviation`` is the largest angle error against them.
    """
    worst = 0.0
    for t1 in t1_grid:
        for t2 in t2_grid:
            m = rot_x(t2) @ rot_z(t1)
            alpha, beta, gamma = euler_decompose(m)
            rebuilt = rot_z(gamma) @ rot_y(beta) @ rot_x(alpha)
            worst = max(worst, float(np.abs(rebuilt - m).max()))
    alpha, beta, gamma = euler_decompose(rot_x(math.pi / 4) @ rot_z(math.pi / 4))
    outer, middle = math.atan(1.0 / math.sqrt(2.0)), math.atan(-math.sqrt(3.0) / 3.0)
    return {
        "reconstruction_worst": worst,
        "balanced_pair_angles": [alpha, beta, gamma],
        "balanced_pair_expected": [outer, middle, outer],
        "balanced_pair_deviation": max(
            abs(alpha - outer), abs(beta - middle), abs(gamma - outer)
        ),
    }


# -- measurement covectors ----------------------------------------------------


def quadrature_covector(n_modes: int, mode: int, theta: float) -> np.ndarray:
    """The linear functional measured by homodyning mode at angle theta.

    Returns v with v . x = p_theta = q sin(theta) + p cos(theta) on the
    chosen mode.
    """
    v = np.zeros(2 * n_modes)
    v[mode - 1] = math.sin(theta)
    v[n_modes + mode - 1] = math.cos(theta)
    return v


def measured_quadratures(net: BsNetwork, angles: Sequence[float]) -> np.ndarray:
    """Input-space covectors measured by homodyning every mode after a network.

    Row j is the functional, expressed on the network input quadratures,
    whose value the detector on output mode j reports at angle ``angles[j]``.
    """
    if len(angles) != net.n_modes:
        raise ValueError("one angle per mode required")
    s = network_op(net).matrix
    rows = [
        quadrature_covector(net.n_modes, j + 1, angles[j]) @ s
        for j in range(net.n_modes)
    ]
    return np.array(rows)


def single_mode_supported(covector: np.ndarray, tol: float = 1e-12) -> bool:
    """Whether a covector touches only one mode."""
    n = covector.size // 2
    weights = np.hypot(covector[:n], covector[n:])
    return int((weights > tol).sum()) <= 1


def splitter_removable(covectors: np.ndarray, tol: float = 1e-12) -> bool:
    """Whether two covectors can be rewired into single-mode measurements.

    True iff some invertible recombination of the two functionals is
    supported on one mode each, which for splitter outputs happens exactly
    when the two homodyne angles agree mod pi.
    """
    if covectors.shape[0] != 2:
        raise ValueError("exactly two covectors expected")
    n = covectors.shape[1] // 2
    # restrict to mode 2: a combination killing these components exists iff
    # the 2x2 block is singular; by symmetry the same holds for mode 1
    block = covectors[:, [1, n + 1]]
    return abs(np.linalg.det(block)) <= tol


# -- circuit identities -------------------------------------------------------


@dataclass
class IdentitiesReport:
    """Maximum deviation of each named circuit identity over its test grid."""

    deviations: dict[str, float]
    tol: float
    swap_double_splitter_exact: bool = False

    @property
    def all_pass(self) -> bool:
        return self.swap_double_splitter_exact and all(
            d <= self.tol for d in self.deviations.values()
        )

    def to_json_dict(self) -> dict:
        return {
            "tol": self.tol,
            "all_pass": self.all_pass,
            "swap_double_splitter_exact": self.swap_double_splitter_exact,
            "deviations": self.deviations,
        }


def verify_circuit_identities(tol: float = 1e-12) -> IdentitiesReport:
    """Numerically verify the gate-algebra identities on sampled grids.

    Covers: splitter as shear-squeeze conjugations (both orientations),
    direction reversal by swaps or by parities, controlled-phase from
    sheared splitters, the two swap factorizations, reordering of
    controlled shifts, and the three-splitter angle decomposition.
    """
    devs: dict[str, float] = {}

    thetas = [-1.2, -0.7, -0.3, 0.3, math.pi / 4, 1.0, 1.3]
    dev_a = dev_b = 0.0
    for th in thetas:
        t, sec = math.tan(th), 1.0 / math.cos(th)
        target = beam_splitter(th)
        form_a = cx(t) @ squeeze(1 / sec).tensor(squeeze(sec)) @ (swap() @ cx(-t) @ swap())
        form_b = (swap() @ cx(-t) @ swap()) @ squeeze(sec).tensor(squeeze(1 / sec)) @ cx(t)
        dev_a = max(dev_a, form_a.max_deviation(target))
        dev_b = max(dev_b, form_b.max_deviation(target))
    devs["splitter_shear_squeeze_a"] = dev_a
    devs["splitter_shear_squeeze_b"] = dev_b

    dev = 0.0
    for th in thetas:
        b = beam_splitter(th)
        reversed_b = SymplecticOp(b.matrix.T)
        by_swap = swap() @ b @ swap()
        par1 = double_fourier().embed(2, (1,))
        by_parity = par1 @ b @ par1
        dev = max(dev, by_swap.max_deviation(reversed_b), by_parity.max_deviation(reversed_b))
    devs["splitter_direction_reversal"] = dev

    dev = 0.0
    b_in, b_out = beam_splitter(), swap() @ beam_splitter() @ swap()
    for g in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
        built = b_out @ shear_q(-g).tensor(shear_q(g)) @ b_in
        dev = max(dev, built.max_deviation(cz(g)))
    devs["cz_from_sheared_splitter"] = dev

    cx21 = lambda g: swap() @ cx(g) @ swap()
    chain = double_fourier().embed(2, (1,)) @ cx(1.0) @ cx21(-1.0) @ cx(1.0)
    doubled = double_fourier().embed(2, (1,)) @ beam_splitter() @ beam_splitter()
    devs["swap_from_controlled_shifts"] = chain.max_deviation(swap())
    devs["swap_from_double_splitter"] = doubled.max_deviation(swap())

    dev = 0.0
    for a in (-1.5, -0.5, 1.0, 2.0):
        for b in (-2.0, 0.5, 1.5):
            lhs = _cx3(3, 2, a) @ _cx3(2, 1, b)
            rhs = _cx3(2, 1, b) @ _cx3(3, 2, a) @ _cx3(3, 1, -a * b)
            dev = max(dev, lhs.max_deviation(rhs))
    devs["cx_reordering"] = dev

    euler = euler_round_trip((-1.1, 0.4, 2.2), (-0.6, 0.9, 2.8))
    devs["three_mode_angle_decomposition"] = euler["reconstruction_worst"]
    devs["balanced_pair_euler_angles"] = euler["balanced_pair_deviation"]

    dev = 0.0
    for th in (-1.2, -0.4, 0.0, 0.7, 1.4):
        lhs = quadrature_covector(1, 1, th)
        rhs = math.cos(th) * (quadrature_covector(1, 1, 0.0) @ shear_q(math.tan(th)).matrix)
        dev = max(dev, float(np.abs(lhs - rhs).max()))
    devs["rotated_measurement_as_shear"] = dev

    from .zoo import bell_pair_insertion_identity

    exact = bell_pair_insertion_identity().swap_lemma_holds
    return IdentitiesReport(deviations=devs, tol=tol, swap_double_splitter_exact=exact)


def _cx3(control: int, target: int, g: float) -> SymplecticOp:
    """Controlled shift embedded on a three-mode register."""
    return cx(g).embed(3, (control, target))
