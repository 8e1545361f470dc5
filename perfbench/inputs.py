"""Seeded inputs for the benchmark workloads, made without the package under test.

The conditioning filter of the gadget workloads uses its own closed-form V
gate and its own copy of the registry's angle slots, restriction pairs and
reference angle table, so one seed yields byte-identical inputs on every
commit, whatever the package does.  Only numpy's generator is involved.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

HALF_PI = math.pi / 2
CHI = math.atan(2.0)

ORACLE_GATES = ("QRL", "cBSL", "cDBSL", "cMSG", "cMBSL", "vcBSL", "vcDBSL", "vcMSG")

#: Angle index (1-based) feeding each V-factor slot, per completed
#: architecture: slots 0 and 1 make the first V factor, slots 2 and 3 the
#: second.  Copied from the registry's gate_slots.
SLOT_ANGLES = {
    "QRL": (1, 2, 3, 4),
    "cBSL": (1, 2, 4, 3),
    "cDBSL": (1, 3, 4, 2),
    "cMSG": (1, 2, 4, 3),
    "cMBSL": (4, 3, 1, 2),
}

#: Virtually completed gate -> (completed architecture, pair measured at equal angles).
VIRTUAL = {
    "vcBSL": ("cBSL", (1, 4)),
    "vcDBSL": ("cDBSL", (1, 4)),
    "vcMSG": ("cMSG", (2, 3)),
}

#: Reference-slot order of the angles each virtual completion measures.
VC_ANGLE_MAPS = {"vcBSL": (1, 2, 4, 3), "vcDBSL": (1, 4, 2, 3), "vcMSG": (1, 2, 4, 3)}

#: The reference (QRL) angle table of the gate dictionary.
QRL_ROWS = (
    ("CZ(+1)", (HALF_PI, HALF_PI + CHI, HALF_PI, HALF_PI - CHI)),
    ("CZ(-1)", (HALF_PI, HALF_PI - CHI, HALF_PI, HALF_PI + CHI)),
    ("SWAP", (0.0, HALF_PI, HALF_PI, 0.0)),
    ("identity", (HALF_PI, 0.0, HALF_PI, 0.0)),
    ("fourier_pair", (3 * math.pi / 4, math.pi / 4, 3 * math.pi / 4, math.pi / 4)),
    ("shear_pair(+1)", (HALF_PI, HALF_PI - CHI, HALF_PI, HALF_PI - CHI)),
    ("shear_pair(-1)", (HALF_PI, HALF_PI + CHI, HALF_PI, HALF_PI + CHI)),
)

SINGULAR_TOL = 1e-9  # |sin(angle difference)| below this: V undefined
MAX_V_ENTRY = 2.0  # conditioning filter of the simulation oracle
DRAW_BATCH = 4096  # rejection-sampling batch; small, to keep the pool's peak memory low

COMPLETION_BASES = ("BSL", "DBSL", "MSG")
KINDS = ("oracle", "completion", "noise")


def mapped_angles(vc_name: str, qrl_angles) -> tuple[float, ...]:
    return tuple(qrl_angles[i - 1] for i in VC_ANGLE_MAPS[vc_name])


def _mapped_rows() -> tuple[tuple[str, str, tuple[float, ...]], ...]:
    """(gate, vc name, QRL angles) of every restriction-compatible mapped row."""
    rows = []
    for gate, angles in QRL_ROWS:
        for vc_name in VC_ANGLE_MAPS:
            j, k = VIRTUAL[vc_name][1]
            mapped = mapped_angles(vc_name, angles)
            if abs(mapped[j - 1] - mapped[k - 1]) <= 1e-12:
                rows.append((gate, vc_name, angles))
    return tuple(rows)


MAPPED_ROWS = _mapped_rows()
if len(MAPPED_ROWS) != 16:
    raise RuntimeError(f"expected 16 mapped dictionary rows, found {len(MAPPED_ROWS)}")


def v_max_entry(theta1: np.ndarray, theta2: np.ndarray) -> np.ndarray:
    """Largest |entry| of V(theta1, theta2); inf where V is undefined.

    V = R(phi) Pq(g) R(phi) with phi = theta1 - pi/2, g = 2 cot(theta1 -
    theta2), R the rotation [[c, -s], [s, c]] and Pq(g) the position shear
    [[1, 0], [g, 1]], which multiplies out to
    [[cos 2phi - g c s, -sin 2phi + g s^2], [sin 2phi + g c^2, cos 2phi - g c s]].
    """
    diff = theta1 - theta2
    defined = np.abs(np.sin(diff)) >= SINGULAR_TOL
    g = 2.0 / np.tan(np.where(defined, diff, 1.0))
    phi = theta1 - HALF_PI
    c, s = np.cos(phi), np.sin(phi)
    c2, s2 = np.cos(2 * phi), np.sin(2 * phi)
    entries = np.stack(
        [c2 - g * c * s, -s2 + g * s * s, s2 + g * c * c, c2 - g * c * s]
    )
    return np.where(defined, np.abs(entries).max(axis=0), np.inf)


def _restricted_angles(rng: np.random.Generator, gates: np.ndarray, names) -> np.ndarray:
    """Uniform angles in [-pi, pi)^4, equal on the restriction pair of vc gates."""
    angles = rng.uniform(-math.pi, math.pi, size=(len(gates), 4))
    for g, name in enumerate(names):
        if name in VIRTUAL:
            j, k = VIRTUAL[name][1]
            rows = gates == g
            angles[rows, k - 1] = angles[rows, j - 1]
    return angles


def well_conditioned(names, gates: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Both V factors defined and no V entry above MAX_V_ENTRY in magnitude."""
    slots = np.array(
        [SLOT_ANGLES[VIRTUAL[n][0] if n in VIRTUAL else n] for n in names]
    )[gates] - 1
    eff = np.take_along_axis(angles, slots, axis=1)
    worst = np.maximum(v_max_entry(eff[:, 0], eff[:, 1]), v_max_entry(eff[:, 2], eff[:, 3]))
    return worst <= MAX_V_ENTRY


@dataclass(frozen=True)
class Op:
    """One benchmark op.  ``arch`` is a gate name for oracle ops, an incomplete
    architecture for completion ops and a vc gate for noise ops; noise ops
    carry the reference QRL angles."""

    kind: str
    arch: str
    angles: tuple[float, float, float, float]
    db: float
    seed: int


class Pool:
    """Columns of a workload's seeded ops; ``op(i)`` builds one on demand, so
    a large pool stays small in memory."""

    def __init__(self, kind, arch, angles, db, seed, arch_names):
        self.kind, self.arch, self.angles = kind, arch, angles
        self.db, self.seed, self.arch_names = db, seed, arch_names

    def __len__(self) -> int:
        return len(self.kind)

    def op(self, i: int) -> Op:
        kind = KINDS[self.kind[i]]
        return Op(
            kind=kind,
            arch=self.arch_names[kind][self.arch[i]],
            angles=tuple(float(a) for a in self.angles[i]),
            db=float(self.db[i]),
            seed=int(self.seed[i]),
        )


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _conditioned(rng: np.random.Generator, names, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n draws of (gate index into names, restricted angles) that pass the
    conditioning filter, by rejection."""
    kept_gates, kept_angles = [], []
    have = 0
    while have < n:
        gates = rng.integers(len(names), size=DRAW_BATCH)
        angles = _restricted_angles(rng, gates, names)
        keep = well_conditioned(names, gates, angles)
        kept_gates.append(gates[keep])
        kept_angles.append(angles[keep])
        have += int(keep.sum())
    return np.concatenate(kept_gates)[:n], np.concatenate(kept_angles)[:n]


def gadget_oracle(seed: int, n: int) -> Pool:
    """Criterion-11 style checks: random gate name, conditioned random angles."""
    gates, angles = _conditioned(_rng("gadget_oracle", seed), ORACLE_GATES, n)
    return Pool(
        kind=np.zeros(n, dtype=np.int8),
        arch=gates,
        angles=angles,
        db=np.full(n, 60.0),
        seed=np.zeros(n, dtype=np.int64),
        arch_names={"oracle": ORACLE_GATES},
    )


def gadget_sample(seed: int, n: int) -> Pool:
    """About half virtual-completion experiments at conditioned restricted
    angles and 5-15 dB, half noise comparisons of a mapped dictionary row at
    3-20 dB."""
    rng = _rng("gadget_sample", seed)
    noise = rng.random(n) < 0.5
    unit = rng.random(n)
    seeds = rng.integers(0, 2**31, size=n)
    rows = rng.integers(len(MAPPED_ROWS), size=n)
    bases, angles = _conditioned(rng, tuple("vc" + b for b in COMPLETION_BASES), n)
    angles[noise] = np.array([MAPPED_ROWS[r][2] for r in rows[noise]]).reshape(-1, 4)
    return Pool(
        kind=np.where(noise, 2, 1).astype(np.int8),
        arch=np.where(noise, rows, bases),
        angles=angles,
        db=np.where(noise, 3.0 + 17.0 * unit, 5.0 + 10.0 * unit),
        seed=seeds,
        arch_names={
            "completion": COMPLETION_BASES,
            "noise": tuple(vc for _, vc, _ in MAPPED_ROWS),
        },
    )


POOLS = {"gadget_oracle": gadget_oracle, "gadget_sample": gadget_sample}

#: Untimed warm-up ops: one of each check kind of a workload, fixed inputs.
WARMUP = {
    "gadget_oracle": (Op("oracle", "QRL", (HALF_PI, 0.0, HALF_PI, 0.0), 60.0, 0),),
    "gadget_sample": (
        Op("completion", "BSL", (0.8, -0.4, 1.1, 0.8), 10.0, 0),
        Op("noise", "vcBSL", QRL_ROWS[3][1], 10.0, 0),
    ),
}


def verify_seeds(seed: int, n: int) -> list[int]:
    """The ``--seed`` of each ``verify all`` op."""
    return [int(s) for s in _rng("verify_all", seed).integers(0, 2**31, size=n)]


def repeat_shares(arch_keys, angle_keys) -> dict[str, float]:
    """Share of ops whose architecture, and whose angle vector, an earlier op
    of the run already used."""
    shares = {}
    for label, keys in (("arch_reuse_share", arch_keys), ("angle_repeat_share", angle_keys)):
        seen, repeats = set(), 0
        for key in keys:
            repeats += key in seen
            seen.add(key)
        shares[label] = repeats / len(keys) if keys else 0.0
    return shares
