"""The class of 4x4 sign matrices with orthogonal rows.

A balanced four-splitter matrix R has all entries +-1/2, so 2R is a 4x4 sign
matrix with pairwise orthogonal rows.  This module enumerates that class by
brute force, generates it from any single member by signed row permutations
and one column negation, and counts how many (network class, left signed
permutation, right column negation) triples realize each member.

Matrices are passed around as flat row-major tuples of +-1 (hashable, cheap
set membership) with converters to numpy and exact form.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import permutations, product
from typing import Iterable

import numpy as np

from .exact import ExactMatrix

SignMatrix = tuple[int, ...]


def to_array(h: SignMatrix) -> np.ndarray:
    n = int(round(len(h) ** 0.5))
    return np.array(h, dtype=np.int64).reshape(n, n)


def from_array(arr: np.ndarray) -> SignMatrix:
    if not np.all(np.abs(arr) == 1):
        raise ValueError("not a sign matrix")
    return tuple(int(v) for v in np.asarray(arr, dtype=np.int64).ravel())


def half_exact(h: SignMatrix) -> ExactMatrix:
    """The orthogonal matrix H/2 (entries +-1/2) for a 4x4 member."""
    return ExactMatrix.from_ints((2 * to_array(h)).tolist(), denom_exp=4)


def sign_string(h: SignMatrix) -> str:
    return "".join("+" if v > 0 else "-" for v in h)


def seed_matrix() -> SignMatrix:
    """The standard symmetric member used as the generation seed."""
    return from_array(
        np.array(
            [
                [1, 1, 1, 1],
                [1, -1, 1, -1],
                [1, 1, -1, -1],
                [1, -1, -1, 1],
            ]
        )
    )


def enumerate_sign_orthogonal(n: int) -> frozenset[SignMatrix]:
    """All n x n sign matrices with pairwise orthogonal rows, by brute force.

    Sweeps all 2**(n*n) sign patterns; sizes are 2, 8, 768 for n = 1, 2, 4.
    Limited to 1 <= n <= 4 (at most 65,536 candidates).
    """
    if not 1 <= n <= 4:
        raise ValueError(f"brute force enumeration limited to 1 <= n <= 4, got {n}")
    count = 1 << (n * n)
    bits = (np.arange(count, dtype=np.uint32)[:, None] >> np.arange(n * n)) & 1
    signs = (1 - 2 * bits).astype(np.int16).reshape(count, n, n)
    gram = signs @ signs.transpose(0, 2, 1)
    ok = (gram == n * np.eye(n, dtype=np.int16)).all(axis=(1, 2))
    return frozenset(map(tuple, signs[ok].reshape(-1, n * n).tolist()))


def enumerate_hadamard4() -> frozenset[SignMatrix]:
    """The full 4x4 class; contains 768 matrices."""
    return enumerate_sign_orthogonal(4)


def row_parity(h: SignMatrix) -> tuple[int, ...]:
    """Per-row parity: the number of -1 entries in each row, mod 2."""
    n = int(round(len(h) ** 0.5))
    return tuple(sum(v < 0 for v in h[i : i + n]) % 2 for i in range(0, len(h), n))


def class_parity(h: SignMatrix) -> int:
    """The common row parity of a class member.

    Every member of the 4x4 class has all four rows of equal parity; a mixed
    input raises, as that indicates the matrix is not in the class.
    """
    parities = set(row_parity(h))
    if len(parities) != 1:
        raise ValueError("rows of mixed parity: not a class member")
    return parities.pop()


@functools.cache
def _signed_row_perms() -> np.ndarray:
    """All 4! * 2**4 = 384 signed permutation matrices, by permutation, then
    row signs (+1 first), shape (384, 4, 4).  Built once and read-only: the
    one orbit that generation, the realization census and the reference
    decompositions share."""
    perms = np.eye(4, dtype=np.int16)[list(permutations(range(4)))]  # (24, 4, 4)
    signs = np.array(list(product((1, -1), repeat=4)), dtype=np.int16)  # (16, 4)
    mats = (perms[:, None] * signs[None, :, :, None]).reshape(-1, 4, 4)
    mats.setflags(write=False)
    return mats


def generate_class(
    seed: SignMatrix | None = None, negate_column: int = 4
) -> frozenset[SignMatrix]:
    """Generate the whole class from one member.

    Applies every signed row permutation to the seed, then unions the same
    orbit with one fixed column negated.  The choice of ``negate_column``
    (1-based) is arbitrary: any column yields the identical set, and the two
    halves of the union are exactly the even- and odd-parity members.
    """
    h = to_array(seed if seed is not None else seed_matrix()).astype(np.int16)
    if not (1 <= negate_column <= 4):
        raise ValueError(f"column {negate_column} out of range")
    orbit = _signed_row_perms() @ h  # (384, 4, 4)
    flipped = orbit.copy()
    flipped[:, :, negate_column - 1] *= -1
    both = np.concatenate([orbit, flipped])
    return frozenset(map(tuple, both.reshape(-1, 16).tolist()))


@dataclass
class RealizationCensus:
    """How often each class member arises from a physical network.

    Counts, over all 96 physical network classes, 384 left signed
    permutations and 2 right column negations, which class member the product
    equals.  ``counts`` maps the row-major sign string to its multiplicity.
    """

    total_products: int
    distinct_results: int
    counts: dict[str, int]

    @property
    def multiplicities(self) -> set[int]:
        return set(self.counts.values())

    def to_json_dict(self) -> dict:
        return {
            "total_products": self.total_products,
            "distinct_results": self.distinct_results,
            "multiplicities": sorted(self.multiplicities),
            "counts": dict(sorted(self.counts.items())),
        }


def _pack_keys(mats: np.ndarray) -> np.ndarray:
    """Map sign matrices (..., 4, 4) to 16-bit integer keys."""
    bits = (mats.reshape(-1, 16) < 0).astype(np.uint32)
    return bits @ (1 << np.arange(16, dtype=np.uint32))


def _key_to_sign_string(key: int) -> str:
    return "".join("-" if (key >> i) & 1 else "+" for i in range(16))


def realization_census(network_matrices: Iterable[ExactMatrix]) -> RealizationCensus:
    """Count realizations of each class member over the physical networks.

    ``network_matrices`` are the balanced four-splitter matrices of the
    physical classes (96 of them); each is doubled to a sign matrix and
    multiplied by every signed row permutation on the left and by identity or
    a fixed column negation on the right.
    """
    phys = []
    for mat in network_matrices:
        doubled = mat.doubled_signs()
        if doubled is None:
            raise ValueError("network matrix is not a balanced four-splitter")
        phys.append(doubled)
    phys_arr = np.stack(phys)  # (96, 4, 4)
    lefts = _signed_row_perms()  # (384, 4, 4)
    prods = lefts[:, None] @ phys_arr[None, :]  # (384, 96, 4, 4)
    flipped = prods.copy()
    flipped[..., 3] *= -1
    keys = np.concatenate([_pack_keys(prods), _pack_keys(flipped)])
    uniq, cnt = np.unique(keys, return_counts=True)
    counts = {_key_to_sign_string(int(k)): int(c) for k, c in zip(uniq, cnt)}
    return RealizationCensus(
        total_products=int(keys.size),
        distinct_results=len(uniq),
        counts=counts,
    )
