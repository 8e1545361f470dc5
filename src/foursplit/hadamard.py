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
    Limited to 1 <= n <= 4 (at most 65,536 candidates).  Bit k of a pattern
    is entry k in row-major order (set bit = -1), so each pattern is n
    indices into the 2**n sign rows, and its Gram entries are read from the
    2**n x 2**n table of row inner products: n on the diagonal, 0 off it.
    No pattern is expanded to a matrix until it has passed.
    """
    if not 1 <= n <= 4:
        raise ValueError(f"brute force enumeration limited to 1 <= n <= 4, got {n}")
    rows = 1 - 2 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)  # (2**n, n)
    gram = (rows @ rows.T).astype(np.int8)
    patterns = np.arange(1 << (n * n), dtype=np.uint16)
    picks = [(patterns >> (n * i)) & ((1 << n) - 1) for i in range(n)]
    ok = np.ones(len(patterns), dtype=bool)
    for i in range(n):
        ok &= gram[picks[i], picks[i]] == n
        for k in range(i + 1, n):
            ok &= gram[picks[i], picks[k]] == 0
    members = rows[np.stack(picks, axis=-1)[ok]]  # (members, n, n)
    return frozenset(map(tuple, members.reshape(-1, n * n).tolist()))


def enumerate_hadamard4() -> frozenset[SignMatrix]:
    """The full 4x4 class; contains 768 matrices."""
    return enumerate_sign_orthogonal(4)


def class_parities(members: np.ndarray) -> np.ndarray:
    """The common row parity of each sign matrix in an (k, n, n) stack.

    Every member of the 4x4 class has all four rows of equal parity; a
    matrix with mixed rows raises, as that indicates it is not in the class.
    """
    parities = (np.asarray(members) < 0).sum(axis=-1, dtype=np.int8) % 2  # (k, n)
    if (parities != parities[:, :1]).any():
        raise ValueError("rows of mixed parity: not a class member")
    return parities[:, 0]


def class_parity(h: SignMatrix) -> int:
    """The common row parity of a class member (see :func:`class_parities`)."""
    return int(class_parities(to_array(h)[None])[0])


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
