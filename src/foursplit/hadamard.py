"""The class of 4x4 sign matrices with orthogonal rows.

A balanced four-splitter matrix R has all entries +-1/2, so 2R is a 4x4 sign
matrix with pairwise orthogonal rows.  This module enumerates that class by
brute force, generates it from any single member by signed row permutations
and one column negation, and counts how many (network class, left signed
permutation, right column negation) triples realize each member.

Matrices are passed around as flat row-major tuples of +-1 (hashable, cheap
set membership) with converters to numpy and exact form.  Whole-class work
reads 16-bit keys instead: bit k is set where row-major entry k is -1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations, permutations, product
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


def pack_keys(mats: np.ndarray) -> np.ndarray:
    """The keys of 4x4 sign matrices (..., 4, 4), shape (...)."""
    bits = (np.asarray(mats) < 0).reshape(*np.shape(mats)[:-2], 16).astype(np.uint32)
    return bits @ (1 << np.arange(16, dtype=np.uint32))


def from_keys(keys: np.ndarray) -> np.ndarray:
    """The 4x4 sign matrices (k, 4, 4) of k keys, as int8."""
    bits = (np.asarray(keys)[:, None] >> np.arange(16)) & 1
    return (1 - 2 * bits).astype(np.int8).reshape(-1, 4, 4)


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


def enumerate_sign_orthogonal(n: int) -> np.ndarray:
    """Keys of all n x n sign matrices with pairwise orthogonal rows, ascending.

    Sweeps all 2**(n*n) sign patterns; sizes are 2, 8, 768 for n = 1, 2, 4.
    Limited to 1 <= n <= 4 (at most 65,536 candidates).  Bit k of a pattern
    is entry k in row-major order (set bit = -1), so a pattern is n indices
    into the 2**n sign rows and, for n = 4, its matrix's key.  A sign row's
    square norm is always n, so only the off-diagonal Gram entries are read,
    from one flat table of orthogonal row pairs.
    """
    if not 1 <= n <= 4:
        raise ValueError(f"brute force enumeration limited to 1 <= n <= 4, got {n}")
    rows = 1 - 2 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)  # (2**n, n)
    orthogonal = (rows @ rows.T == 0).ravel()
    patterns = np.arange(1 << (n * n), dtype=np.uint16)
    picks = [(patterns >> (n * i)) & ((1 << n) - 1) for i in range(n)]
    ok = np.ones(len(patterns), dtype=bool)
    for i, k in combinations(range(n), 2):
        ok &= orthogonal[(picks[i] << n) | picks[k]]
    return patterns[ok]


def enumerate_hadamard4() -> frozenset[SignMatrix]:
    """The full 4x4 class; contains 768 matrices."""
    return frozenset(map(tuple, from_keys(enumerate_sign_orthogonal(4)).reshape(-1, 16).tolist()))


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
    row signs (+1 first), shape (384, 4, 4).  Built once and read-only; only
    :func:`signed_orbit` multiplies sign matrices by them."""
    perms = np.eye(4, dtype=np.int16)[list(permutations(range(4)))]  # (24, 4, 4)
    signs = np.array(list(product((1, -1), repeat=4)), dtype=np.int16)  # (16, 4)
    mats = (perms[:, None] * signs[None, :, :, None]).reshape(-1, 4, 4)
    mats.setflags(write=False)
    return mats


def signed_orbit(mats: np.ndarray, column_signs: np.ndarray) -> np.ndarray:
    """Every signed row permutation of each of k sign matrices, with its
    columns signed by each of c sign vectors: ``out[i, l, j]`` is
    ``P_l @ mats[i] @ diag(column_signs[j])``, shape (k, 384, c, 4, 4), with
    l in :func:`_signed_row_perms` order.  The one orbit that generation, the
    realization census and the reference decompositions share."""
    rows = _signed_row_perms() @ np.asarray(mats, dtype=np.int16)[:, None]  # (k, 384, 4, 4)
    return rows[:, :, None] * np.asarray(column_signs, dtype=np.int16)[:, None, :]


def generated_keys(seeds: np.ndarray, negate_column: int = 4) -> np.ndarray:
    """Sorted keys of the 768 products each of k seeds (k, 4, 4) generates:
    its signed row permutations, then the same with one column negated.
    Shape (k, 768); a seed generates the class iff its row equals the
    class's keys."""
    if not (1 <= negate_column <= 4):
        raise ValueError(f"column {negate_column} out of range")
    signs = np.ones((2, 4), dtype=np.int16)
    signs[1, negate_column - 1] = -1
    keys = pack_keys(signed_orbit(seeds, signs))
    return np.sort(keys.reshape(len(keys), -1), axis=1)


def generate_class(
    seed: SignMatrix | None = None, negate_column: int = 4
) -> frozenset[SignMatrix]:
    """Generate the whole class from one member.

    Applies every signed row permutation to the seed, then unions the same
    orbit with one fixed column negated.  The choice of ``negate_column``
    (1-based) is arbitrary: any column yields the identical set, and the two
    halves of the union are exactly the even- and odd-parity members.
    """
    h = to_array(seed if seed is not None else seed_matrix())
    keys = generated_keys(h[None], negate_column)[0]
    return frozenset(map(tuple, from_keys(keys).reshape(-1, 16).tolist()))


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
    keys = generated_keys(np.stack(phys))  # (96, 768)
    uniq, cnt = np.unique(keys, return_counts=True)
    members = from_keys(uniq).reshape(-1, 16).tolist()
    counts = {sign_string(h): int(c) for h, c in zip(members, cnt)}
    return RealizationCensus(
        total_products=int(keys.size),
        distinct_results=len(uniq),
        counts=counts,
    )
