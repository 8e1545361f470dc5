"""Exact arithmetic in the ring of quadratic integers scaled by half-integer
powers of two.

Every matrix entry produced by a network of balanced beam splitters lies in

    { (a + b*sqrt(2)) / sqrt(2)**m  :  a, b integers, m >= 0 },

so products, transposes and equality tests of such matrices can be carried
out without any floating point arithmetic.  This is the one kernel for that
ring: :class:`ExactMatrix` holds int64 parts ``A``, ``B`` at one exponent ``m``,
:func:`ring_matmul` multiplies single or stacked parts, and
:func:`magnitude_mask` reads entry magnitudes exactly from the parts.
:class:`ExactScalar` is the entry view, serializer and reference arithmetic.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

SQRT2 = math.sqrt(2.0)


class ExactScalar:
    """An exact value ``(a + b*sqrt(2)) / sqrt(2)**m`` with integer a, b.

    The representation is normalized so that either ``m == 0`` or ``a`` is
    odd; zero is always stored as ``(0, 0, 0)``.  Two scalars are equal iff
    their normalized components are equal, so no tolerance is ever involved.
    Components are plain Python integers and never overflow.
    """

    __slots__ = ("a", "b", "m")

    def __init__(self, a: int, b: int = 0, m: int = 0) -> None:
        if m < 0:
            raise ValueError(f"denominator exponent must be >= 0, got {m}")
        # (a + b*sqrt2)/sqrt2^m == (b + (a//2)*sqrt2)/sqrt2^(m-1) when a is even
        while m > 0 and a % 2 == 0:
            a, b, m = b, a // 2, m - 1
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "m", m)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ExactScalar is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> ExactScalar:
        return ExactScalar(0)

    @staticmethod
    def one() -> ExactScalar:
        return ExactScalar(1)

    @staticmethod
    def inv_sqrt2() -> ExactScalar:
        """The balanced beam-splitter amplitude 1/sqrt(2)."""
        return ExactScalar(1, 0, 1)

    # -- arithmetic ---------------------------------------------------------

    def _lift(self, m: int) -> tuple[int, int]:
        """Numerator (a, b) after rescaling to denominator sqrt(2)**m."""
        k = m - self.m
        if k < 0:
            raise ValueError("cannot lower the denominator exponent")
        a, b = self.a, self.b
        if k % 2:
            a, b = 2 * b, a
            k -= 1
        return a << (k // 2), b << (k // 2)

    def __add__(self, other: ExactScalar) -> ExactScalar:
        if not isinstance(other, ExactScalar):
            return NotImplemented
        m = max(self.m, other.m)
        a1, b1 = self._lift(m)
        a2, b2 = other._lift(m)
        return ExactScalar(a1 + a2, b1 + b2, m)

    def __sub__(self, other: ExactScalar) -> ExactScalar:
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> ExactScalar:
        return ExactScalar(-self.a, -self.b, self.m)

    def __mul__(self, other: ExactScalar | int) -> ExactScalar:
        if isinstance(other, int):
            other = ExactScalar(other)
        if not isinstance(other, ExactScalar):
            return NotImplemented
        a = self.a * other.a + 2 * self.b * other.b
        b = self.a * other.b + self.b * other.a
        return ExactScalar(a, b, self.m + other.m)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return (self.a, self.b, self.m) == (other.a, other.b, other.m)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.m))

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __float__(self) -> float:
        return (self.a + self.b * SQRT2) / SQRT2**self.m

    def __abs__(self) -> ExactScalar:
        # a + b*sqrt2 takes the sign of whichever of a**2, 2*b**2 is larger
        a, b = self.a, self.b
        negative = (a < 0 and a * a > 2 * b * b) or (b < 0 and 2 * b * b > a * a)
        return -self if negative else self

    def __repr__(self) -> str:
        return f"ExactScalar({self.a}, {self.b}, {self.m})"

    def __str__(self) -> str:
        return self.text()

    def text(self) -> str:
        """Canonical serialization ``(a+b√2)/√2^m``."""
        sign = "+" if self.b >= 0 else "-"
        return f"({self.a}{sign}{abs(self.b)}√2)/√2^{self.m}"


INV_SQRT2 = ExactScalar.inv_sqrt2()


def ring_matmul(a1: np.ndarray, b1: np.ndarray, a2: np.ndarray, b2: np.ndarray) -> tuple:
    """Parts of (A1 + B1*sqrt2) @ (A2 + B2*sqrt2): (A1A2 + 2B1B2, A1B2 + B1A2).

    Takes single (n, n) or stacked (..., n, n) int64 arrays; the caller adds
    the exponents.  Raises OverflowError where an entry could leave int64.
    """
    # magnitudes as Python ints, so neither they nor the bound can wrap
    mags = (max(int(x.max(initial=0)), -int(x.min(initial=0))) for x in (a1, b1, a2, b2))
    ma1, mb1, ma2, mb2 = mags
    bound = a1.shape[-1] * max(ma1 * ma2 + 2 * mb1 * mb2, ma1 * mb2 + mb1 * ma2)
    if bound > np.iinfo(np.int64).max:
        raise OverflowError("exact matrix product exceeds the int64 range")
    return a1 @ a2 + 2 * (b1 @ b2), a1 @ b2 + b1 @ a2


def magnitude_mask(a: np.ndarray, b: np.ndarray, m: int, k: int) -> np.ndarray:
    """Which entries of (A + B*sqrt2)/sqrt2**m equal +-1/sqrt2**k, for single or
    stacked parts.  At exponent m that value has parts (+-2**((m-k)/2), 0) for
    even m - k and (0, +-2**((m-k-1)/2)) for odd m - k; below m = k nothing
    matches (the -1 below)."""
    big, small = (a, b) if (m - k) % 2 == 0 else (b, a)
    return (np.abs(big) == (1 << (m - k) // 2 if m >= k else -1)) & (small == 0)


def signs_of_halves(a: np.ndarray, b: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(mask, signs): which (stacked) matrices have every entry +-1/2, and 2R there."""
    signs = np.sign(a if m % 2 == 0 else b).astype(np.int8)
    return magnitude_mask(a, b, m, 2).all(axis=(-2, -1)), signs


def _assign(mat: ExactMatrix, a: np.ndarray, b: np.ndarray, m: int) -> ExactMatrix:
    if m < 0:
        raise ValueError(f"denominator exponent must be >= 0, got {m}")
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    # (A + B*sqrt2)/sqrt2^m == (B + (A/2)*sqrt2)/sqrt2^(m-1) when A is even
    while m > 0 and not (a & 1).any():
        a, b, m = b, a >> 1, m - 1
    a.setflags(write=False)
    b.setflags(write=False)
    object.__setattr__(mat, "A", a)
    object.__setattr__(mat, "B", b)
    object.__setattr__(mat, "m", m)
    return mat


class ExactMatrix:
    """A square matrix (A + B*sqrt(2)) / sqrt(2)**m with integer matrices A, B.

    ``A`` and ``B`` are read-only int64 arrays, canonical: ``m == 0`` or some
    entry of ``A`` is odd.  Equal matrices have equal ``(A, B, m)``, so
    equality and hashing compare arrays and sets deduplicate by exact value.
    Leaving the int64 range raises OverflowError.  Named constructors take
    1-based mode indices, the convention used throughout for optical modes.
    """

    __slots__ = ("A", "B", "m")

    def __init__(self, rows: Iterable[Iterable[ExactScalar]]) -> None:
        tup = tuple(tuple(r) for r in rows)
        n = len(tup)
        if any(len(r) != n for r in tup):
            raise ValueError("matrix must be square")
        m = max((x.m for r in tup for x in r), default=0)
        parts = np.array([x._lift(m) for r in tup for x in r], dtype=np.int64).reshape(n, n, 2)
        _assign(self, parts[..., 0], parts[..., 1], m)

    @classmethod
    def _from_parts(cls, a: np.ndarray, b: np.ndarray, m: int) -> ExactMatrix:
        return _assign(object.__new__(cls), a, b, m)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def identity(n: int) -> ExactMatrix:
        return ExactMatrix.from_ints(np.eye(n, dtype=np.int64))

    @staticmethod
    def from_ints(rows: Sequence[Sequence[int]], denom_exp: int = 0) -> ExactMatrix:
        """Matrix of integers, each divided by sqrt(2)**denom_exp."""
        a = np.array(rows, dtype=np.int64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        return ExactMatrix._from_parts(a, np.zeros_like(a), denom_exp)

    # -- algebra ------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def rows(self) -> tuple[tuple[ExactScalar, ...], ...]:
        """Entry view: every entry as a canonical :class:`ExactScalar`."""
        return tuple(
            tuple(ExactScalar(a, b, self.m) for a, b in zip(ra, rb))
            for ra, rb in zip(self.A.tolist(), self.B.tolist())
        )

    def __matmul__(self, other: ExactMatrix) -> ExactMatrix:
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        a, b = ring_matmul(self.A, self.B, other.A, other.B)
        return ExactMatrix._from_parts(a, b, self.m + other.m)

    def transpose(self) -> ExactMatrix:
        return ExactMatrix._from_parts(self.A.T, self.B.T, self.m)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        same = self.m == other.m and np.array_equal(self.A, other.A)
        return same and np.array_equal(self.B, other.B)

    def __hash__(self) -> int:
        return hash((self.m, self.A.shape, self.A.tobytes(), self.B.tobytes()))

    def __getitem__(self, ij: tuple[int, int]) -> ExactScalar:
        i, j = ij
        return ExactScalar(int(self.A[i, j]), int(self.B[i, j]), self.m)

    def is_orthogonal(self) -> bool:
        """Exact test of M @ M.T == identity."""
        return self @ self.transpose() == ExactMatrix.identity(self.n)

    def doubled_signs(self) -> np.ndarray | None:
        """2R as a +-1 int8 array when every entry is +-1/2, else None."""
        ok, signs = signs_of_halves(self.A, self.B, self.m)
        return signs if ok else None

    def to_float(self) -> np.ndarray:
        return np.array([[float(x) for x in r] for r in self.rows], dtype=float)

    def text_rows(self) -> list[list[str]]:
        return [[x.text() for x in r] for r in self.rows]

    def __repr__(self) -> str:
        body = ", ".join("[" + ", ".join(x.text() for x in r) + "]" for r in self.rows)
        return f"ExactMatrix([{body}])"


def beam_splitter_matrix(n: int, src: int, dst: int) -> ExactMatrix:
    """Balanced beam splitter directed from mode ``src`` into mode ``dst``.

    On the (src, dst) mode pair the block is [[1, -1], [1, 1]]/sqrt(2); the
    remaining modes are untouched.  Reversing the direction transposes the
    matrix.  Modes are 1-based and must be distinct and within range.
    """
    if src == dst or not (1 <= src <= n) or not (1 <= dst <= n):
        raise ValueError(f"invalid mode pair ({src}, {dst}) for {n} modes")
    j, k = src - 1, dst - 1
    # sqrt(2) * R: the block's integers in A, sqrt(2) on the untouched modes in B
    a = np.zeros((n, n), dtype=np.int64)
    a[[j, j, k, k], [j, k, j, k]] = (1, -1, 1, 1)
    b = np.diag([0 if i in (j, k) else 1 for i in range(n)])
    return ExactMatrix._from_parts(a, b, 1)


def permutation_matrix(n: int, perm: Sequence[int]) -> ExactMatrix:
    """Row-permutation matrix: left multiplication sends row i to row perm[i].

    ``perm`` lists, for each output row (1-based), which input row it takes,
    so ``permutation_matrix(4, (1, 2, 4, 3))`` swaps modes 3 and 4.
    """
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {perm}")
    return ExactMatrix.from_ints(np.eye(n, dtype=np.int64)[[p - 1 for p in perm]])


def swap_matrix(n: int, j: int, k: int) -> ExactMatrix:
    """Permutation matrix exchanging modes j and k (1-based)."""
    perm = list(range(1, n + 1))
    perm[j - 1], perm[k - 1] = perm[k - 1], perm[j - 1]
    return permutation_matrix(n, perm)


def negation_matrix(n: int, j: int) -> ExactMatrix:
    """Diagonal matrix negating mode j (1-based): a mode-local sign flip."""
    if not (1 <= j <= n):
        raise ValueError(f"mode {j} out of range for {n} modes")
    return ExactMatrix.from_ints(np.diag([-1 if i == j else 1 for i in range(1, n + 1)]))
