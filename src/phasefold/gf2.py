"""Dense linear algebra over GF(2).

Rows are bit-packed into Python integers (bit ``j`` of a row word is
column ``j``), so row operations are single XORs and weight counting is
``int.bit_count``. The semantic contract is the plain {0,1} grid exposed
by :meth:`BitMatrix.to_lists`.

Invertibility is always decided by Gaussian-elimination rank over GF(2),
never by a determinant computed over the integers or floats. Pivoting is
deterministic: the first row with a 1 in the current column, scanning
top-down.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class NotInvertibleError(ValueError):
    """The matrix has no inverse over GF(2)."""


def _pack_row(bits: Sequence[int]) -> int:
    word = 0
    for j, b in enumerate(bits):
        b = int(b)
        if b not in (0, 1):
            raise ValueError(f"entries must be 0 or 1, got {b}")
        word |= b << j
    return word


class BitVec:
    """Binary vector; bit ``i`` is coordinate ``i`` (qubit ``i`` for gadget legs)."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int):
        if n < 1:
            raise ValueError("BitVec length must be >= 1")
        if not 0 <= bits < (1 << n):
            raise ValueError("bits out of range for length")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, *_):
        raise AttributeError("BitVec is immutable")

    @classmethod
    def from_string(cls, s: str) -> "BitVec":
        """Parse a bitstring where character ``k`` is coordinate ``k``."""
        if not s or any(c not in "01" for c in s):
            raise ValueError(f"invalid bitstring {s!r}")
        return cls(len(s), _pack_row([int(c) for c in s]))

    @classmethod
    def basis(cls, n: int, i: int) -> "BitVec":
        return cls(n, 1 << i)

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __and__(self, other: "BitVec") -> "BitVec":
        if self.n != other.n:
            raise ValueError("length mismatch")
        return BitVec(self.n, self.bits & other.bits)

    def popcount(self) -> int:
        return self.bits.bit_count()

    def to_tuple(self) -> tuple[int, ...]:
        return tuple((self.bits >> i) & 1 for i in range(self.n))

    def to_string(self) -> str:
        return "".join(str((self.bits >> i) & 1) for i in range(self.n))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitVec) and self.n == other.n and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        return f"BitVec({self.to_string()!r})"


class BitMatrix:
    """Immutable binary matrix with rows packed into integers."""

    __slots__ = ("rows", "cols", "_r")

    def __init__(self, rows: int, cols: int, row_words: Sequence[int]):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        words = tuple(int(w) for w in row_words)
        if len(words) != rows:
            raise ValueError("row count mismatch")
        limit = 1 << cols
        if any(not 0 <= w < limit for w in words):
            raise ValueError("row word out of range for column count")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_r", words)

    def __setattr__(self, *_):
        raise AttributeError("BitMatrix is immutable")

    @classmethod
    def from_rows(cls, grid: Sequence[Sequence[int]], cols: int | None = None) -> "BitMatrix":
        grid = [list(r) for r in grid]
        if cols is None:
            cols = len(grid[0]) if grid else 0
        if any(len(r) != cols for r in grid):
            raise ValueError("ragged rows")
        return cls(len(grid), cols, [_pack_row(r) for r in grid])

    @classmethod
    def from_cols(cls, n_rows: int, columns: Sequence[BitVec]) -> "BitMatrix":
        words = [0] * n_rows
        for j, col in enumerate(columns):
            if col.n != n_rows:
                raise ValueError("column length mismatch")
            for i in range(n_rows):
                words[i] |= col[i] << j
        return cls(n_rows, len(columns), words)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, [1 << i for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, [0] * rows)

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return (self._r[i] >> j) & 1

    def row_word(self, i: int) -> int:
        return self._r[i]

    def col(self, j: int) -> BitVec:
        bits = 0
        for i in range(self.rows):
            bits |= ((self._r[i] >> j) & 1) << i
        return BitVec(self.rows, bits)

    def to_lists(self) -> list[list[int]]:
        return [[(w >> j) & 1 for j in range(self.cols)] for w in self._r]

    def to_array(self) -> np.ndarray:
        return np.array(self.to_lists(), dtype=np.uint8).reshape(self.rows, self.cols)

    def transpose(self) -> "BitMatrix":
        words = [0] * self.cols
        for i, w in enumerate(self._r):
            while w:
                low = w & -w
                words[low.bit_length() - 1] |= 1 << i
                w ^= low
        return BitMatrix(self.cols, self.rows, words)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_identity(self) -> bool:
        return self.is_square() and all(w == (1 << i) for i, w in enumerate(self._r))

    def is_upper_triangular(self) -> bool:
        return all(not w & ((1 << i) - 1) for i, w in enumerate(self._r))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._r == other._r
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._r))

    def __repr__(self) -> str:
        return f"BitMatrix({self.to_lists()!r})"


def mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """GF(2) matrix product; entry (i,j) is the XOR of a(i,k)&b(k,j)."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    brows = b._r
    words = []
    for w in a._r:
        acc = 0
        while w:
            low = w & -w
            acc ^= brows[low.bit_length() - 1]
            w ^= low
        words.append(acc)
    return BitMatrix(a.rows, b.cols, words)


def mat_vec(a: BitMatrix, v: BitVec) -> BitVec:
    """Product a @ v, with v as a column vector."""
    if a.cols != v.n:
        raise ValueError("dimension mismatch")
    bits = 0
    for i, w in enumerate(a._r):
        bits |= ((w & v.bits).bit_count() & 1) << i
    return BitVec(a.rows, bits)


def rank(a: BitMatrix) -> int:
    """GF(2) row rank by Gaussian elimination."""
    work = list(a._r)
    r = 0
    for col in range(a.cols):
        pivot = None
        mask = 1 << col
        for i in range(r, a.rows):
            if work[i] & mask:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, a.rows):
            if work[i] & mask:
                work[i] ^= work[r]
        r += 1
    return r


def invert(a: BitMatrix) -> BitMatrix:
    """Inverse over GF(2) via Gauss-Jordan on the augmented matrix.

    Raises:
        NotInvertibleError: if the matrix is singular over GF(2).
        ValueError: if the matrix is not square.
    """
    if not a.is_square():
        raise ValueError("only square matrices can be inverted")
    n = a.rows
    work = [a._r[i] | (1 << (n + i)) for i in range(n)]
    r = 0
    for col in range(n):
        mask = 1 << col
        pivot = None
        for i in range(r, n):
            if work[i] & mask:
                pivot = i
                break
        if pivot is None:
            raise NotInvertibleError(f"matrix has GF(2) rank < {n}")
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(n):
            if i != r and work[i] & mask:
                work[i] ^= work[r]
        r += 1
    return BitMatrix(n, n, [w >> n for w in work])


def inverse_transpose(a: BitMatrix) -> BitMatrix:
    """(a^T)^-1; propagates NotInvertibleError."""
    return invert(a.transpose())


def mat_pow(a: BitMatrix, k: int) -> BitMatrix:
    """a multiplied by itself k times; k = 0 gives the identity."""
    if not a.is_square():
        raise ValueError("mat_pow requires a square matrix")
    if k < 0:
        raise ValueError("negative exponent")
    result = BitMatrix.identity(a.rows)
    base = a
    while k:
        if k & 1:
            result = mat_mul(result, base)
        k >>= 1
        if k:
            base = mat_mul(base, base)
    return result


def popcount(a: BitMatrix) -> int:
    """Number of 1 entries."""
    return sum(w.bit_count() for w in a._r)


def random_matrix(n_rows: int, n_cols: int, rng: np.random.Generator) -> BitMatrix:
    """Uniformly random binary matrix from the given generator."""
    bits = rng.integers(0, 2, size=(n_rows, n_cols), dtype=np.uint8)
    return BitMatrix(n_rows, n_cols, [_pack_row(row) for row in bits.tolist()])


def as_rng(seed) -> np.random.Generator:
    """Accept an int seed, a SeedSequence, or a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_invertible(n: int, seed) -> BitMatrix:
    """Uniform sample from GL(n,2) by rejection; deterministic per seed.

    The acceptance probability tends to ~0.289 as n grows, so a handful
    of draws suffice on average.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = as_rng(seed)
    while True:
        m = random_matrix(n, n, rng)
        if rank(m) == n:
            return m
