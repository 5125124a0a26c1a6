"""Dense linear algebra over GF(2).

Rows are bit-packed into Python integers (bit ``j`` of a row word is
column ``j``), so row operations are single XORs and weight counting is
``int.bit_count``. The semantic contract is the plain {0,1} grid exposed
by :meth:`BitMatrix.to_lists`. ``BitVec`` and ``BitMatrix`` are frozen,
slotted dataclasses like the package's other value types: fields compare
and hash as a tuple, and ``__post_init__`` checks their ranges.

Invertibility is always decided by Gaussian elimination over GF(2)
(``rank``, ``row_ops``), never by a determinant computed over the
integers or floats. Pivoting is deterministic: the first row with a 1 in
the current column, scanning top-down. ``row_ops`` is the one
elimination that inverts a matrix and synthesises its CNOT circuit.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True, slots=True)
class BitVec:
    """Binary vector; bit ``i`` is coordinate ``i`` (qubit ``i`` for gadget legs)."""

    n: int
    bits: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("BitVec length must be >= 1")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError("bits out of range for length")

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

    def popcount(self) -> int:
        return self.bits.bit_count()

    def to_string(self) -> str:
        return "".join(str((self.bits >> i) & 1) for i in range(self.n))

    def __repr__(self) -> str:
        return f"BitVec({self.to_string()!r})"


@dataclass(frozen=True, slots=True)
class BitMatrix:
    """Immutable binary matrix with rows packed into integers."""

    rows: int
    cols: int
    _r: tuple[int, ...]  # any sequence of row words, stored as a tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        words = tuple(map(int, self._r))
        if len(words) != self.rows:
            raise ValueError("row count mismatch")
        limit = 1 << self.cols
        for w in words:
            if not 0 <= w < limit:
                raise ValueError("row word out of range for column count")
        object.__setattr__(self, "_r", words)

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
        if any(col.n != n_rows for col in columns):
            raise ValueError("column length mismatch")
        return cls(len(columns), n_rows, [col.bits for col in columns]).transpose()

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, [1 << i for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, [0] * rows)

    def col(self, j: int) -> BitVec:
        bits = 0
        for i in range(self.rows):
            bits |= ((self._r[i] >> j) & 1) << i
        return BitVec(self.rows, bits)

    def to_lists(self) -> list[list[int]]:
        return [[(w >> j) & 1 for j in range(self.cols)] for w in self._r]

    def transpose(self) -> "BitMatrix":
        return BitMatrix(self.cols, self.rows, _transpose_rows(self._r, self.cols))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_identity(self) -> bool:
        return self.is_square() and all(w == (1 << i) for i, w in enumerate(self._r))

    def __repr__(self) -> str:
        return f"BitMatrix({self.to_lists()!r})"


def _transpose_rows(words: Sequence[int], cols: int) -> list[int]:
    """Row words of the transpose of the matrix with row words ``words``."""
    out = [0] * cols
    for i, w in enumerate(words):
        while w:
            low = w & -w
            out[low.bit_length() - 1] |= 1 << i
            w ^= low
    return out


def _mul_rows(a_words: Sequence[int], b_words: Sequence[int]) -> list[int]:
    """Row words of a @ b: row i of a selects the rows of b to XOR."""
    out = []
    for w in a_words:
        acc = 0
        while w:
            low = w & -w
            acc ^= b_words[low.bit_length() - 1]
            w ^= low
        out.append(acc)
    return out


def mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """GF(2) matrix product; entry (i,j) is the XOR of a(i,k)&b(k,j)."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    return BitMatrix(a.rows, b.cols, _mul_rows(a._r, b._r))


def rank(a: BitMatrix) -> int:
    """GF(2) row rank by Gaussian elimination."""
    return _rank(a._r)


def _rank(words: Sequence[int]) -> int:
    """Rank of the rows ``words``.

    Each row is reduced by the pivot rows kept so far, keyed by their
    leading bit, until it is 0 or has a leading bit of its own and
    becomes a pivot row.
    """
    pivots: dict[int, int] = {}
    for w in words:
        while w:
            lead = w.bit_length()
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = w
                break
            w ^= pivot
    return len(pivots)


def row_ops(m: BitMatrix) -> list[tuple[int, int]]:
    """Row operations reducing ``m`` to I; each (r, s) means "row r ^= row s".

    Column by column: a missing pivot is filled from the first lower row
    with the bit set, then the column is cleared in every other row. The
    product of the ops' matrices, in order, is ``m``; replayed on I they
    give its inverse.

    Raises:
        NotInvertibleError: if the matrix is singular over GF(2).
        ValueError: if the matrix is not square.
    """
    if not m.is_square():
        raise ValueError("row reduction to I needs a square matrix")
    return _row_ops(list(m._r))


def _row_ops(rows: list[int]) -> list[tuple[int, int]]:
    """``row_ops`` of the square matrix with row words ``rows``, which it reduces to I."""
    n = len(rows)
    ops: list[tuple[int, int]] = []
    for col in range(n):
        mask = 1 << col
        if not rows[col] & mask:
            source = next((i for i in range(col + 1, n) if rows[i] & mask), None)
            if source is None:
                raise NotInvertibleError(f"matrix has GF(2) rank < {n}")
            rows[col] ^= rows[source]
            ops.append((col, source))
        for i in range(n):
            if i != col and rows[i] & mask:
                rows[i] ^= rows[col]
                ops.append((i, col))
    return ops


def invert(a: BitMatrix) -> BitMatrix:
    """Inverse over GF(2): the ops of ``row_ops(a)`` replayed on I.

    Raises:
        NotInvertibleError: if the matrix is singular over GF(2).
        ValueError: if the matrix is not square.
    """
    rows = [1 << i for i in range(a.rows)]
    for r, s in row_ops(a):
        rows[r] ^= rows[s]
    return BitMatrix(a.rows, a.rows, rows)


def inverse_transpose(a: BitMatrix) -> BitMatrix:
    """(a^T)^-1; propagates NotInvertibleError."""
    return invert(a.transpose())


def popcount(a: BitMatrix) -> int:
    """Number of 1 entries."""
    return sum(map(int.bit_count, a._r))


def _random_rows(n_rows: int, n_cols: int, rng: np.random.Generator) -> list[int]:
    """Row words of a uniformly random n_rows x n_cols binary matrix."""
    bits = rng.integers(0, 2, size=(n_rows, n_cols), dtype=np.uint8)
    # Entry (i, j) is bit i * n_cols + j of the little-endian packing.
    whole = int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
    mask = (1 << n_cols) - 1
    return [whole >> (i * n_cols) & mask for i in range(n_rows)]


def random_matrix(n_rows: int, n_cols: int, rng: np.random.Generator) -> BitMatrix:
    """Uniformly random binary matrix from the given generator."""
    return BitMatrix(n_rows, n_cols, _random_rows(n_rows, n_cols, rng))


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
        words = _random_rows(n, n, rng)
        if _rank(words) == n:
            return BitMatrix(n, n, words)
