"""GF(2) linear algebra: examples, round trips and the triangular-order theorem."""

import functools
import hashlib
import itertools

import numpy as np
import pytest

from phasefold.gf2 import (
    BitMatrix,
    BitVec,
    NotInvertibleError,
    inverse_transpose,
    invert,
    mat_mul,
    popcount,
    random_invertible,
    random_matrix,
    rank,
)

LZ_EXAMPLE = BitMatrix.from_rows([[1, 1, 1], [1, 0, 1], [0, 0, 0]])
LX_EXAMPLE = BitMatrix.from_rows([[1, 1], [1, 1], [1, 0]])
C_EXAMPLE = BitMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]])

STAIRCASE_A = BitMatrix.from_rows(
    [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]]
)


def brute_mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Independent O(n^3) recomputation from the {0,1} grids."""
    aa, bb = a.to_lists(), b.to_lists()
    out = [
        [
            sum(aa[i][k] * bb[k][j] for k in range(a.cols)) % 2
            for j in range(b.cols)
        ]
        for i in range(a.rows)
    ]
    return BitMatrix.from_rows(out, cols=b.cols)


def test_mat_mul_identity():
    assert mat_mul(BitMatrix.identity(3), LZ_EXAMPLE) == LZ_EXAMPLE


def test_mat_mul_worked_example():
    expected = BitMatrix.from_rows([[0, 1, 0], [1, 0, 1], [0, 0, 0]])
    assert mat_mul(C_EXAMPLE, LZ_EXAMPLE) == expected


def test_mat_mul_associative_random():
    rng = np.random.default_rng(101)
    for _ in range(25):
        a = random_invertible(6, rng)
        b = random_invertible(6, rng)
        c = random_invertible(6, rng)
        left = mat_mul(mat_mul(a, b), c)
        right = mat_mul(a, mat_mul(b, c))
        assert left == right
        assert left == brute_mat_mul(brute_mat_mul(a, b), c)


def test_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_mul(BitMatrix.identity(3), BitMatrix.identity(4))


def test_rank_examples():
    assert rank(BitMatrix.identity(4)) == 4
    assert rank(BitMatrix.zeros(3, 3)) == 0
    assert rank(BitMatrix.from_rows([[1, 1], [1, 1]])) == 1


def test_rank_gf2_differs_from_real_rank():
    # [[1,1],[1,1]] has real rank 1 as well, but e.g. this matrix has
    # real rank 3 and GF(2) rank 2: rows sum to zero mod 2.
    m = BitMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert rank(m) == 2
    assert np.linalg.matrix_rank(np.array(m.to_lists(), dtype=float)) == 3


def test_invert_identity_and_roundtrip():
    assert invert(BitMatrix.identity(5)) == BitMatrix.identity(5)
    inv = invert(C_EXAMPLE)
    assert mat_mul(C_EXAMPLE, inv) == BitMatrix.identity(3)
    assert mat_mul(inv, C_EXAMPLE) == BitMatrix.identity(3)


def test_invert_singular():
    with pytest.raises(NotInvertibleError):
        invert(BitMatrix.from_rows([[1, 1], [1, 1]]))


def test_invert_non_square():
    with pytest.raises(ValueError):
        invert(BitMatrix.from_rows([[1, 0, 1], [0, 1, 0]]))


def test_invert_random_roundtrip():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5, 8, 13):
        a = random_invertible(n, rng)
        assert mat_mul(a, invert(a)) == BitMatrix.identity(n)
        assert mat_mul(invert(a), a) == BitMatrix.identity(n)


def test_inverse_transpose_examples():
    assert inverse_transpose(BitMatrix.identity(4)) == BitMatrix.identity(4)
    # The two single-CNOT action matrices are inverse transposes.
    assert inverse_transpose(BitMatrix.from_rows([[1, 1], [0, 1]])) == BitMatrix.from_rows(
        [[1, 0], [1, 1]]
    )


def test_inverse_transpose_involution_and_homomorphism():
    rng = np.random.default_rng(21)
    for _ in range(20):
        a = random_invertible(5, rng)
        b = random_invertible(5, rng)
        assert inverse_transpose(inverse_transpose(a)) == a
        assert inverse_transpose(mat_mul(a, b)) == mat_mul(
            inverse_transpose(a), inverse_transpose(b)
        )


def test_mat_pow_staircase_printed_powers():
    a2 = BitMatrix.from_rows([[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert mat_mul(STAIRCASE_A, STAIRCASE_A) == a2
    a3 = BitMatrix.from_rows([[1, 1, 1, 1], [0, 1, 1, 1], [0, 0, 1, 1], [0, 0, 0, 1]])
    assert functools.reduce(mat_mul, [STAIRCASE_A] * 3) == a3
    assert functools.reduce(mat_mul, [STAIRCASE_A] * 4) == BitMatrix.identity(4)


def test_popcount_examples():
    assert popcount(BitMatrix.zeros(4, 7)) == 0
    assert popcount(LZ_EXAMPLE) == 5
    assert popcount(LX_EXAMPLE) == 5


def test_random_invertible_n1():
    assert random_invertible(1, 5) == BitMatrix.from_rows([[1]])


def test_random_invertible_rank_and_determinism():
    a = random_invertible(3, 1234)
    b = random_invertible(3, 1234)
    assert a == b
    assert rank(a) == 3


def test_random_invertible_stream_pinned():
    # The anneal draws its starts this way, one generator per (seed, attempt):
    # a faster sampler must keep every draw and every rejection.
    h = hashlib.sha256()
    for s in (0, 7, 401, 2**40):
        for a in (0, 1, 19):
            for n in range(1, 10):
                rng = np.random.default_rng(np.random.SeedSequence((s, a)))
                m = random_invertible(n, rng)
                h.update(repr((n, m.to_lists())).encode())
    assert h.hexdigest() == "dd9b63fd80ec98d174e826d5e0a1d70b5a440b8cbed8bf1df00c4d35c2e3d776"


@pytest.mark.parametrize("shape", [(3, 0), (0, 4), (1, 1), (4, 8), (5, 9), (3, 70), (9, 9)])
def test_random_matrix_is_the_drawn_bits(shape):
    for seed in range(3):
        m = random_matrix(*shape, np.random.default_rng(seed))
        bits = np.random.default_rng(seed).integers(0, 2, size=shape, dtype=np.uint8)
        assert (m.rows, m.cols) == shape
        assert m.to_lists() == bits.tolist()


def test_random_invertible_many_samples():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        assert rank(random_invertible(4, rng)) == 4


def _upper_triangular_invertibles(n):
    """All invertible upper-triangular n x n matrices (unit diagonal)."""
    free = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for bits in itertools.product((0, 1), repeat=len(free)):
        grid = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for (i, j), b in zip(free, bits):
            grid[i][j] = b
        yield BitMatrix.from_rows(grid)


def _ceil_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


def test_triangular_periodicity_exhaustive_small():
    for n in (1, 2, 3, 4):
        m = _ceil_pow2(n)
        for b in _upper_triangular_invertibles(n):
            assert functools.reduce(mat_mul, [b] * m) == BitMatrix.identity(n)


def test_triangular_periodicity_random_large():
    rng = np.random.default_rng(17)
    for n in (5, 7, 9, 12, 16):
        m = _ceil_pow2(n)
        for _ in range(20):
            grid = [[0] * n for _ in range(n)]
            for i in range(n):
                grid[i][i] = 1
                for j in range(i + 1, n):
                    grid[i][j] = int(rng.integers(2))
            b = BitMatrix.from_rows(grid)
            assert functools.reduce(mat_mul, [b] * m) == BitMatrix.identity(n)


def test_rank_iff_invertible():
    rng = np.random.default_rng(5)
    for _ in range(50):
        bits = rng.integers(0, 2, size=(4, 4), dtype=np.uint8)
        m = BitMatrix.from_rows(bits.tolist())
        if rank(m) == 4:
            invert(m)
        else:
            with pytest.raises(NotInvertibleError):
                invert(m)


def test_bitvec_basics():
    v = BitVec.from_string("110")
    assert [v[i] for i in range(3)] == [1, 1, 0]
    assert v.popcount() == 2
    assert BitVec.basis(4, 2).to_string() == "0010"
    with pytest.raises(ValueError):
        BitVec.from_string("102")


def test_matrix_immutability():
    m = BitMatrix.identity(2)
    with pytest.raises(AttributeError):
        m.rows = 3


# (constructor call, message fragment): what BitMatrix and BitVec reject.
REJECTED = [
    (lambda: BitMatrix(-1, 2, []), "negative dimensions"),
    (lambda: BitMatrix(1, -1, [0]), "negative dimensions"),
    (lambda: BitMatrix(2, 2, [1]), "row count mismatch"),
    (lambda: BitMatrix(0, 3, [0]), "row count mismatch"),
    (lambda: BitMatrix(2, 2, [1, 4]), "row word out of range for column count"),
    (lambda: BitMatrix(1, 0, [1]), "row word out of range for column count"),
    (lambda: BitMatrix(2, 3, [-1, 0]), "row word out of range for column count"),
    (lambda: BitMatrix(3, 70, [0, 1 << 70, -(1 << 80)]), "row word out of range for column count"),
    (lambda: BitVec(0, 0), "BitVec length must be >= 1"),
    (lambda: BitVec(-1, 0), "BitVec length must be >= 1"),
    (lambda: BitVec(2, 4), "bits out of range for length"),
    (lambda: BitVec(3, -1), "bits out of range for length"),
]


@pytest.mark.parametrize("make, fragment", REJECTED)
def test_constructor_rejections(make, fragment):
    with pytest.raises(ValueError) as err:
        make()
    assert err.type is ValueError
    assert fragment in str(err.value)
