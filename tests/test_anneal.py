"""Annealer: energy oracle values, chain invariants, optimality on small instances."""

import itertools

import numpy as np
import pytest

from phasefold.anneal import AnnealParams, _Draws, anneal, default_t0, energy
from phasefold.gf2 import (
    BitMatrix,
    NotInvertibleError,
    popcount,
    random_matrix,
    rank,
)

LZ = BitMatrix.from_rows([[1, 1, 1], [1, 0, 1], [0, 0, 0]])
LX = BitMatrix.from_rows([[1, 1], [1, 1], [1, 0]])
C_PAPER = BitMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]])


def all_invertible(n):
    """Every matrix in GL(n,2); fine up to n = 4."""
    for bits in itertools.product((0, 1), repeat=n * n):
        m = BitMatrix.from_rows([bits[i * n : (i + 1) * n] for i in range(n)])
        if rank(m) == n:
            yield m


def brute_force_optimum(lz, lx):
    return min(energy(c, lz, lx) for c in all_invertible(lz.rows))


@pytest.mark.parametrize("consumed", [0, 1, 2, 3])
def test_draws_replay_generator(consumed):
    """_Draws returns numpy's own integers(k) / random() values, in order."""
    plan = np.random.default_rng(99)
    ref = np.random.default_rng(1234 + consumed)
    mine = np.random.default_rng(1234 + consumed)
    for _ in range(consumed):  # odd counts leave a kept 32-bit half behind
        assert ref.integers(7) == mine.integers(7)
    draws = _Draws(mine)
    for _ in range(5000):
        if plan.random() < 0.6:
            k = int(plan.choice([1, 2, 4, 9, 16, 36, 1000, 3_000_000_001, 2**32 - 1]))
            assert draws.integers(k) == int(ref.integers(k)), k
        else:
            assert draws.random() == ref.random()


def test_energy_identity_is_ten():
    assert energy(BitMatrix.identity(3), LZ, LX) == 10


def test_energy_paper_solution_is_six():
    assert energy(C_PAPER, LZ, LX) == 6


def test_energy_empty_matrices():
    lz = BitMatrix.zeros(3, 0)
    lx = BitMatrix.zeros(3, 0)
    assert energy(BitMatrix.identity(3), lz, lx) == 0


def test_energy_rejects_singular():
    with pytest.raises(NotInvertibleError):
        energy(BitMatrix.from_rows([[1, 1], [1, 1]]), BitMatrix.zeros(2, 1), BitMatrix.zeros(2, 0))


def test_gl32_brute_force_optimum_is_six():
    # Exhaustive over all 168 invertible 3x3 matrices: the printed example
    # solution is in fact optimal.
    n_els = 0
    best = None
    for c in all_invertible(3):
        n_els += 1
        e = energy(c, LZ, LX)
        best = e if best is None else min(best, e)
    assert n_els == 168
    assert best == 6


def test_anneal_worked_example_reaches_brute_force_optimum():
    res = anneal(LZ, LX, AnnealParams(t0=5.0, iterations=2000, attempts=5, seed=0))
    assert res.initial_energy == 10
    assert res.best_energy <= 6  # the printed example solution's score
    assert res.best_energy == brute_force_optimum(LZ, LX)
    assert energy(res.best_c, LZ, LX) == res.best_energy
    assert rank(res.best_c) == 3


def test_anneal_empty_matrices():
    lz, lx = BitMatrix.zeros(3, 0), BitMatrix.zeros(3, 0)
    res = anneal(lz, lx, AnnealParams(iterations=10, attempts=1, seed=0))
    assert res.best_energy == 0
    assert res.best_c == BitMatrix.identity(3)


def test_anneal_single_basis_column_floor():
    # C invertible means C e0 is never zero, so one leg always remains.
    lz = BitMatrix.from_rows([[1], [0], [0]])
    lx = BitMatrix.zeros(3, 0)
    res = anneal(lz, lx, AnnealParams(iterations=500, attempts=3, seed=2))
    assert res.best_energy == 1


def test_anneal_never_worse_than_identity():
    # The chain tracks C, C^-1 and both products incrementally; the best C
    # it returns must be invertible, score exactly its reported energy
    # when recomputed from scratch, and never lose to the identity.
    rng = np.random.default_rng(5)
    for n in range(2, 7):
        for d_z, d_x in ((5, 0), (0, 5), (5, 5)):
            for _ in range(6):
                lz = random_matrix(n, d_z, rng)
                lx = random_matrix(n, d_x, rng)
                res = anneal(lz, lx, AnnealParams(iterations=200, attempts=1, seed=1))
                assert res.best_energy <= popcount(lz) + popcount(lx)
                assert rank(res.best_c) == n
                assert energy(res.best_c, lz, lx) == res.best_energy


def test_anneal_deterministic_per_seed():
    a = anneal(LZ, LX, AnnealParams(iterations=400, attempts=4, seed=11))
    b = anneal(LZ, LX, AnnealParams(iterations=400, attempts=4, seed=11))
    assert a == b


def test_anneal_monotone_in_attempts():
    few = anneal(LZ, LX, AnnealParams(iterations=300, attempts=2, seed=7))
    many = anneal(LZ, LX, AnnealParams(iterations=300, attempts=6, seed=7))
    assert many.per_attempt_energies[:2] == few.per_attempt_energies
    assert many.best_energy <= few.best_energy


def test_anneal_identity_tie_prefers_identity():
    # A single one-leg Z gadget: identity already attains the optimum.
    lz = BitMatrix.from_rows([[1], [0]])
    lx = BitMatrix.zeros(2, 0)
    res = anneal(lz, lx, AnnealParams(iterations=200, attempts=2, seed=0))
    assert res.best_energy == 1
    assert res.best_c == BitMatrix.identity(2)


def test_anneal_energy_lower_bound_gadget_matrices():
    # Leg matrices from gadget circuits have nonzero columns, so energy
    # is at least d_z + d_x for every invertible C.
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = 3
        cols_z = [int(rng.integers(1, 1 << n)) for _ in range(3)]
        cols_x = [int(rng.integers(1, 1 << n)) for _ in range(2)]
        lz = BitMatrix.from_rows(
            [[(w >> i) & 1 for w in cols_z] for i in range(n)], cols=3
        )
        lx = BitMatrix.from_rows(
            [[(w >> i) & 1 for w in cols_x] for i in range(n)], cols=2
        )
        res = anneal(lz, lx, AnnealParams(iterations=200, attempts=2, seed=3))
        assert res.best_energy >= 5


def test_anneal_statistical_optimality_small_instances():
    # Seeded acceptance test: the annealer should reach the exhaustive
    # optimum on at least 90% of random small instances.
    rng = np.random.default_rng(77)
    hits = 0
    total = 100
    gl2 = list(all_invertible(2))
    gl3 = list(all_invertible(3))
    for trial in range(total):
        n = 2 if trial % 2 == 0 else 3
        pool = gl2 if n == 2 else gl3
        lz = random_matrix(n, int(rng.integers(1, 5)), rng)
        lx = random_matrix(n, int(rng.integers(1, 5)), rng)
        truth = min(energy(c, lz, lx) for c in pool)
        res = anneal(lz, lx, AnnealParams(iterations=800, attempts=5, seed=trial))
        assert res.best_energy >= truth
        if res.best_energy == truth:
            hits += 1
    assert hits >= 90


def test_default_t0_scaling():
    assert default_t0(LZ, LX) == 1.0  # max(5, 10)/10
    big = BitMatrix.from_rows([[1] * 30 for _ in range(4)], cols=30)
    assert default_t0(big, BitMatrix.zeros(4, 0)) == 12.0


def test_params_validation():
    with pytest.raises(ValueError):
        AnnealParams(t0=0.0)
    with pytest.raises(ValueError):
        AnnealParams(iterations=0)
    with pytest.raises(ValueError):
        AnnealParams(attempts=0)
