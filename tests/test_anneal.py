"""Annealer: energy oracle values, chain invariants, optimality on small instances."""

import itertools
import math
import types

import numpy as np
import pytest

from phasefold import annealing
from phasefold.annealing import AnnealParams, anneal, default_t0, energy
from phasefold.gf2 import (
    BitMatrix,
    NotInvertibleError,
    popcount,
    random_invertible,
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


def reference_chains(lz, lx, p, t0):
    """The anneal's chains with every energy recomputed from C: ``_chains``' reference.

    The moves come from the seed alone and are shared; attempt a draws its
    start and its Exp(1) variates from ``SeedSequence((seed, a))``.
    """
    n, k = lz.rows, p.iterations
    move_rng = np.random.default_rng(np.random.SeedSequence((p.seed, 1 << 32)))
    moves = move_rng.integers(n * (n - 1), size=k)
    chains = []
    for a in range(p.attempts):
        rng = np.random.default_rng(np.random.SeedSequence((p.seed, a)))
        c = random_invertible(n, rng)
        xi = rng.standard_exponential(k)
        e = energy(c, lz, lx)
        best_e, best_c = e, list(c._r)
        for step in range(k):
            i, j = divmod(int(moves[step]), n - 1)  # pair number -> (i, j), i != j, i-major
            if j >= i:
                j += 1
            rows = list(c._r)
            rows[i] ^= rows[j]
            proposal = BitMatrix(n, n, rows)
            e_new = energy(proposal, lz, lx)
            temp = t0 * (1.0 - step / k)
            if e_new - e < temp * float(xi[step]):  # Metropolis, threshold form
                c, e = proposal, e_new
                if e < best_e:
                    best_e, best_c = e, list(c._r)
        chains.append((best_e, best_c))
    return chains


def assert_candidates_score(res, lz, lx):
    """Every candidate is invertible and scores its attempt's energy; the best is the least."""
    assert len(res.candidates) == len(res.per_attempt_energies)
    for c, e in zip(res.candidates, res.per_attempt_energies):
        assert rank(c) == lz.rows
        assert energy(c, lz, lx) == e
    assert res.best_energy == min((res.initial_energy, *res.per_attempt_energies))


def _leg_matrix(rng, n, d, zero_rows):
    rows = list(random_matrix(n, d, rng)._r)
    for r in zero_rows:
        rows[r] = 0
    return BitMatrix(n, d, rows)


class ZeroThresholds(np.random.Generator):
    """numpy's stream, but every third Exp(1) draw of a generator is 0.0.

    A real draw is 0 with probability 0, so only here does dE equal the
    threshold T_k * xi_k: at 0 a move must lower the energy, and an
    equal-energy move is rejected. Draws are counted across calls, so
    drawing in blocks zeroes the same draws as drawing all at once.
    """

    drawn = 0

    def standard_exponential(self, size=None, dtype=np.float64, method="zig", out=None):
        xi = super().standard_exponential(size, dtype, method, out)
        xi[-self.drawn % 3 :: 3] = 0.0
        self.drawn += xi.size
        return xi


# PACK_MIN_ATTEMPTS values that force each loop whatever the attempt count.
LOOPS = {"one at a time": 1 << 30, "packed": 1}


def _reference_cases():
    pack = annealing.PACK_MIN_ATTEMPTS
    budgets = [(a, k) for a in (1, 2, pack - 1, pack) for k in (1, 10, 1000)]
    budgets += [(a, k) for a in (20, 33) for k in (1, 10)]
    rng = np.random.default_rng(31)
    case = 0
    for n in range(2, 13):
        legs = (
            (7, 0, (), ()),
            (0, 9, (), ()),
            (5, 14, (), ()),
            (14, 3, (n - 1,), (0, n - 1)),
            (84, 33, (0,), ()),
            (1, 1, (), ()),  # dE reaches +-bound, the capped thresholds' end
        )
        for d_z, d_x, zero_z, zero_x in legs:
            attempts, iterations = budgets[case % len(budgets)]
            t0 = (0.05, 1.0, 40.0)[case % 3]
            case += 1
            lz = _leg_matrix(rng, n, d_z, zero_z)
            lx = _leg_matrix(rng, n, d_x, zero_x)
            seed = int(rng.integers(2**32))
            yield lz, lx, AnnealParams(iterations=iterations, attempts=attempts, seed=seed), t0
    # Lanes of 300 set bits would overflow a byte of popcount, so this
    # instance runs one chain at a time whatever the attempt count.
    ones = [BitMatrix(3, d, [(1 << d) - 1] * 3) for d in (200, 100)]
    yield *ones, AnnealParams(iterations=10, attempts=pack, seed=6), 40.0


def test_attempt_matches_reference_chain(monkeypatch):
    """Both loops return the naive chains' (best_e, best_c), attempt by attempt.

    Cases: n = 2..12; Z-only, X-only and mixed legs, all-zero rows, one
    column each, rows of 33-84 columns, and all-ones rows of 100 and 200;
    attempts 1, 2, PACK_MIN_ATTEMPTS - 1 and PACK_MIN_ATTEMPTS up to 1000
    iterations, 20 and 33 attempts at 1 and 10; t0 0.05, 1 and 40. Half
    the cases, picked by seed, run on the zero-threshold stream.
    """
    for lz, lx, p, t0 in _reference_cases():
        with monkeypatch.context() as m:
            if p.seed % 2:
                m.setattr(np.random, "default_rng", lambda s: ZeroThresholds(np.random.PCG64(s)))
            want = reference_chains(lz, lx, p, t0)
            for loop, threshold in LOOPS.items():
                m.setattr(annealing, "PACK_MIN_ATTEMPTS", threshold)
                got = annealing._chains(lz, lx, p, t0)
                assert got == want, (loop, lz.rows, lz.cols, lx.cols, p, t0)


def test_attempt_pool_is_a_prefix_across_loops():
    # Below PACK_MIN_ATTEMPTS chains run one at a time, from it on packed;
    # each attempt's chain is the same either way.
    few = annealing.PACK_MIN_ATTEMPTS - 1
    rng = np.random.default_rng(9)
    for n, d in ((3, 4), (6, 10), (9, 40)):
        lz, lx = random_matrix(n, d, rng), random_matrix(n, d, rng)
        small = anneal(lz, lx, AnnealParams(iterations=400, attempts=few, seed=n))
        large = anneal(lz, lx, AnnealParams(iterations=400, attempts=20, seed=n))
        assert large.per_attempt_energies[:few] == small.per_attempt_energies
        assert large.candidates[:few] == small.candidates
        assert large.best_energy <= small.best_energy


def test_candidates_are_each_attempts_best_c(monkeypatch):
    # On both loops: one candidate per attempt, in attempt order, each
    # invertible and scoring its attempt's energy; the best energy is the
    # lowest over them and I.
    rng = np.random.default_rng(13)
    left_identity = 0
    for n, d, attempts in ((3, 4, 5), (4, 6, 2), (5, 8, 8), (6, 10, 20), (9, 12, 9)):
        lz, lx = random_matrix(n, d, rng), random_matrix(n, d, rng)
        p = AnnealParams(iterations=300, attempts=attempts, seed=n)
        results = []
        for threshold in LOOPS.values():
            monkeypatch.setattr(annealing, "PACK_MIN_ATTEMPTS", threshold)
            results.append(anneal(lz, lx, p))
        res = results[0]
        assert results[1] == res
        assert len(res.candidates) == attempts
        assert_candidates_score(res, lz, lx)
        left_identity += res.best_energy < res.initial_energy
    assert left_identity >= 3


def test_move_stream_is_no_attempt_stream():
    # numpy zero-pads SeedSequence entropy, so (seed,) would be attempt 0's key.
    for seed in (0, 7, 2**40):
        moves = np.random.SeedSequence((seed, annealing.MOVE_KEY)).generate_state(4)
        for a in range(64):
            assert (np.random.SeedSequence((seed, a)).generate_state(4) != moves).any()


def test_annealing_module_is_not_shadowed():
    import phasefold
    import phasefold.annealing as m

    assert isinstance(m, types.ModuleType)
    assert phasefold.anneal is m.anneal
    assert phasefold.anneal is anneal


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
    assert_candidates_score(res, LZ, LX)


def test_anneal_empty_matrices():
    lz, lx = BitMatrix.zeros(3, 0), BitMatrix.zeros(3, 0)
    res = anneal(lz, lx, AnnealParams(iterations=10, attempts=1, seed=0))
    assert (res.best_energy, res.initial_energy, res.candidates) == (0, 0, ())


def test_anneal_single_basis_column_floor():
    # C invertible means C e0 is never zero, so one leg always remains.
    lz = BitMatrix.from_rows([[1], [0], [0]])
    lx = BitMatrix.zeros(3, 0)
    res = anneal(lz, lx, AnnealParams(iterations=500, attempts=3, seed=2))
    assert res.best_energy == 1


def test_anneal_never_worse_than_identity():
    # The chain tracks C, C^-1 and both products incrementally; each best C
    # it returns must be invertible and score exactly its reported energy
    # when recomputed from C alone, and the best energy never loses to the
    # identity.
    rng = np.random.default_rng(5)
    for n in range(2, 7):
        for d_z, d_x in ((5, 0), (0, 5), (5, 5)):
            for _ in range(6):
                lz = random_matrix(n, d_z, rng)
                lx = random_matrix(n, d_x, rng)
                res = anneal(lz, lx, AnnealParams(iterations=200, attempts=1, seed=1))
                assert res.best_energy <= popcount(lz) + popcount(lx)
                assert_candidates_score(res, lz, lx)


def test_anneal_deterministic_per_seed():
    a = anneal(LZ, LX, AnnealParams(iterations=400, attempts=4, seed=11))
    b = anneal(LZ, LX, AnnealParams(iterations=400, attempts=4, seed=11))
    assert a == b


def test_anneal_monotone_in_attempts():
    few = anneal(LZ, LX, AnnealParams(iterations=300, attempts=2, seed=7))
    many = anneal(LZ, LX, AnnealParams(iterations=300, attempts=6, seed=7))
    assert many.per_attempt_energies[:2] == few.per_attempt_energies
    assert many.candidates[:2] == few.candidates
    assert many.best_energy <= few.best_energy


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
    for t0 in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="t0 must be positive and finite"):
            AnnealParams(t0=t0)
    with pytest.raises(ValueError):
        AnnealParams(iterations=0)
    with pytest.raises(ValueError):
        AnnealParams(attempts=0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        AnnealParams(seed=-1)


def test_energy_floor_never_above_the_optimum():
    # Exhaustive over GL(2,2) and GL(3,2): no C scores below the floor. On
    # the worked example (optimum 6) the distinct columns of L_Z, and those
    # of L_X, are independent, so the floor is the 5 nonzero columns.
    rng = np.random.default_rng(41)
    pools = {n: list(all_invertible(n)) for n in (2, 3)}
    met = 0
    for trial in range(200):
        n = 2 + trial % 2
        lz = random_matrix(n, int(rng.integers(0, 6)), rng)
        lx = random_matrix(n, int(rng.integers(0, 6)), rng)
        best = min(energy(c, lz, lx) for c in pools[n])
        floor = annealing._energy_floor(lz, lx)
        assert floor <= best
        met += floor == best
    assert met > 50
    assert annealing._energy_floor(LZ, LX) == 5


def test_anneal_floor_exit_matches_the_chains(monkeypatch):
    # Where the identity meets the floor, anneal returns it without running
    # a chain; the chains, forced to run, end on the same result.
    rng = np.random.default_rng(2020)
    floor = annealing._energy_floor
    exits = 0
    for trial in range(1200):
        n = int(rng.integers(2, 7))
        lz = random_matrix(n, int(rng.integers(0, 6)), rng)
        lx = random_matrix(n, int(rng.integers(0, 6)), rng)
        p = AnnealParams(iterations=150, attempts=int(rng.integers(1, 10)), seed=trial)
        fast = anneal(lz, lx, p)
        monkeypatch.setattr(annealing, "_energy_floor", lambda lz, lx: -1)
        chains = anneal(lz, lx, p)
        monkeypatch.setattr(annealing, "_energy_floor", floor)
        assert chains.best_energy >= floor(lz, lx)
        assert (fast.best_energy, fast.initial_energy) == (
            chains.best_energy,
            chains.initial_energy,
        )
        if fast.per_attempt_energies == ():
            exits += 1
            assert fast.candidates == ()
    assert exits > 100
