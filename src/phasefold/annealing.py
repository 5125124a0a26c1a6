"""Simulated annealing over GL(n,2) minimising total gadget-leg count.

The objective for a candidate C is the number of 1 entries in C @ L_Z
plus the number in (C^T)^-1 @ L_X. A chain's move is a row addition:
for an ordered pair i != j, row j of C is added to row i, C <- E @ C
with E one CNOT. E is invertible, so every proposal stays in GL(n,2)
and none is rejected for being singular.

The chains. One ``anneal`` call runs ``attempts`` chains of K steps.
They share one stream of K moves, drawn uniformly from the n(n-1) pairs
by a generator keyed on the seed alone, ``SeedSequence((seed, 1 << 32))``
(``SeedSequence((seed,))`` would not do: numpy zero-pads entropy, so it
is attempt 0's key). Attempt a draws its random invertible start and its
K Exp(1) variates xi from ``SeedSequence((seed, a))``. Chain a thus
depends only on the moves, its own start and its own xi, so the attempt
pool is a prefix: more attempts never change earlier ones. Each chain is
still exactly a Metropolis chain with uniform row-addition proposals;
only the joint draw couples them. ``anneal`` returns each attempt's best
C, in attempt order, as ``candidates``, and the lowest energy, and picks
none: ``optimize`` chooses C by the CNOTs of its output. When the
identity already scores a lower bound that holds for every C
(``_energy_floor``), no chain can beat it, and none runs: the result has
no per-attempt energies and no candidates.

A chain keeps three lists of packed rows: C, C @ L_Z and
(C^-1)^T @ L_X. A row addition changes one row of each product: row i
of C @ L_Z gains row j, and since (E @ C)^-T = E^T @ C^-T, row j of
(C^-1)^T @ L_X gains row i. The energy change dE is therefore four
popcounts, and an accepted move updates three rows.

The temperature falls linearly, T_k = t0 * (1 - k/K). Metropolis
acceptance, min(1, exp(-dE/T)), is taken in its threshold form: with
xi ~ Exp(1), P(xi > dE/T) = exp(-dE/T), so the move is accepted when
dE < T_k * xi_k. As dE is an integer, that is dE <= ceil(T_k * xi_k) - 1,
an integer threshold.

Before either loop runs, a chain's three row lists are formed on row
words: the start C from ``gf2.random_invertible``, C @ L_Z by row XORs,
and (C^-1)^T @ L_X by replaying on L_X the row operations that reduce
C^T to I.

Two loops run these chains with identical results. ``_attempt`` runs one
chain on plain row words and keeps the popcount of every row, so a step
counts only the two proposed rows. ``_attempts_packed`` steps every
chain at once (multi-spin coding, Jacobs & Rebbi 1981). Row r of all
chains is one int of lanes: lane a is 2F bits at bit 2aF and holds chain
a's row of C @ L_Z in its low F-bit field and its row of (C^-1)^T @ L_X
in the high one, where F is the smallest power of two >= 8 that holds
both column counts and n/2; the rows of C fill whole lanes of their own
ints. A step XORs two rows, takes the popcount of every lane of the
proposal and of the rows it replaces in one SWAR pass over the two
placed side by side, and subtracts them with a bias so that no lane
borrows. A sign-bit compare against one int per step that holds every
lane's integer threshold then gives the mask of accepting lanes, and
masked XORs update the rows. Per lane it also keeps best energy -
energy; its top bit marks the rare step on which a lane improves, and
only then are that lane's C rows copied out. The thresholds are written
attempt by attempt into a uint16 table, a block of steps at a time, and
read as ints with ``int.from_bytes``. A lane's popcount must fit in a
byte, so instances with more than ``_PACK_MAX_LEGS`` columns run one
chain at a time.

Packing costs more per step than one chain and pays off only with
enough chains; the constant ``PACK_MIN_ATTEMPTS`` picks the loop from
the attempt count. Measured per ``anneal`` call, in ms on a 2-vCPU Xeon
(best of 5 passes, on a day when the host ran about half as fast as for
earlier tables; in the same set of measurements 20 x 5000 took 15-24 ms
packed at n = 6): one chain at a time / packed, and in brackets the
set-up, the same call at K = 1 on the loop the attempt count picks. The
instances are the units of the first 6 seed-401 ``ansatz_anneal``
(n = 6) and ``ansatz_verify`` (n = 9) cases and of the first 200
``gate_level`` ones:

    attempts            2                 6                 8                 20
    n = 6, K = 2000     1.74/4.21 (0.29)  4.95/5.89 (0.72)  6.97/6.32 (0.92)  16.8/9.57 (2.21)
    n = 9, K = 2000     2.16/4.79 (0.41)  5.87/6.82 (1.04)  8.06/7.63 (1.36)  19.6/11.1 (3.08)
    gate level, K = 250 0.36/0.63 (0.23)  1.07/1.07 (0.47)  1.04/1.48 (0.75)  3.33/2.55 (1.54)

The set-up is mostly numpy's fixed cost per call: three to four integer
draws per start (rejection), one generator per attempt and one for the
moves.

Tests check both loops against a reference that takes the same draws and
recomputes ``energy`` from C at every step (identical best energy and
best C per attempt, some streams with thresholds of exactly 0), and that
every candidate is invertible and scores its attempt's energy.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .gf2 import (
    BitMatrix,
    _mul_rows,
    _rank,
    _row_ops,
    _transpose_rows,
    inverse_transpose,
    mat_mul,
    popcount,
    random_invertible,
)

DEFAULT_ITERATIONS = 2000
DEFAULT_ATTEMPTS = 20

MOVE_KEY = 1 << 32  # second SeedSequence word of the shared move stream
PACK_MIN_ATTEMPTS = 8  # from this many attempts on, chains step packed
_PACK_MAX_LEGS = 255  # a lane's popcount must fit in a byte
_BLOCK = 1024  # steps per block of packed thresholds
_SIGN = 15  # the accept compare's sign bit within a lane


def default_t0(lz: BitMatrix, lx: BitMatrix) -> float:
    """Initial temperature scaled to the instance: max(5, total legs)/10."""
    return max(5, popcount(lz) + popcount(lx)) / 10.0


@dataclass(frozen=True)
class AnnealParams:
    t0: float | None = None  # None: derive from the instance
    iterations: int = DEFAULT_ITERATIONS
    attempts: int = DEFAULT_ATTEMPTS
    seed: int = 0

    def __post_init__(self):
        if self.t0 is not None and not 0 < self.t0 < np.inf:
            raise ValueError("t0 must be positive and finite")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class AnnealResult:
    best_energy: int  # the lowest over the identity and every attempt
    initial_energy: int
    per_attempt_energies: tuple[int, ...] = ()
    candidates: tuple[BitMatrix, ...] = ()  # each attempt's best C


def energy(c: BitMatrix, lz: BitMatrix, lx: BitMatrix) -> int:
    """popcount(C @ L_Z) + popcount((C^T)^-1 @ L_X)."""
    return popcount(mat_mul(c, lz)) + popcount(mat_mul(inverse_transpose(c), lx))


def _multi_leg_floor(weights: Mapping[int, int]) -> int:
    """Least total weight of the words that keep two legs or more under any C in GL(n,2).

    ``weights`` maps distinct nonzero leg words to weights. An invertible
    matrix keeps them nonzero and distinct, and unit words are
    independent, so at most rank(words) of them can map to one leg; the
    others keep two or more, and the cheapest are the lightest.
    """
    ordered = sorted(weights.values())
    return sum(ordered[: len(ordered) - _rank(list(weights))])


def _energy_floor(lz: BitMatrix, lx: BitMatrix) -> int:
    """A lower bound on ``energy`` over every C in GL(n,2).

    C @ L_Z and (C^T)^-1 @ L_X are each an invertible matrix times L, so
    every nonzero column keeps one leg at least, and each copy of a
    column that keeps two or more costs one more (``_multi_leg_floor``).
    """
    floor = 0
    for m in (lz, lx):
        counts = Counter(w for w in _transpose_rows(m._r, m.cols) if w)
        floor += sum(counts.values()) + _multi_leg_floor(counts)
    return floor


Start = tuple[list[int], list[int], list[int]]  # rows of C, C @ L_Z, (C^-1)^T @ L_X


def _start(c: list[int], lz: BitMatrix, lx: BitMatrix) -> Start:
    """A chain's three row lists for the start with rows ``c``."""
    y = list(lx._r)
    for r, s in _row_ops(_transpose_rows(c, len(c))):  # replayed on L_X: (C^T)^-1 @ L_X
        y[r] ^= y[s]
    return c, _mul_rows(c, lz._r), y


def _attempt(
    start: Start, moves: tuple[list[int], list[int]], limits: list[int]
) -> tuple[int, list[int]]:
    """One chain; ``limits[k]`` is ceil(T_k * xi_k). Returns (best energy, best C rows)."""
    c, clz, y = start
    pz = [w.bit_count() for w in clz]  # popcounts of the rows of C @ L_Z
    py = [w.bit_count() for w in y]
    e = sum(pz) + sum(py)
    best_e, best_c = e, list(c)
    for i, j, limit in zip(*moves, limits):
        a = clz[i] ^ clz[j]
        b = y[j] ^ y[i]
        ca = a.bit_count()
        cb = b.bit_count()
        de = ca - pz[i] + cb - py[j]
        if de < limit:
            c[i] ^= c[j]
            clz[i] = a
            y[j] = b
            pz[i] = ca
            py[j] = cb
            e += de
            if e < best_e:
                best_e, best_c = e, list(c)
    return best_e, best_c


def _attempts_packed(
    lz: BitMatrix,
    lx: BitMatrix,
    starts: list[Start],
    moves: tuple[list[int], list[int]],
    temps: np.ndarray,
    rngs: list[np.random.Generator],
) -> list[tuple[int, list[int]]]:
    """Every chain stepped at once on lane-packed rows; ``_attempt``'s results.

    Needs ``lz.cols + lx.cols <= _PACK_MAX_LEGS``.
    """
    n, lanes = lz.rows, len(starts)
    f = 8  # field bits
    while f < max(lz.cols, lx.cols, (n + 1) // 2):
        f *= 2
    w = 2 * f
    bound = lz.cols + lx.cols  # |dE| <= bound
    width = w * lanes

    def spread(v: int, count: int = lanes) -> int:  # v in every lane
        return int.from_bytes(v.to_bytes(w // 8, "little") * count, "little")

    ones = (1 << 2 * width) - 1
    m1, m2, m4 = ones // 3, ones // 5, ones // 17  # 0x55.., 0x33.., 0x0f..
    k = int.from_bytes(b"\1" * (w // 8), "little")  # a lane's byte window
    low_bytes = spread(0xFF, 2 * lanes)
    low_half = (1 << width) - 1
    xm = spread(((1 << f) - 1) << f)  # the X fields
    one = spread(1)
    bias = spread(bound)
    top = one << (w - 1)
    offset = (1 << (w - 1)) - 1

    r_rows = [0] * n  # row r of every chain's C @ L_Z | (C^-1)^T @ L_X << f
    c_rows = [0] * n
    best_e = []
    for a, (c, clz, y) in enumerate(starts):
        s = a * w
        for r in range(n):
            r_rows[r] |= (clz[r] | y[r] << f) << s
            c_rows[r] |= c[r] << s
        best_e.append(sum(v.bit_count() for v in clz) + sum(v.bit_count() for v in y))
    best_c = [list(c) for c, _, _ in starts]
    offsets = spread(offset)
    slack = offsets  # lane: best energy - energy + offset; bit w-1 set iff better
    row_mask = (1 << n) - 1
    lane = (1 << w) - 1

    iterations = len(temps)
    xi = np.empty((lanes, min(_BLOCK, iterations)))
    table = np.zeros((xi.shape[1], lanes, w // 16), dtype="<u2")
    step = width // 8
    from_bytes = int.from_bytes
    for k0 in range(0, iterations, _BLOCK):
        k1 = min(k0 + _BLOCK, iterations)
        for a, rng in enumerate(rngs):
            rng.standard_exponential(out=xi[a, : k1 - k0])
        # Lane threshold 2^15 - 1 + bound + c, c = ceil(T_k xi) capped at
        # bound + 1 (dE is an integer in [-bound, bound]): with
        # g = dE + bound, bit 15 of threshold - g is set exactly when
        # dE < c, that is when dE < T_k xi.
        limit = np.minimum(np.ceil(temps[k0:k1] * xi[:, : k1 - k0]), bound + 1)
        table[: k1 - k0, :, 0] = (limit + (bound + (1 << _SIGN) - 1)).T
        buf = table[: k1 - k0].tobytes()
        thresholds = [from_bytes(buf[o : o + step], "little") for o in range(0, len(buf), step)]
        for i, j, th in zip(moves[0][k0:k1], moves[1][k0:k1], thresholds):
            ri = r_rows[i]
            rj = r_rows[j]
            x = ri ^ rj  # the proposal's row i (Z fields) and row j (X fields)
            # Popcounts of each lane of x and of the rows it replaces, at once.
            p = x | (ri ^ (x & xm)) << width
            p = p - ((p >> 1) & m1)
            p = (p & m2) + ((p >> 2) & m2)
            p = (((p + (p >> 4)) & m4) * k >> (w - 8)) & low_bytes
            g = (p & low_half) + bias - (p >> width)  # lane: dE + bound
            acc = ((th - g) >> _SIGN) & one
            if acc:
                acc *= lane  # accepting lanes, all bits
                mx = acc & xm
                mz = acc ^ mx
                r_rows[i] = ri ^ (rj & mz)
                r_rows[j] = rj ^ (ri & mx)
                c_rows[i] ^= c_rows[j] & acc
                slack += (bias & acc) - (g & acc)
                if slack & top:
                    better = (slack & top) >> (w - 1)
                    reset = better * lane
                    while better:
                        low = better & -better
                        s = low.bit_length() - 1
                        a = s // w
                        best_e[a] -= ((slack >> s) & lane) - offset
                        best_c[a] = [(c >> s) & row_mask for c in c_rows]
                        better ^= low
                    slack ^= (slack ^ offsets) & reset
    return list(zip(best_e, best_c))


def _chains(
    lz: BitMatrix, lx: BitMatrix, p: AnnealParams, t0: float
) -> list[tuple[int, list[int]]]:
    """Each attempt's (best energy, best C rows); the attempt count picks the loop."""
    n, k = lz.rows, p.iterations
    # The shared moves: pair (i, j), i != j, numbered in i-major order.
    rng = np.random.default_rng(np.random.SeedSequence((p.seed, MOVE_KEY)))
    i_of, r = np.divmod(rng.integers(n * (n - 1), size=k), n - 1)
    moves = i_of.tolist(), (r + (r >= i_of)).tolist()
    temps = t0 * (1.0 - np.arange(k) / k)
    rngs = [np.random.default_rng(np.random.SeedSequence((p.seed, a))) for a in range(p.attempts)]
    starts = [_start(list(random_invertible(n, rng)._r), lz, lx) for rng in rngs]
    if p.attempts >= PACK_MIN_ATTEMPTS and lz.cols + lx.cols <= _PACK_MAX_LEGS:
        return _attempts_packed(lz, lx, starts, moves, temps, rngs)
    # ceil(T_k xi_k) capped at bound + 1, as in the packed loop: dE in
    # [-bound, bound] is below the cap exactly when it is below T_k xi_k.
    cap = lz.cols + lx.cols + 1
    return [
        _attempt(
            start,
            moves,
            np.minimum(np.ceil(temps * rng.standard_exponential(k)), cap).astype(np.int64).tolist(),
        )
        for start, rng in zip(starts, rngs)
    ]


def anneal(lz: BitMatrix, lx: BitMatrix, p: AnnealParams | None = None) -> AnnealResult:
    """Each of ``p.attempts`` chains' best C and the lowest energy; deterministic per seed."""
    if lz.rows != lx.rows:
        raise ValueError("L_Z and L_X must have the same number of rows")
    n = lz.rows
    if n < 1:
        raise ValueError("need at least one qubit row")
    if p is None:
        p = AnnealParams()

    identity_energy = popcount(lz) + popcount(lx)
    # Nothing to search: no C scores below the floor, and the identity
    # meets it. It always does for n = 1 (GL(1,2) = {I}) and with no legs.
    if identity_energy == _energy_floor(lz, lx):
        return AnnealResult(identity_energy, identity_energy)

    t0 = p.t0 if p.t0 is not None else default_t0(lz, lx)
    results = _chains(lz, lx, p, t0)
    per_attempt = tuple(e for e, _ in results)
    candidates = tuple(BitMatrix(n, n, rows) for _, rows in results)
    return AnnealResult(min(identity_energy, *per_attempt), identity_energy, per_attempt, candidates)
