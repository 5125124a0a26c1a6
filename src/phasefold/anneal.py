"""Simulated annealing over GL(n,2) minimising total gadget-leg count.

The objective for a candidate C is the number of 1 entries in C @ L_Z
plus the number in (C^T)^-1 @ L_X. Chains propose single-entry flips,
rejection-sampled to stay invertible, with linear temperature decay
T_k = t0 * (1 - k/K) and acceptance min(1, exp((e_old - e_new)/T)).

Each attempt runs an independent chain from a random invertible start;
per-attempt seeds derive from (seed, attempt index), so the attempt pool
is a prefix: more attempts never change earlier ones. The driver returns
the best matrix over all attempts and the identity, so the result never
loses to doing nothing.

The chain keeps C, C^-1 and both products incrementally: a flip of entry
(i, j) XORs one L_Z row into row i of C @ L_Z, and updates C^-1 by a
rank-one Sherman-Morrison step (valid exactly when the flip preserves
invertibility, i.e. when (C^-1)[j, i] = 0). Tests check the result
against a naive recomputation: the returned C is invertible and
``energy`` recomputed from it equals the reported best energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gf2 import (
    BitMatrix,
    inverse_transpose,
    invert,
    mat_mul,
    popcount,
    random_invertible,
)

DEFAULT_ITERATIONS = 5000
DEFAULT_ATTEMPTS = 20


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
        if self.t0 is not None and not self.t0 > 0:
            raise ValueError("t0 must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")


@dataclass(frozen=True)
class AnnealResult:
    best_c: BitMatrix
    best_energy: int
    initial_energy: int
    per_attempt_energies: tuple[int, ...] = field(default_factory=tuple)


def energy(c: BitMatrix, lz: BitMatrix, lx: BitMatrix) -> int:
    """popcount(C @ L_Z) + popcount((C^T)^-1 @ L_X)."""
    return popcount(mat_mul(c, lz)) + popcount(mat_mul(inverse_transpose(c), lx))


class _Draws:
    """``integers(k)`` and ``random()`` of a PCG64 ``Generator``, replayed.

    ``Generator.integers(k)`` for 1 < k < 2**32 takes Lemire's bounded
    draw on 32-bit halves of the raw stream, low half first, the high
    half kept for the next 32-bit request; ``random()`` takes the top 53
    bits of a fresh 64-bit output and leaves a kept half alone. The
    generator must not be used directly while a ``_Draws`` holds it.
    """

    _BLOCK = 256

    def __init__(self, rng: np.random.Generator):
        bg = rng.bit_generator
        state = bg.state
        if state["bit_generator"] != "PCG64":
            raise ValueError("_Draws replays PCG64 only")
        self._bg = bg
        self._half = state["uinteger"] if state["has_uint32"] else None
        self._buf: list[int] = []
        self._pos = 0

    def _raw(self) -> int:
        if self._pos == len(self._buf):
            self._buf = self._bg.random_raw(self._BLOCK).tolist()
            self._pos = 0
        v = self._buf[self._pos]
        self._pos += 1
        return v

    def integers(self, k: int) -> int:
        """Same value as ``Generator.integers(k)`` for 1 <= k < 2**32."""
        if k == 1:
            return 0  # numpy draws nothing for a one-value range
        threshold = (0x100000000 - k) % k  # rejects the biased low products
        while True:
            h = self._half
            if h is None:
                v = self._raw()
                self._half = v >> 32
                h = v & 0xFFFFFFFF
            else:
                self._half = None
            m = h * k
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32

    def random(self) -> float:
        """Same value as ``Generator.random()``."""
        return (self._raw() >> 11) * (1.0 / 9007199254740992.0)


def _attempt(
    n: int,
    lz_rows: tuple[int, ...],
    lx_rows: tuple[int, ...],
    iterations: int,
    t0: float,
    rng: np.random.Generator,
) -> tuple[int, list[int]]:
    """One annealing chain; returns (best energy, best C rows)."""
    start = random_invertible(n, rng)
    c = list(start._r)
    cinv = list(invert(start)._r)
    # clz[i] = row i of C @ L_Z ; y[r] = row r of (C^-1)^T @ L_X
    clz = []
    for w in c:
        acc = 0
        for k in range(n):
            if (w >> k) & 1:
                acc ^= lz_rows[k]
        clz.append(acc)
    y = []
    for r in range(n):
        acc = 0
        for k in range(n):
            if (cinv[k] >> r) & 1:
                acc ^= lx_rows[k]
        y.append(acc)
    e = sum(w.bit_count() for w in clz) + sum(w.bit_count() for w in y)
    best_e, best_c = e, list(c)

    draws = _Draws(rng)
    draw_index, draw_uniform = draws.integers, draws.random
    nn = n * n
    cells = [divmod(ij, n) for ij in range(nn)]
    for k in range(iterations):
        temp = t0 * (1.0 - k / iterations)
        while True:
            i, j = cells[draw_index(nn)]
            if not (cinv[j] >> i) & 1:  # flip keeps C invertible
                break
        new_row = clz[i] ^ lz_rows[j]
        de = new_row.bit_count() - clz[i].bit_count()
        # Rank-one effect on (C^-1)^T L_X: rows flagged by v gain w.
        w = 0
        for kk in range(n):
            if (cinv[kk] >> i) & 1:
                w ^= lx_rows[kk]
        vmask = cinv[j]
        for r in range(n):
            if (vmask >> r) & 1:
                de += (y[r] ^ w).bit_count() - y[r].bit_count()

        if temp <= 0.0:
            accept = de < 0
        elif de <= 0:
            accept = True
        else:
            accept = draw_uniform() < math.exp(-de / temp)
        if not accept:
            continue

        c[i] ^= 1 << j
        clz[i] = new_row
        row_j = cinv[j]
        for kk in range(n):
            if (cinv[kk] >> i) & 1:
                cinv[kk] ^= row_j
        for r in range(n):
            if (vmask >> r) & 1:
                y[r] ^= w
        e += de
        if e < best_e:
            best_e, best_c = e, list(c)
    return best_e, best_c


def anneal(lz: BitMatrix, lx: BitMatrix, p: AnnealParams | None = None) -> AnnealResult:
    """Best C over ``p.attempts`` chains and the identity; deterministic per seed."""
    if lz.rows != lx.rows:
        raise ValueError("L_Z and L_X must have the same number of rows")
    n = lz.rows
    if n < 1:
        raise ValueError("need at least one qubit row")
    if p is None:
        p = AnnealParams()
    t0 = p.t0 if p.t0 is not None else default_t0(lz, lx)

    identity = BitMatrix.identity(n)
    identity_energy = popcount(lz) + popcount(lx)
    # Nothing to search: every C scores 0, or GL(1,2) = {I}.
    if n == 1 or lz.cols + lx.cols == 0:
        return AnnealResult(identity, identity_energy, identity_energy, ())

    lz_rows = tuple(lz._r)  # row k of L_Z packed over its d_z columns
    lx_rows = tuple(lx._r)

    best_e = None
    best_rows = None
    per_attempt: list[int] = []
    for a in range(p.attempts):
        rng = np.random.default_rng(np.random.SeedSequence((p.seed, a)))
        e, rows = _attempt(n, lz_rows, lx_rows, p.iterations, t0, rng)
        per_attempt.append(e)
        if best_e is None or e < best_e:
            best_e, best_rows = e, rows
    if best_e is not None and best_e < identity_energy:
        return AnnealResult(
            BitMatrix(n, n, best_rows), best_e, identity_energy, tuple(per_attempt)
        )
    return AnnealResult(identity, identity_energy, identity_energy, tuple(per_attempt))
