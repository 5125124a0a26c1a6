"""Simulated annealing over GL(n,2) minimising total gadget-leg count.

The objective for a candidate C is the number of 1 entries in C @ L_Z
plus the number in (C^T)^-1 @ L_X. A chain's move is a row addition:
for an ordered pair i != j, drawn uniformly from the n(n-1) pairs, row
j of C is added to row i, C <- E @ C with E one CNOT. E is invertible,
so every proposal stays in GL(n,2) and none is rejected for being
singular.

Each attempt runs an independent chain from a random invertible start;
per-attempt seeds derive from (seed, attempt index), so the attempt pool
is a prefix: more attempts never change earlier ones. The driver returns
the best matrix over all attempts and the identity, so the result never
loses to doing nothing.

A chain keeps three lists of packed rows: ``c`` (C), ``clz`` (C @ L_Z)
and ``y`` ((C^-1)^T @ L_X). A row addition changes one row of each
product: row i of C @ L_Z gains row j, and since (E @ C)^-T = E^T @ C^-T,
row j of (C^-1)^T @ L_X gains row i. The energy change is therefore four
popcounts, and an accepted move updates three rows.

The temperature falls linearly, T_k = t0 * (1 - k/K). Metropolis
acceptance, min(1, exp(-dE/T)), is taken in its threshold form: with
xi ~ Exp(1), P(xi > dE/T) = exp(-dE/T), so the move is accepted when
dE < T_k * xi_k. After drawing the start, an attempt takes all its
random numbers in two calls, K move indices and K exponentials.

Tests check the chain against a reference that takes the same draws and
recomputes ``energy`` from C at every step (identical best energy and
best C on hundreds of seeded instances, some with thresholds of exactly
0), and that the returned C is invertible and scores its reported
energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gf2 import (
    BitMatrix,
    inverse_transpose,
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


def _attempt(
    lz: BitMatrix,
    lx: BitMatrix,
    iterations: int,
    t0: float,
    rng: np.random.Generator,
) -> tuple[int, list[int]]:
    """One annealing chain; returns (best energy, best C rows)."""
    n = lz.rows
    start = random_invertible(n, rng)
    c = list(start._r)
    clz = list(mat_mul(start, lz)._r)  # row r of C @ L_Z
    y = list(mat_mul(inverse_transpose(start), lx)._r)  # row r of (C^-1)^T @ L_X
    e = sum(w.bit_count() for w in clz) + sum(w.bit_count() for w in y)
    best_e, best_c = e, list(c)

    # Move m is the pair (i, j), i != j, in i-major order.
    i_of, r = np.divmod(rng.integers(n * (n - 1), size=iterations), n - 1)
    j_of = r + (r >= i_of)
    temps = t0 * (1.0 - np.arange(iterations) / iterations)
    limits = (temps * rng.standard_exponential(iterations)).tolist()
    for i, j, limit in zip(i_of.tolist(), j_of.tolist(), limits):
        a = clz[i] ^ clz[j]
        b = y[j] ^ y[i]
        de = a.bit_count() - clz[i].bit_count() + b.bit_count() - y[j].bit_count()
        if de < limit:
            c[i] ^= c[j]
            clz[i] = a
            y[j] = b
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

    best_e = None
    best_rows = None
    per_attempt: list[int] = []
    for a in range(p.attempts):
        rng = np.random.default_rng(np.random.SeedSequence((p.seed, a)))
        e, rows = _attempt(lz, lx, p.iterations, t0, rng)
        per_attempt.append(e)
        if best_e is None or e < best_e:
            best_e, best_rows = e, rows
    if best_e is not None and best_e < identity_energy:
        return AnnealResult(
            BitMatrix(n, n, best_rows), best_e, identity_energy, tuple(per_attempt)
        )
    return AnnealResult(identity, identity_energy, identity_energy, tuple(per_attempt))
