"""Seeded benchmark inputs, written as circuit text by the benchmark's own code.

Inputs never come from phasefold's generators, so a change to the program
cannot change what the benchmark feeds it. Every workload is a stream of
circuits cut into *rounds*: the sizes inside a round follow a fixed
schedule, and the workload seed draws everything else (gadget legs and
bases, gate kinds and placement, angles, and the per-circuit anneal
seed). Runs on different seeds therefore carry the same amount of work,
and a run is accounted in whole rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ANSATZ_LAYERS = (2, 5, 10)
ANSATZ_GADGETS = 10
GATE_LEVEL_ROUND = 200
LAYERED_EVERY = 20  # one staircase/brickwall circuit per 20 in a gate_level round


@dataclass(frozen=True)
class Case:
    index: int
    text: str
    anneal_seed: int
    kind: str
    n_qubits: int
    layers: int  # ansatz or layout layers; 1 for random circuits
    gates: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    round_len: int
    quality_rounds: int  # rounds every run completes; cnot/depth ratios use exactly these
    attempts: int | None  # None: phasefold's default anneal budget
    iterations: int | None

    @property
    def quality_len(self) -> int:
        return self.round_len * self.quality_rounds

    def case(self, seed: int, index: int) -> Case:
        rng = np.random.default_rng(np.random.SeedSequence((seed, index, 0)))
        anneal_seed = int(np.random.SeedSequence((seed, index, 1)).generate_state(1)[0])
        if self.name == "gate_level":
            kind, n, layers, gates = _gate_level_case(rng, index % self.round_len)
        else:
            n = 6 if self.name == "ansatz_anneal" else 9
            layers = ANSATZ_LAYERS[index % len(ANSATZ_LAYERS)]
            kind, gates = "random_gadget", _random_gadget_ladder(rng, n, layers)
        return Case(index, _to_text(n, gates), anneal_seed, kind, n, layers, len(gates))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ansatz_anneal",
            "paper traffic: random-gadget ansatz n=6, 10 gadgets x {2,5,10} layers, default "
            "anneal budget; the annealer does ~95% of the work",
            round_len=len(ANSATZ_LAYERS),
            quality_rounds=8,
            attempts=None,
            iterations=None,
        ),
        Workload(
            "ansatz_verify",
            "same ansatz at n=9: the dense verification oracle does ~70% of the work, the "
            "annealer ~30%",
            round_len=len(ANSATZ_LAYERS),
            quality_rounds=3,
            attempts=None,
            iterations=None,
        ),
        Workload(
            "gate_level",
            "many small CNOT/RZ/RX circuits plus staircase/brickwall layouts, 2x250 anneal "
            "budget: per-call costs set the median; output CNOTs exceed input CNOTs",
            round_len=GATE_LEVEL_ROUND,
            quality_rounds=2,
            attempts=2,
            iterations=250,
        ),
    )
}


def _angle(rng: np.random.Generator) -> float:
    return float(rng.uniform(-math.pi, math.pi))


def leg_weights(n: int, count: int = ANSATZ_GADGETS) -> list[int]:
    """Leg counts at the quantiles (i + 1/2)/count of a uniformly random nonempty leg set.

    Fixing the multiset of leg counts keeps the input gate count of an
    ansatz independent of the seed; which qubits carry the legs is random.
    """
    total = (1 << n) - 1
    weights, cdf, k = [], 0, 0
    for i in range(count):
        while cdf < (i + 0.5) / count * total:
            k += 1
            cdf += math.comb(n, k)
        weights.append(k)
    return weights


def _random_gadget_ladder(rng: np.random.Generator, n: int, layers: int) -> list[tuple]:
    """Repeated layer of random Z/X gadgets (fresh angles per layer), ladder-synthesised.

    A gadget on legs q0 < q1 < ... < qk accumulates parity onto q0 through
    the chain CNOT(qk, qk-1) ... CNOT(q1, q0), rotates q0, and uncomputes.
    X gadgets are the Hadamard conjugate: every CNOT flipped, RX in the middle.
    """
    structure = []
    for k in rng.permutation(leg_weights(n)):
        basis = "Z" if int(rng.integers(2)) == 0 else "X"
        structure.append((basis, sorted(int(q) for q in rng.choice(n, size=int(k), replace=False))))
    gates: list[tuple] = []
    for _ in range(layers):
        for basis, legs in structure:
            chain = [(legs[i], legs[i - 1]) for i in range(len(legs) - 1, 0, -1)]
            if basis == "X":
                chain = [(t, s) for s, t in chain]
            gates.extend(("cnot", c, t) for c, t in chain)
            gates.append(("rz" if basis == "Z" else "rx", _angle(rng), legs[0]))
            gates.extend(("cnot", c, t) for c, t in reversed(chain))
    return gates


def _layered(rng: np.random.Generator, kind: str, n: int, layers: int) -> list[tuple]:
    """CNOT layout layer, then RZ and RX on every qubit, repeated."""
    if kind == "staircase":
        pairs = [(q, q + 1) for q in range(n - 2, -1, -1)]
    else:
        pairs = [(q, q + 1) for q in range(1, n - 1, 2)] + [(q, q + 1) for q in range(0, n - 1, 2)]
    gates: list[tuple] = []
    for _ in range(layers):
        gates.extend(("cnot", c, t) for c, t in pairs)
        gates.extend(("rz", _angle(rng), q) for q in range(n))
        gates.extend(("rx", _angle(rng), q) for q in range(n))
    return gates


def _random_basis_circuit(rng: np.random.Generator, n: int, m: int) -> list[tuple]:
    """m gates drawn uniformly from {CNOT, RZ, RX} on random qubits."""
    gates: list[tuple] = []
    for _ in range(m):
        kind = int(rng.integers(3)) if n > 1 else 1 + int(rng.integers(2))
        if kind == 0:
            c, t = (int(q) for q in rng.choice(n, size=2, replace=False))
            gates.append(("cnot", c, t))
        else:
            gates.append(("rz" if kind == 1 else "rx", _angle(rng), int(rng.integers(n))))
    return gates


def _gate_level_case(rng: np.random.Generator, pos: int) -> tuple[str, int, int, list[tuple]]:
    """Round position -> (kind, n, layers, gates) on a fixed size schedule.

    Ten layered circuits per round, one every LAYERED_EVERY positions, pair
    n in 8..4 with layers in {4, 8, 12, 16}; the other 190 positions cycle n
    through 1..6 and the gate count through 1..40.
    """
    if pos % LAYERED_EVERY == 0:
        k = pos // LAYERED_EVERY
        n, layers = 8 - k % 5, 4 + 4 * (k % 4)
        kind = "staircase" if int(rng.integers(2)) == 0 else "brickwall"
        return kind, n, layers, _layered(rng, kind, n, layers)
    j = pos - pos // LAYERED_EVERY - 1
    n, m = 1 + j % 6, 1 + (13 * j) % 40
    return "random", n, 1, _random_basis_circuit(rng, n, m)


def _to_text(n: int, gates: list[tuple]) -> str:
    lines = [f"qubits {n}"]
    for g in gates:
        if g[0] == "cnot":
            lines.append(f"cnot {g[1]} {g[2]}")
        else:
            lines.append(f"{g[0]} {g[1]!r} {g[2]}")
    return "\n".join(lines) + "\n"
