"""Benchmark ansatz generators and the period of a triangular CNOT layer.

``generate`` builds the seeded circuits that ``phasefold bench`` and the
tests optimise: staircase or brickwall CNOT layers with RZ (and optional
RX) walls, or layers of random phase gadgets. ``mppp_period`` is the
order of a monotonic CNOT layer's GL(n,2) action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import circuits as ci
from .circuits import GateCircuit
from .gadgets import gadget_circuit
from .gf2 import BitVec, mat_mul
from .transform import CnotCircuit, h_z


class NonMonotonicError(ValueError):
    """CNOT layer mixes both orientations, so the layer matrix is not triangular."""


@dataclass(frozen=True)
class AnsatzSpec:
    kind: str  # "staircase" | "brickwall" | "random_gadget"
    n_qubits: int
    layers: int
    gadgets_per_layer: int = 0
    seed: int = 0
    with_rx: bool = False

    def __post_init__(self):
        if self.kind not in ("staircase", "brickwall", "random_gadget"):
            raise ValueError(f"unknown ansatz kind {self.kind!r}")
        if self.n_qubits < 1 or self.layers < 1:
            raise ValueError("dimensions must be positive")
        if self.kind == "random_gadget" and self.gadgets_per_layer < 1:
            raise ValueError("random_gadget needs gadgets_per_layer >= 1")


def staircase_layer(n: int) -> list[tuple[int, int]]:
    """CNOT(q, q+1) applied from the bottom pair upward."""
    return [(q, q + 1) for q in range(n - 2, -1, -1)]


def brickwall_layer(n: int) -> list[tuple[int, int]]:
    """Odd-aligned CNOT bricks, then even-aligned ones."""
    odds = [(q, q + 1) for q in range(1, n - 1, 2)]
    evens = [(q, q + 1) for q in range(0, n - 1, 2)]
    return odds + evens


def generate(spec: AnsatzSpec):
    """Benchmark ansatz; gate circuit for CNOT layouts, gadget circuit for random."""
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 0xA5)))
    n = spec.n_qubits
    if spec.kind == "random_gadget":
        structure = [
            ("Z" if int(rng.integers(2)) == 0 else "X", int(rng.integers(1, 1 << n)))
            for _ in range(spec.gadgets_per_layer)
        ]
        specs = []
        for _ in range(spec.layers):
            for basis, legbits in structure:
                specs.append((basis, float(rng.uniform(0, 2 * math.pi)), BitVec(n, legbits)))
        return gadget_circuit(n, specs)

    layer_pairs = staircase_layer(n) if spec.kind == "staircase" else brickwall_layer(n)
    gates: list[ci.Gate] = []
    for _ in range(spec.layers):
        gates.extend(ci.cnot(c, t) for c, t in layer_pairs)
        for q in range(n):
            gates.append(ci.rz(float(rng.uniform(0, 2 * math.pi)), q))
        if spec.with_rx:
            for q in range(n):
                gates.append(ci.rx(float(rng.uniform(0, 2 * math.pi)), q))
    return GateCircuit(n, tuple(gates))


def mppp_period(layer: CnotCircuit) -> int:
    """Smallest k >= 1 with h_z(layer)^k = I; needs a monotonic CNOT layout.

    Monotonic layers have triangular action matrices, so the period is a
    power of two bounded by 2^ceil(log2 n).
    """
    if layer.cnots:
        down = all(c < t for c, t in layer.cnots)
        up = all(c > t for c, t in layer.cnots)
        if not (down or up):
            raise NonMonotonicError("CNOT layer mixes control<target with control>target")
    b = h_z(layer)
    bound = 1 << max(0, (layer.n_qubits - 1).bit_length())
    power = b
    for k in range(1, bound + 1):
        if power.is_identity():
            return k
        power = mat_mul(power, b)
    raise AssertionError("periodicity bound exceeded; triangular-order theorem violated")
