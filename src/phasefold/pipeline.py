"""End-to-end optimisation pipeline and benchmark ansatz generators.

``optimize`` lowers to {CNOT, RZ, RX}, extracts the gadget normal form,
detects the repeating layer, anneals a change of basis C in GL(n,2) for
the repeating unit, and re-synthesises

    prefix gadgets ; C block ; optimised unit per layer ; C^-1 block ; tail

so the two CNOT blocks are paid once however many layers repeat. The
output is oracle-verified up to global phase when small enough.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import circuits as ci
from .annealing import AnnealParams, AnnealResult, anneal
from .circuits import GateCircuit, cnot_count, cnot_depth, euler_xzx_to_zxz
from .gadgets import (
    GadgetCircuit,
    GadgetEntry,
    apply_action,
    fusion_plan,
    gadget_circuit,
    is_zero_angle,
    leg_matrices,
)
from .gf2 import BitMatrix, BitVec, invert, mat_mul
from .oracle import MAX_QUBITS, VERIFY_TOL, equiv_up_to_phase, unitary_of_circuit
from .transform import (
    CnotCircuit,
    detect_layers,
    extract,
    h_z,
    synth_cnot,
    synth_gadget,
)

log = logging.getLogger(__name__)


class VerificationError(RuntimeError):
    """The optimised circuit failed the oracle equivalence check."""


class NonMonotonicError(ValueError):
    """CNOT layer mixes both orientations, so the layer matrix is not triangular."""


@dataclass(frozen=True)
class Metrics:
    cnot_count: int
    cnot_depth: int
    gate_count: int


def metrics_of(c: GateCircuit) -> Metrics:
    return Metrics(cnot_count(c), cnot_depth(c), len(c.gates))


@dataclass(frozen=True)
class OptimizeReport:
    before: Metrics
    after: Metrics
    energy_before: int
    energy_after: int
    layers_detected: int
    verified: str  # "yes" | "no" | "skipped"

    def to_kv(self) -> str:
        pairs = [
            ("before_cnot_count", self.before.cnot_count),
            ("before_cnot_depth", self.before.cnot_depth),
            ("before_gate_count", self.before.gate_count),
            ("after_cnot_count", self.after.cnot_count),
            ("after_cnot_depth", self.after.cnot_depth),
            ("after_gate_count", self.after.gate_count),
            ("energy_before", self.energy_before),
            ("energy_after", self.energy_after),
            ("layers_detected", self.layers_detected),
            ("verified", self.verified),
        ]
        return "\n".join(f"{k}={v}" for k, v in pairs)

    def to_text(self) -> str:
        rows = [
            ("cnot count", self.before.cnot_count, self.after.cnot_count),
            ("cnot depth", self.before.cnot_depth, self.after.cnot_depth),
            ("gate count", self.before.gate_count, self.after.gate_count),
        ]
        lines = [f"{'metric':<12} {'before':>8} {'after':>8} {'delta':>7}"]
        for name, before, after in rows:
            delta = _percent_change(before, after)
            lines.append(f"{name:<12} {before:>8} {after:>8} {delta:>7}")
        lines.append(
            f"energy {self.energy_before} -> {self.energy_after}"
            f" | layers {self.layers_detected} | verified {self.verified}"
        )
        return "\n".join(lines)


def _percent_change(before: int, after: int) -> str:
    if before <= 0:
        return "-"
    pct = round(100.0 * (before - after) / before)
    return f"{pct}%"


def optimize(
    c: GateCircuit,
    p: AnnealParams | None = None,
    *,
    shape: str = "tree",
    verify: bool = True,
) -> tuple[GateCircuit, OptimizeReport]:
    """Optimise a circuit; returns the new circuit and a report.

    Raises VerificationError if verification is enabled, the circuit is
    small enough to verify, and the output fails the oracle check: a
    wrong circuit is never returned silently.
    """
    n = c.n_qubits
    before = metrics_of(c)

    nf = extract(ci.lower_to_basis(c))
    info = detect_layers(nf.gadgets)
    entries = nf.gadgets.entries
    prefix = entries[: info.offset]
    occurrences = [
        entries[info.offset + o * info.unit_length : info.offset + (o + 1) * info.unit_length]
        for o in range(info.repeats)
    ]

    gates: list[ci.Gate] = []
    for e in prefix:
        gates.extend(synth_gadget(e, shape).gates)

    result: AnnealResult
    raw_unit_energy = 0
    if info.unit_length == 0:
        result = AnnealResult(BitMatrix.identity(n), 0, 0, ())
    else:
        raw_unit_energy = sum(e.legs.popcount() for e in occurrences[0])
        # One fusion plan serves every repetition, keeping the layers uniform.
        plan = fusion_plan(occurrences[0])
        unit = GadgetCircuit(n, tuple(e for e, _ in plan))
        lz, lx = leg_matrices(unit)
        result = anneal(lz, lx, p)
        c_best = result.best_c
        # Gadgets with legs C*L commute left across a block of action C^-1
        # back to legs L, so the sandwich C^-1-block ; unit' ; C-block
        # reproduces the original unit exactly. For C = I both blocks are empty.
        gates.extend(synth_cnot(invert(c_best)).to_gates().gates)
        acted = apply_action(unit, c_best).entries
        for occ in occurrences:
            for e, (_, src) in zip(acted, plan):
                angle = sum(occ[i].angle for i in src)
                if is_zero_angle(angle):
                    continue
                gates.extend(synth_gadget(GadgetEntry(e.basis, angle, e.legs), shape).gates)
        gates.extend(synth_cnot(c_best).to_gates().gates)

    # The tail is a pure CNOT circuit, so its unitary is the basis permutation
    # fixed by h_z; re-synthesising it keeps the exact unitary and lets a
    # self-cancelling tail (h_z = I) vanish entirely.
    gates.extend(synth_cnot(h_z(nf.tail)).to_gates().gates)
    out = euler_peephole(GateCircuit(n, tuple(gates)))

    verified = "skipped"
    if verify and n <= MAX_QUBITS:
        ok = equiv_up_to_phase(unitary_of_circuit(c), unitary_of_circuit(out))
        verified = "yes" if ok else "no"
    elif verify:
        log.warning("skipping verification: %d qubits exceeds limit %d", n, MAX_QUBITS)

    # Before-energy is the raw unit's leg count; fusion happens before the
    # anneal, so the after-energy may undercut even the fused identity score.
    report = OptimizeReport(
        before=before,
        after=metrics_of(out),
        energy_before=raw_unit_energy,
        energy_after=result.best_energy,
        layers_detected=info.repeats,
        verified=verified,
    )
    if verified == "no":
        raise VerificationError(
            f"optimised circuit is not equivalent to its input (tol {VERIFY_TOL}); report:\n"
            + report.to_kv()
        )
    return out, report


def _fuse_rotation_run(run: list[tuple[str, float]]) -> list[tuple[str, float]]:
    """Merge adjacent same-basis rotations and drop zero angles."""
    out: list[tuple[str, float]] = []
    for basis, angle in run:
        if out and out[-1][0] == basis:
            angle += out.pop()[1]
        if not is_zero_angle(angle):
            out.append((basis, angle))
    return out


def _collapse_run(run: list[tuple[str, float]]) -> list[tuple[str, float]]:
    """Reduce a run of single-qubit rotations ("rz" or "rx", angle) to at most three."""
    run = _fuse_rotation_run(run)
    while len(run) > 3:
        (b0, a1), (_, a2), (_, a3) = run[0], run[1], run[2]
        b1, b2, b3 = euler_xzx_to_zxz(a1, a2, a3)
        other = "rx" if b0 == "rz" else "rz"
        head = [(other, b1), (b0, b2), (other, b3)]
        run = _fuse_rotation_run(head + run[3:])
    return run


def euler_peephole(c: GateCircuit) -> GateCircuit:
    """Collapse per-wire rotation runs; at most three rotations survive a run.

    Adjacent same-basis rotations fuse; longer alternating runs rotate
    through the Euler identity until they fit in three. Works on
    {CNOT, RZ, RX} circuits only.
    """
    pending: list[list[ci.Gate]] = [[] for _ in range(c.n_qubits)]
    gates: list[ci.Gate] = []

    def flush(q: int) -> None:
        run = pending[q]
        if not run:
            return
        pending[q] = []
        for kind, angle in _collapse_run([(g.kind, g.angle) for g in run]):
            gates.append(ci.rz(angle, q) if kind == "rz" else ci.rx(angle, q))

    for g in c.gates:
        if g.kind == "rz" or g.kind == "rx":
            pending[g.qubits[0]].append(g)
        elif g.kind == "cnot":
            flush(g.qubits[0])
            flush(g.qubits[1])
            gates.append(g)
        else:
            raise ValueError(f"euler_peephole expects a basis circuit, got {g.kind!r}")
    for q in range(c.n_qubits):
        flush(q)
    return GateCircuit(c.n_qubits, tuple(gates))


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
