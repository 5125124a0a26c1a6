"""End-to-end optimisation pipeline and the Euler peephole.

``optimize`` lowers to {CNOT, RZ, RX}, extracts the gadget normal form,
detects the repeating layer, anneals a change of basis C in GL(n,2) for
the repeating unit, and re-synthesises

    prefix gadgets ; C block ; optimised unit per layer ; C^-1 block ; tail

so the two CNOT blocks are paid once however many layers repeat.

The anneal minimises the unit's leg count, a proxy for what the output
pays. ``optimize`` therefore chooses C itself: of the identity and each
attempt's best C, the one whose output has the fewest CNOTs, counted
exactly on row words (``_output_cnots``) before anything is
synthesised; ties go to the identity, then to the earliest attempt.
Only the winner's blocks and gadgets are synthesised. The prefix and
the tail do not depend on C, and ``euler_peephole`` moves no CNOT.

After synthesis, ``euler_peephole`` collapses each wire's rotation
runs, and the output is oracle-verified up to global phase when small
enough: ``oracle.product_error`` runs the one product U_out^dag U_in and
measures its distance from a phase times the identity, building at most
one dense matrix and none while the product stays in one group. The
benchmark ansatz generators live in ``ansatz``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from . import circuits as ci
from .annealing import AnnealParams, AnnealResult, anneal
from .circuits import GateCircuit, cnot_count, cnot_depth, euler_xzx_to_zxz
from .gadgets import (
    GadgetCircuit,
    GadgetEntry,
    apply_action,
    fusion_plan,
    is_zero_angle,
    leg_matrices,
)
from .gf2 import BitMatrix, _mul_rows, _row_ops, _transpose_rows, invert
from .oracle import MAX_QUBITS, VERIFY_TOL, product_error
# Unused here; perfbench/tracing.py looks these two names up on this module.
from .oracle import equiv_up_to_phase, unitary_of_circuit  # noqa: F401
from .transform import detect_layers, extract, h_z, synth_cnot, synth_gadget

log = logging.getLogger(__name__)


class VerificationError(RuntimeError):
    """The optimised circuit failed the oracle equivalence check."""


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
    energy_after: int  # the best energy the anneal reached
    energy_chosen: int  # the energy of the C the output uses
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
            ("energy_chosen", self.energy_chosen),
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
            f"energy {self.energy_before} -> {self.energy_after} (chosen {self.energy_chosen})"
            f" | layers {self.layers_detected} | verified {self.verified}"
        )
        return "\n".join(lines)


def _percent_change(before: int, after: int) -> str:
    if before <= 0:
        return "-"
    pct = round(100.0 * (before - after) / before)
    return f"{pct}%"


def _live_legs(unit: GadgetCircuit, angles: list[list[float]]) -> list[tuple[str, int, int]]:
    """(basis, legs word, occurrences that emit it) per entry of the fused unit.

    An entry is emitted in each occurrence whose fused angle is not zero;
    entries emitted in none are left out.
    """
    legs = []
    for k, e in enumerate(unit.entries):
        live = sum(not is_zero_angle(a[k]) for a in angles)
        if live:
            legs.append((e.basis, e.legs.bits, live))
    return legs


def _output_cnots(c_rows: tuple[int, ...], legs: list[tuple[str, int, int]]) -> int:
    """CNOTs of the two C blocks and every layer, for the C with row words ``c_rows``.

    Exactly what ``optimize`` emits between the prefix and the tail: one
    CNOT per row operation of C and of C^-1 (``synth_cnot``), and
    2(|legs| - 1) per emitted gadget (``synth_gadget``, either shape),
    with legs C*legs (Z) or (C^T)^-1*legs (X) as in ``apply_action``.
    """
    n = len(c_rows)
    ops = _row_ops(list(c_rows))
    inv = [1 << i for i in range(n)]  # C^-1: the ops replayed on I, as in ``invert``
    for r, s in ops:
        inv[r] ^= inv[s]
    columns = {"Z": _transpose_rows(c_rows, n), "X": inv}
    gadgets = 0
    for basis, word, live in legs:
        (acted,) = _mul_rows((word,), columns[basis])
        gadgets += live * (acted.bit_count() - 1)
    return len(ops) + len(_row_ops(inv)) + 2 * gadgets


def _choose(
    result: AnnealResult, unit: GadgetCircuit, angles: list[list[float]]
) -> tuple[BitMatrix, int]:
    """(C, its energy): of I and each attempt's best C, the one with fewest output CNOTs.

    Ties go to I, then to the earliest attempt.
    """
    best_c, best_e = BitMatrix.identity(unit.n_qubits), result.initial_energy
    if not result.candidates:
        return best_c, best_e
    legs = _live_legs(unit, angles)
    best_cost = _output_cnots(best_c._r, legs)
    scored = {best_c._r}
    for c, e in zip(result.candidates, result.per_attempt_energies):
        if c._r not in scored:
            scored.add(c._r)
            cost = _output_cnots(c._r, legs)
            if cost < best_cost:
                best_c, best_e, best_cost = c, e, cost
    return best_c, best_e


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
    raw_unit_energy = chosen_energy = 0
    if info.unit_length == 0:
        result = AnnealResult(BitMatrix.identity(n), 0, 0, ())
    else:
        raw_unit_energy = sum(e.legs.popcount() for e in occurrences[0])
        # One fusion plan serves every repetition, keeping the layers uniform.
        plan = fusion_plan(occurrences[0])
        unit = GadgetCircuit(n, tuple(e for e, _ in plan))
        angles = [[sum(occ[i].angle for i in src) for _, src in plan] for occ in occurrences]
        lz, lx = leg_matrices(unit)
        result = anneal(lz, lx, p)
        c_best, chosen_energy = _choose(result, unit, angles)
        # Gadgets with legs C*L commute left across a block of action C^-1
        # back to legs L, so the sandwich C^-1-block ; unit' ; C-block
        # reproduces the original unit exactly. For C = I both blocks are empty.
        gates.extend(synth_cnot(invert(c_best)).to_gates().gates)
        acted = apply_action(unit, c_best).entries
        for occ_angles in angles:
            for e, angle in zip(acted, occ_angles):
                if not is_zero_angle(angle):
                    gates.extend(synth_gadget(GadgetEntry(e.basis, angle, e.legs), shape).gates)
        gates.extend(synth_cnot(c_best).to_gates().gates)

    # The tail is a pure CNOT circuit, so its unitary is the basis permutation
    # fixed by h_z; re-synthesising it keeps the exact unitary and lets a
    # self-cancelling tail (h_z = I) vanish entirely.
    gates.extend(synth_cnot(h_z(nf.tail)).to_gates().gates)
    out = euler_peephole(GateCircuit(n, tuple(gates)))

    verified = "skipped"
    if verify and n <= MAX_QUBITS:
        # One product, U_out^dag U_c, checked against a global phase times I.
        ok = product_error(c, out) < VERIFY_TOL
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
        energy_chosen=chosen_energy,
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
