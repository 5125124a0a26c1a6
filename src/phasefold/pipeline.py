"""End-to-end optimisation pipeline, the Euler peephole and CNOT cancellation.

``optimize`` lowers to {CNOT, RZ, RX}, extracts the gadget normal form,
detects the repeating layer, anneals a change of basis C in GL(n,2) for
the repeating unit, and re-synthesises

    prefix ; block with h_z = C^-1 ; layers with legs C*L_Z and (C^T)^-1*L_X
        ; block with h_z = C ; tail

so the two CNOT blocks are paid once however many layers repeat. Both
come from one elimination of C: every CNOT is its own inverse, so C's
block reversed has action C^-1.

The anneal minimises the unit's leg count, a proxy for what the output
pays. ``optimize`` therefore chooses C itself: of the identity and each
attempt's best C, the one whose output has the fewest CNOTs; ties go to
the identity, then to the earliest attempt. ``_score`` counts those
CNOTs exactly on row words, from one elimination of C that also gives
C's block and the acted legs, so each C is scored once, the identity
when the circuit is split, and the winner's block feeds the synthesis
as it is. The prefix and the tail do not depend on C, and
``euler_peephole`` moves no CNOT.

The two C blocks are won back only across repeated layers, and the
re-synthesis can cost more CNOTs than the input's own gates. So the
lowered input, peepholed, is the *input side*, and ``optimize`` returns
it instead of the optimized side when it has fewer CNOTs, or as many and
a lower CNOT depth. Before the anneal, a lower bound on the optimized
side's CNOTs over every C (``_cnot_floor``) often shows that the input
side wins; then nothing is annealed or chosen and no gadget or C block
is synthesised, and the result is what the comparison would give.

The returned side then loses the CNOT pairs that meet across gates they
commute with (``cancel_cnots``, the gate-cancellation rule of Nam et
al., arXiv:1710.07345): each CNOT walks back over the earlier gates on
its two wires and deletes itself with an equal CNOT, and the peephole
and the scan repeat until nothing is deleted. The pass only deletes
CNOTs, so the bound, the choice and the comparison stand as they are,
and no output has more CNOTs than its lowered input. Its walk is its
own, apart from the oracle's merge, so the check stays independent of
what it checks.

The returned side is oracle-verified up to global phase when small
enough: ``oracle.product_error`` runs the one product U_out^dag U_in and
measures its distance from a phase times the identity, building at most
one dense matrix. An output shares its input's net CNOT action, so when
the input is a {CNOT, RZ, RX} circuit, as on every benchmark workload,
their rotations merge and what is left is evaluated on its logical
qubits alone; nothing is built when nothing is left. The benchmark
ansatz generators live in ``ansatz``.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from . import circuits as ci
from .annealing import AnnealParams, AnnealResult, _multi_leg_floor, anneal
from .circuits import GateCircuit, cnot_count, cnot_depth, euler_xzx_to_zxz
from .gadgets import (
    GadgetCircuit,
    GadgetEntry,
    _acted_legs,
    fusion_plan,
    is_zero_angle,
    leg_matrices,
)
from .gf2 import BitMatrix, BitVec, _row_ops
from .oracle import MAX_QUBITS, VERIFY_TOL, product_error
# Unused here; perfbench/tracing.py looks these two names up on this module.
from .oracle import equiv_up_to_phase, unitary_of_circuit  # noqa: F401
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
    output: str  # "optimized" | "input": which side was returned, then cancelled
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
            ("output", self.output),
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
            f" | layers {self.layers_detected} | output {self.output} | verified {self.verified}"
        )
        return "\n".join(lines)


def _percent_change(before: int, after: int) -> str:
    if before <= 0:
        return "-"
    pct = round(100.0 * (before - after) / before)
    return f"{pct}%"


class _Block(NamedTuple):
    """A change of basis C scored exactly as ``optimize`` emits it."""

    c: BitMatrix
    energy: int
    cnots: int  # of the two C blocks and every layer, between the prefix and the tail
    ops: list[tuple[int, int]]  # C's row operations: C's block, CNOT(r, s) per (r, s)
    words: list[int]  # the live legs acted on by C, in order


def _score(c: BitMatrix, energy: int, legs: tuple[tuple[int, str, int, int], ...]) -> _Block:
    """C scored, of energy ``energy``, on the live legs ``legs`` (``_Parts.legs``).

    One elimination of C gives its row operations, which are C's block,
    and the legs it acts on (``gadgets._acted_legs``). The cost is two
    CNOTs per row operation (C's block, reversed and in order) and
    2(|legs| - 1) per emitted gadget (``synth_gadget``, either shape).
    """
    ops = _row_ops(list(c._r))
    words = _acted_legs(c._r, ops, [(basis, word) for _, basis, word, _ in legs])
    gadgets = sum(live * (word.bit_count() - 1) for word, (*_, live) in zip(words, legs))
    return _Block(c, energy, 2 * (len(ops) + gadgets), ops, words)


@dataclass(frozen=True)
class _Parts:
    """A lowered circuit as ``optimize`` re-synthesises it around C."""

    prefix: tuple[GadgetEntry, ...]  # the non-repeating gadgets of nonzero angle
    unit: GadgetCircuit  # the fused repeating unit
    angles: list[list[float]]  # the unit's fused angles, per occurrence
    tail: CnotCircuit  # the tail, re-synthesised
    layers: int
    raw_unit_energy: int  # the unit's leg count before fusion
    # (entry index, basis, legs word, occurrences that emit it) per entry of
    # the unit whose fused angle is not zero in some occurrence.
    legs: tuple[tuple[int, str, int, int], ...]
    identity: _Block  # C = I, scored


def _split(lowered: GateCircuit) -> _Parts:
    """Extract the normal form, detect the layers, fuse the repeating unit and score I."""
    nf = extract(lowered)
    info = detect_layers(nf.gadgets)
    entries = nf.gadgets.entries
    occurrences = [
        entries[info.offset + o * info.unit_length : info.offset + (o + 1) * info.unit_length]
        for o in range(info.repeats)
    ]
    # One fusion plan serves every repetition, keeping the layers uniform.
    plan = fusion_plan(occurrences[0])
    unit = GadgetCircuit(lowered.n_qubits, tuple(e for e, _ in plan))
    angles = [[sum(occ[i].angle for i in src) for _, src in plan] for occ in occurrences]
    legs = tuple(
        (k, e.basis, e.legs.bits, live)
        for k, e in enumerate(unit.entries)
        if (live := sum(not is_zero_angle(a[k]) for a in angles))
    )
    identity_energy = sum(e.legs.popcount() for e in unit.entries)
    return _Parts(
        prefix=tuple(e for e in entries[: info.offset] if not is_zero_angle(e.angle)),
        unit=unit,
        angles=angles,
        # The tail is a pure CNOT circuit, so its unitary is the basis
        # permutation fixed by h_z; re-synthesising it keeps the exact unitary
        # and lets a self-cancelling tail (h_z = I) vanish entirely.
        tail=synth_cnot(h_z(nf.tail)),
        layers=info.repeats,
        raw_unit_energy=sum(e.legs.popcount() for e in occurrences[0]),
        legs=legs,
        identity=_score(BitMatrix.identity(lowered.n_qubits), identity_energy, legs),
    )


def _choose(result: AnnealResult, parts: _Parts) -> _Block:
    """Of I and each attempt's best C, the block with fewest output CNOTs.

    Ties go to I, then to the earliest attempt.
    """
    blocks = {parts.identity.c._r: parts.identity}
    for c, e in zip(result.candidates, result.per_attempt_energies):
        if c._r not in blocks:
            blocks[c._r] = _score(c, e, parts.legs)
    return min(blocks.values(), key=lambda block: block.cnots)  # the first of the fewest


def _synthesize(parts: _Parts, block: _Block, shape: str) -> GateCircuit:
    """The optimized side for the scored change of basis ``block``, peepholed.

    Gadgets with legs C*L commute left across a block of action C^-1
    back to legs L, so the sandwich C^-1-block ; unit' ; C-block
    reproduces the original unit exactly. C's block is the block's row
    operations, the C^-1 block is the same reversed, and the layers carry
    the block's acted words, so nothing here eliminates C or acts on a
    leg. For C = I both blocks are empty.
    """
    n = parts.unit.n_qubits
    gates: list[ci.Gate] = []
    for e in parts.prefix:
        gates.extend(synth_gadget(e, shape).gates)
    cnots = [ci.cnot(r, s) for r, s in block.ops]
    gates.extend(reversed(cnots))
    acted = [(k, basis, BitVec(n, w)) for (k, basis, _, _), w in zip(parts.legs, block.words)]
    for occ_angles in parts.angles:
        for k, basis, legs in acted:
            if not is_zero_angle(occ_angles[k]):
                gates.extend(synth_gadget(GadgetEntry(basis, occ_angles[k], legs), shape).gates)
    gates.extend(cnots)
    gates.extend(parts.tail.to_gates().gates)
    return euler_peephole(GateCircuit(n, tuple(gates)))


def _cnot_floor(parts: _Parts) -> int:
    """A lower bound on the CNOTs of ``_synthesize`` over every C in GL(n,2).

    The prefix gadgets (2(|legs| - 1) each) and the tail count exactly.
    Between them, C = I costs the identity's scored block. Any other C
    pays its block, of at least one CNOT, twice, and 2 CNOTs per emission
    of each leg word that keeps two legs or more; per basis, the words'
    emissions give the least of those (``_multi_leg_floor``). The bound
    holds for what ``_synthesize`` emits, so it must change with it.
    """
    emissions: dict[str, Counter[int]] = {"Z": Counter(), "X": Counter()}
    for _, basis, word, live in parts.legs:
        emissions[basis][word] += live
    gadgets = 2 * sum(map(_multi_leg_floor, emissions.values()))
    fixed = len(parts.tail) + sum(2 * (e.legs.popcount() - 1) for e in parts.prefix)
    return fixed + min(parts.identity.cnots, 2 + gadgets)


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

    lowered = ci.lower_to_basis(c)
    parts = _split(lowered)
    # euler_peephole moves no CNOT, so the input side has the lowered CNOTs,
    # and it is peepholed only when it is returned or ties on CNOTs.
    input_cnots = cnot_count(lowered)
    output = "optimized"
    if _cnot_floor(parts) > input_cnots:
        # No C can beat the input side: nothing is annealed, chosen or
        # synthesised, and the energies read as when the anneal stops at its floor.
        out, output = euler_peephole(lowered), "input"
        best_energy = chosen_energy = parts.identity.energy
    else:
        result = anneal(*leg_matrices(parts.unit), p)
        chosen = _choose(result, parts)
        best_energy, chosen_energy = result.best_energy, chosen.energy
        out = _synthesize(parts, chosen, shape)
        out_cnots = cnot_count(out)
        if input_cnots <= out_cnots:
            input_side = euler_peephole(lowered)
            if (input_cnots, cnot_depth(input_side)) < (out_cnots, cnot_depth(out)):
                out, output = input_side, "input"
    # Only the returned side is cancelled, after the choice: cancelling
    # deletes CNOTs, so neither the bound nor the comparison above changes.
    out = cancel_cnots(out)

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
        energy_before=parts.raw_unit_energy,
        energy_after=best_energy,
        energy_chosen=chosen_energy,
        layers_detected=parts.layers,
        output=output,
        verified=verified,
    )
    if verified == "no":
        raise VerificationError(
            f"optimised circuit is not equivalent to its input (tol {VERIFY_TOL}); report:\n"
            + report.to_kv()
        )
    return out, report


_CANCEL_WALK = 256  # most gates one CNOT's walk looks at on its two wires, a partner included


def _cancel_round(c: GateCircuit) -> list[ci.Gate]:
    """One left-to-right scan of ``cancel_cnots``: the gates that survive it, in order."""
    kept: list[ci.Gate | None] = []
    wires: list[list[int]] = [[] for _ in range(c.n_qubits)]  # per wire, kept indices in order
    for g in c.gates:
        if g.kind == "cnot":
            a, b = g.qubits
            if _cancel_partner(kept, wires, a, b):
                continue
            wires[a].append(len(kept))
            wires[b].append(len(kept))
        else:
            wires[g.qubits[0]].append(len(kept))
        kept.append(g)
    return [g for g in kept if g is not None]


def _cancel_partner(kept: list[ci.Gate | None], wires: list[list[int]], a: int, b: int) -> bool:
    """Delete an equal CNOT(a, b) that CNOT(a, b) reaches back across gates it commutes with.

    The walk visits the gates on wires a and b, latest first. CNOT(a, b)
    commutes with RZ on a, RX on b, and a CNOT whose control is not b and
    whose target is not a; any other gate on its wires stops the walk.
    """
    wa, wb = wires[a], wires[b]
    i, j = len(wa) - 1, len(wb) - 1
    for _ in range(_CANCEL_WALK):
        k = max(wa[i] if i >= 0 else -1, wb[j] if j >= 0 else -1)
        if k < 0:
            return False
        g = kept[k]
        if g.kind == "cnot":
            if g.qubits == (a, b):
                kept[k] = None
                del wa[i], wb[j]
                return True
            if g.qubits[0] == b or g.qubits[1] == a:
                return False
        elif g.kind != ("rz" if g.qubits[0] == a else "rx"):
            return False
        if i >= 0 and wa[i] == k:
            i -= 1
        if j >= 0 and wb[j] == k:
            j -= 1
    return False


def cancel_cnots(c: GateCircuit) -> GateCircuit:
    """Delete pairs of equal CNOTs that meet across the gates they commute with.

    Each CNOT walks back over the earlier gates on its own two wires, at
    most ``_CANCEL_WALK`` of them, and deletes itself together with the
    first equal CNOT it reaches; a gate it does not commute with stops the
    walk. After a scan that deleted something, ``euler_peephole`` fuses the
    rotations that met, and the scan runs again, until one deletes nothing.
    The scans delete only CNOTs and change no rotation, so the unitary
    moves only by the peephole's rounding. Works on {CNOT, RZ, RX}
    circuits only.
    """
    while True:
        cnots = [g.qubits for g in c.gates if g.kind == "cnot"]
        if len(set(cnots)) == len(cnots):  # no two equal CNOTs, so no pair to delete
            return c
        gates = _cancel_round(c)
        if len(gates) == len(c.gates):
            return c
        c = euler_peephole(GateCircuit(c.n_qubits, tuple(gates)))


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
    """Reduce a run of single-qubit rotations ("rz" or "rx", angle) to at most three.

    The fused run alternates, and it is read into a stack of at most
    three: whenever a fourth rotation arrives, the first three rotate
    through the Euler identity and the fourth fuses onto the last of them.
    A zero sum drops and may let the next rotation fuse in turn, so the
    stack meets each rotation of the fused run once.
    """
    out: list[tuple[str, float]] = []
    for basis, angle in _fuse_rotation_run(run):
        if len(out) == 3 and out[-1][0] != basis:
            (b0, a1), (_, a2), (_, a3) = out
            b1, b2, b3 = euler_xzx_to_zxz(a1, a2, a3)
            other = "rx" if b0 == "rz" else "rz"
            out = _fuse_rotation_run([(other, b1), (b0, b2), (other, b3)])
        if out and out[-1][0] == basis:
            angle += out.pop()[1]
        if not is_zero_angle(angle):
            out.append((basis, angle))
    return out


def euler_peephole(c: GateCircuit) -> GateCircuit:
    """Collapse per-wire rotation runs; at most three rotations survive a run.

    Adjacent same-basis rotations fuse; longer alternating runs rotate
    through the Euler identity until they fit in three. Each angle is
    first reduced with ``wrap_angle``, so sums add in-range values. A run
    that nothing fuses, wraps or drops keeps its given gates. Works on
    {CNOT, RZ, RX} circuits only.
    """
    pending: list[list[ci.Gate]] = [[] for _ in range(c.n_qubits)]
    gates: list[ci.Gate] = []

    def flush(q: int) -> None:
        run = pending[q]
        if not run:
            return
        pending[q] = []
        if len(run) == 1 and -math.pi < run[0].angle <= math.pi and not is_zero_angle(run[0].angle):
            gates.append(run[0])  # one rotation, in range and not zero, stands
            return
        given = [(g.kind, g.angle) for g in run]
        collapsed = _collapse_run([(kind, ci.wrap_angle(angle)) for kind, angle in given])
        if collapsed == given:  # nothing fused, wrapped or dropped: the run stands
            gates.extend(run)
        else:
            gates.extend(ci.rz(a, q) if kind == "rz" else ci.rx(a, q) for kind, a in collapsed)

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
