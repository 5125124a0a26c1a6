"""Bridging gate circuits and gadget circuits.

* ``h_z`` / ``h_x`` map CNOT circuits to their GL(n,2) actions on Z and X
  gadget legs; they are group homomorphisms related by inverse transpose.
* ``extract`` sweeps a {CNOT, RZ, RX} circuit left to right, commuting
  every rotation to the front as a gadget and leaving a pure CNOT tail:
  the normal form "gadgets then CNOTs".
* ``detect_layers`` finds structural layer repetition with the KMP
  failure function, comparing (basis, legs) and leaving angles free.
* ``synth_cnot`` / ``synth_gadget`` rebuild gate circuits from a GL(n,2)
  matrix (Gaussian elimination, at most n^2 gates) and from gadget
  entries (ladder or balanced-tree CNOT fan-in).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import circuits as ci
from .circuits import Gate, GateCircuit, ParseError, lex, parse_gate_line
from .gadgets import (
    GadgetCircuit,
    GadgetEntry,
    gadget_circuit,
    parse_gadget_line,
    serialize_gadgets,
)
from .gf2 import BitMatrix, BitVec, row_ops


@dataclass(frozen=True)
class CnotCircuit:
    n_qubits: int
    cnots: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for c, t in self.cnots:
            if c == t or not (0 <= c < self.n_qubits and 0 <= t < self.n_qubits):
                raise ValueError(f"bad cnot ({c}, {t}) on {self.n_qubits} qubits")

    def __len__(self) -> int:
        return len(self.cnots)

    def to_gates(self) -> GateCircuit:
        return GateCircuit(self.n_qubits, tuple(ci.cnot(c, t) for c, t in self.cnots))


@dataclass(frozen=True)
class NormalForm:
    gadgets: GadgetCircuit
    tail: CnotCircuit

    def __post_init__(self):
        if self.gadgets.n_qubits != self.tail.n_qubits:
            raise ValueError("gadget and tail qubit counts differ")


def h_z(c: CnotCircuit) -> BitMatrix:
    """Action on Z gadget legs; product of per-gate matrices in gate order.

    Kept as column words: h_z(CNOT(c,t)) = I + E(c,t) adds column c to
    column t.
    """
    cols = [1 << i for i in range(c.n_qubits)]
    for control, target in c.cnots:
        cols[target] ^= cols[control]
    return BitMatrix(c.n_qubits, c.n_qubits, cols).transpose()


def h_x(c: CnotCircuit) -> BitMatrix:
    """Action on X gadget legs; equals inverse_transpose(h_z(c)).

    h_x(CNOT(c,t)) = I + E(t,c) adds column t to column c.
    """
    cols = [1 << i for i in range(c.n_qubits)]
    for control, target in c.cnots:
        cols[control] ^= cols[target]
    return BitMatrix(c.n_qubits, c.n_qubits, cols).transpose()


def extract(c: GateCircuit) -> NormalForm:
    """Normal form of a {CNOT, RZ, RX} circuit: gadgets then a CNOT tail.

    Sweeps left to right keeping the columns of M = h_z(CNOTs seen so far)
    and of inverse_transpose(M) = h_x(same); RZ(theta, q) becomes a Z
    gadget with legs M e_q, column q of M, and RX a X gadget with legs
    column q of inverse_transpose(M). The tail keeps the CNOTs in input
    order.
    """
    n = c.n_qubits
    z_cols = [1 << i for i in range(n)]
    x_cols = [1 << i for i in range(n)]
    entries: list[GadgetEntry] = []
    tail: list[tuple[int, int]] = []
    for g in c.gates:
        if g.kind == "cnot":
            control, target = g.qubits
            z_cols[target] ^= z_cols[control]
            x_cols[control] ^= x_cols[target]
            tail.append((control, target))
        elif g.kind == "rz":
            entries.append(GadgetEntry("Z", g.angle, BitVec(n, z_cols[g.qubits[0]])))
        elif g.kind == "rx":
            entries.append(GadgetEntry("X", g.angle, BitVec(n, x_cols[g.qubits[0]])))
        else:
            raise ValueError(
                f"extract expects a {{cnot, rz, rx}} circuit, got {g.kind!r}; lower first"
            )
    return NormalForm(
        GadgetCircuit(n, tuple(entries)), CnotCircuit(n, tuple(tail))
    )


@dataclass(frozen=True)
class LayerInfo:
    unit_length: int
    repeats: int
    offset: int


def _failure(tokens: Sequence) -> list[int]:
    """KMP prefix function: longest proper border of each prefix."""
    fail = [0] * len(tokens)
    k = 0
    for i in range(1, len(tokens)):
        while k and tokens[i] != tokens[k]:
            k = fail[k - 1]
        if tokens[i] == tokens[k]:
            k += 1
        fail[i] = k
    return fail


def detect_layers(g: GadgetCircuit) -> LayerInfo:
    """Structural layer repetition: entries = prefix + unit^repeats.

    Matching compares (basis, legs) only; angles are free.
    The minimal KMP period p of the token sequence is used; the leading
    ``d mod p`` entries form the non-repeating prefix (offset) and the
    rest splits into maximal repeats. Without at least two full repeats
    the whole sequence is its own unit.
    """
    d = len(g.entries)
    if d == 0:
        return LayerInfo(0, 1, 0)
    fail = _failure([(e.basis, e.legs) for e in g.entries])
    period = d - fail[-1]
    offset = d % period
    repeats = (d - offset) // period
    if repeats < 2:
        return LayerInfo(d, 1, 0)
    return LayerInfo(period, repeats, offset)


def synth_cnot(m: BitMatrix) -> CnotCircuit:
    """CNOT circuit with h_z equal to ``m``, by Gaussian elimination.

    Each row operation "row a ^= row b" of ``row_ops`` contributes
    CNOT(a, b); clearing one column costs at most n gates, so the total
    stays below n^2.
    """
    return CnotCircuit(m.rows, tuple(row_ops(m)))


def _fan_in_pairs(legs: list[int], tree: bool) -> list[tuple[int, int]]:
    """(source, sink) CNOT pairs accumulating parity onto legs[0]."""
    if tree:
        pairs = []
        active = list(legs)
        while len(active) > 1:
            nxt = []
            for i in range(0, len(active) - 1, 2):
                pairs.append((active[i + 1], active[i]))
                nxt.append(active[i])
            if len(active) % 2:
                nxt.append(active[-1])
            active = nxt
        return pairs
    return [(legs[i], legs[i - 1]) for i in range(len(legs) - 1, 0, -1)]


def synth_gadget(e: GadgetEntry, shape: str = "tree") -> GateCircuit:
    """Gate realisation of one gadget: CNOT fan-in, rotation, mirrored fan-out.

    Parity is accumulated onto the lowest-index leg, which carries the
    rotation. ``ladder`` chains the legs sequentially; ``tree`` pairs
    adjacent legs by index, giving 2*ceil(log2 k) CNOT stages for k legs.
    X gadgets use the colour-swapped form: fan-in CNOTs flipped and a
    central RX, per the Hadamard conjugation that defines them.
    """
    if shape not in ("ladder", "tree"):
        raise ValueError(f"shape must be 'ladder' or 'tree', got {shape!r}")
    n, bits = e.legs.n, e.legs.bits
    leg_qubits = [q for q in range(n) if bits >> q & 1]
    pairs = _fan_in_pairs(leg_qubits, tree=(shape == "tree"))
    # A fused gadget angle may lie outside (-pi, pi]; a turn changes RZ or
    # RX only by a sign.
    angle = ci.wrap_angle(e.angle)
    if e.basis == "Z":
        fan_in = [ci.cnot(s, t) for s, t in pairs]
        rotation = ci.rz(angle, leg_qubits[0])
    else:
        fan_in = [ci.cnot(t, s) for s, t in pairs]
        rotation = ci.rx(angle, leg_qubits[0])
    return GateCircuit(n, (*fan_in, rotation, *reversed(fan_in)))  # fan-out mirrors fan-in


def synth_gadget_circuit(g: GadgetCircuit, shape: str = "tree") -> GateCircuit:
    """Concatenation of per-entry syntheses, in order."""
    gates: list[Gate] = []
    for e in g.entries:
        gates.extend(synth_gadget(e, shape).gates)
    return GateCircuit(g.n_qubits, tuple(gates))


def serialize_normal_form(nf: NormalForm) -> str:
    """Gadget text plus a `# tail` block of cnot lines."""
    text = serialize_gadgets(nf.gadgets)
    if nf.tail.cnots:
        lines = ["# tail"]
        lines.extend(f"cnot {c} {t}" for c, t in nf.tail.cnots)
        text += "\n".join(lines) + "\n"
    return text


def parse_normal_form(text: str) -> NormalForm:
    """Parse gadget text that may carry a trailing cnot block."""
    n_qubits = 0
    specs: list[tuple[str, float, BitVec]] = []
    cnots: list[tuple[int, int]] = []
    for lineno, head, args in lex(text):
        if head == "qubits":
            n_qubits = int(args[0])
        elif head == "cnot":
            cnots.append(parse_gate_line(lineno, head, args, n_qubits).qubits)
        elif cnots:
            raise ParseError(lineno, "gadget lines after the cnot tail")
        else:
            specs.append(parse_gadget_line(lineno, head, args, n_qubits))
    return NormalForm(gadget_circuit(n_qubits, specs), CnotCircuit(n_qubits, tuple(cnots)))
