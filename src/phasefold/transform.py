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
from .gf2 import BitMatrix, BitVec, NotInvertibleError, rank


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


def _hz_apply(rows: list[int], control: int, target: int) -> None:
    """Right-multiply the row-packed matrix by h_z(CNOT(c,t)) = I + E(c,t)."""
    # Column t gains column c: every row with bit c set flips bit t.
    for i, w in enumerate(rows):
        if (w >> control) & 1:
            rows[i] = w ^ (1 << target)


def _hx_apply(rows: list[int], control: int, target: int) -> None:
    """Right-multiply by h_x(CNOT(c,t)) = I + E(t,c)."""
    for i, w in enumerate(rows):
        if (w >> target) & 1:
            rows[i] = w ^ (1 << control)


def h_z(c: CnotCircuit) -> BitMatrix:
    """Action on Z gadget legs; product of per-gate matrices in gate order."""
    rows = [1 << i for i in range(c.n_qubits)]
    for control, target in c.cnots:
        _hz_apply(rows, control, target)
    return BitMatrix(c.n_qubits, c.n_qubits, rows)


def h_x(c: CnotCircuit) -> BitMatrix:
    """Action on X gadget legs; equals inverse_transpose(h_z(c))."""
    rows = [1 << i for i in range(c.n_qubits)]
    for control, target in c.cnots:
        _hx_apply(rows, control, target)
    return BitMatrix(c.n_qubits, c.n_qubits, rows)


def extract(c: GateCircuit) -> NormalForm:
    """Normal form of a {CNOT, RZ, RX} circuit: gadgets then a CNOT tail.

    Sweeps left to right keeping M = h_z(CNOTs seen so far); RZ(theta, q)
    becomes a Z gadget with legs M e_q, RX a X gadget with legs
    inverse_transpose(M) e_q. The tail keeps the CNOTs in input order.
    """
    n = c.n_qubits
    mz = [1 << i for i in range(n)]
    mx = [1 << i for i in range(n)]
    entries: list[GadgetEntry] = []
    tail: list[tuple[int, int]] = []
    for g in c.gates:
        if g.kind == "cnot":
            control, target = g.qubits
            _hz_apply(mz, control, target)
            _hx_apply(mx, control, target)
            tail.append((control, target))
        elif g.kind in ("rz", "rx"):
            rows = mz if g.kind == "rz" else mx
            q = g.qubits[0]
            legs = 0
            for i in range(n):
                legs |= ((rows[i] >> q) & 1) << i
            basis = "Z" if g.kind == "rz" else "X"
            entries.append(GadgetEntry(basis, g.angle, BitVec(n, legs)))
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

    Each row operation "row a ^= row b" contributes CNOT(a, b); clearing
    one column costs at most n gates, so the total stays below n^2.
    """
    if not m.is_square():
        raise ValueError("synthesis needs a square matrix")
    n = m.rows
    if rank(m) < n:
        raise NotInvertibleError("cannot synthesise a singular matrix")
    rows = list(m.row_word(i) for i in range(n))
    gates: list[tuple[int, int]] = []
    for col in range(n):
        mask = 1 << col
        if not rows[col] & mask:
            source = next(i for i in range(col + 1, n) if rows[i] & mask)
            rows[col] ^= rows[source]
            gates.append((col, source))
        for i in range(n):
            if i != col and rows[i] & mask:
                rows[i] ^= rows[col]
                gates.append((i, col))
    return CnotCircuit(n, tuple(gates))


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
    n = e.legs.n
    leg_qubits = [q for q in range(n) if e.legs[q]]
    pairs = _fan_in_pairs(leg_qubits, tree=(shape == "tree"))
    angle = ci.wrap_angle(e.angle)  # angles leave the toolkit reduced mod 2*pi
    gates: list[Gate] = []
    if e.basis == "Z":
        gates.extend(ci.cnot(s, t) for s, t in pairs)
        gates.append(ci.rz(angle, leg_qubits[0]))
        gates.extend(ci.cnot(s, t) for s, t in reversed(pairs))
    else:
        gates.extend(ci.cnot(t, s) for s, t in pairs)
        gates.append(ci.rx(angle, leg_qubits[0]))
        gates.extend(ci.cnot(t, s) for s, t in reversed(pairs))
    return GateCircuit(n, tuple(gates))


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


def normal_form_to_gates(nf: NormalForm, shape: str = "tree") -> GateCircuit:
    """Synthesize gadgets then append the CNOT tail."""
    gadget_part = synth_gadget_circuit(nf.gadgets, shape)
    return GateCircuit(
        nf.gadgets.n_qubits, gadget_part.gates + nf.tail.to_gates().gates
    )
