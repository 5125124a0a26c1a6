"""Gate-level circuit representation, text format, metrics and lowering.

The text format is one construct per line, ``#`` starts a comment,
keywords are case-insensitive, angles are decimal radians and qubits are
0-indexed:

    qubits <n>
    cnot <control> <target>
    rz <angle> <q>      rx <angle> <q>      ry <angle> <q>
    h <q>               cz <a> <b>
    crz <angle> <c> <t> crx <angle> <c> <t> cu1 <angle> <a> <b>

``lex`` reads this grammar for circuit, gadget and normal-form files.

``lower_to_basis`` rewrites every gate into {CNOT, RZ, RX}; all identities
used are checked against the dense oracle by the test suite, up to global
phase. Pauli gates are not distinct kinds: X differs from RX(pi) only by
a global phase, which this toolkit never tracks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterator

TWO_PI = 2.0 * math.pi

# kind -> (number of qubits, takes angle)
GATE_KINDS = {
    "cnot": (2, False),
    "rz": (1, True),
    "rx": (1, True),
    "ry": (1, True),
    "h": (1, False),
    "cz": (2, False),
    "crz": (2, True),
    "crx": (2, True),
    "cu1": (2, True),
}

BASIS_KINDS = frozenset({"cnot", "rz", "rx"})


class ParseError(ValueError):
    """Malformed circuit or gadget text; carries a 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity, has_angle = GATE_KINDS[self.kind]
        if len(self.qubits) != arity:
            raise ValueError(f"{self.kind} takes {arity} qubit(s)")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.kind} qubits must be distinct")
        if any(q < 0 for q in self.qubits):
            raise ValueError("negative qubit index")
        if has_angle:
            if self.angle is None or not math.isfinite(self.angle):
                raise ValueError(f"{self.kind} needs a finite angle")
        elif self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle")


def cnot(control: int, target: int) -> Gate:
    return Gate("cnot", (control, target))


def rz(angle: float, q: int) -> Gate:
    return Gate("rz", (q,), float(angle))


def rx(angle: float, q: int) -> Gate:
    return Gate("rx", (q,), float(angle))


def ry(angle: float, q: int) -> Gate:
    return Gate("ry", (q,), float(angle))


def h(q: int) -> Gate:
    return Gate("h", (q,))


def cz(a: int, b: int) -> Gate:
    return Gate("cz", (a, b))


def crz(angle: float, control: int, target: int) -> Gate:
    return Gate("crz", (control, target), float(angle))


def crx(angle: float, control: int, target: int) -> Gate:
    return Gate("crx", (control, target), float(angle))


def cu1(angle: float, a: int, b: int) -> Gate:
    return Gate("cu1", (a, b), float(angle))


@dataclass(frozen=True)
class GateCircuit:
    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("circuits need at least one qubit")
        for g in self.gates:
            if any(q >= self.n_qubits for q in g.qubits):
                raise ValueError(f"gate {g} out of range for {self.n_qubits} qubits")

    def __len__(self) -> int:
        return len(self.gates)


def lex(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """Yield (lineno, keyword, args) for each construct of a text file.

    The one grammar shared by circuit, gadget and normal-form files:
    ``#`` starts a comment, blank lines are skipped, keywords come back
    lower-cased and line numbers are 1-based. The first construct must
    be the only ``qubits <n>`` line, with n a plain decimal integer >= 1;
    it is yielded too, already checked.
    """
    declared = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        keyword, args = parts[0].lower(), parts[1:]
        if keyword == "qubits":
            if declared:
                raise ParseError(lineno, "duplicate qubits declaration")
            if len(args) != 1 or not (args[0].isascii() and args[0].isdigit()) or int(args[0]) < 1:
                raise ParseError(lineno, "qubits expects one positive integer")
            declared = True
        elif not declared:
            raise ParseError(lineno, "expected 'qubits <n>' first")
        yield lineno, keyword, args
    if not declared:
        raise ParseError(1, "missing 'qubits <n>' declaration")


def parse_gate_line(lineno: int, head: str, args: list[str], n_qubits: int) -> Gate:
    """The gate of one lexed line of a circuit file."""
    if head not in GATE_KINDS:
        raise ParseError(lineno, f"unknown gate {head!r}")
    arity, has_angle = GATE_KINDS[head]
    want = arity + (1 if has_angle else 0)
    if len(args) != want:
        raise ParseError(lineno, f"{head} expects {want} argument(s)")
    try:
        angle = float(args[0]) if has_angle else None
        qubits = tuple(int(a) for a in (args[1:] if has_angle else args))
    except ValueError:
        raise ParseError(lineno, f"bad arguments for {head}: {' '.join(args)}") from None
    if has_angle and not math.isfinite(angle):
        raise ParseError(lineno, f"non-finite angle {args[0]}")
    if any(not 0 <= q < n_qubits for q in qubits):
        raise ParseError(lineno, f"qubit out of range for {n_qubits} qubits")
    try:
        return Gate(head, qubits, angle)
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from None


def parse(text: str) -> GateCircuit:
    """Parse the circuit text format; raises ParseError with a line number."""
    n_qubits = 0
    gates: list[Gate] = []
    for lineno, head, args in lex(text):
        if head == "qubits":
            n_qubits = int(args[0])
        else:
            gates.append(parse_gate_line(lineno, head, args, n_qubits))
    return GateCircuit(n_qubits, tuple(gates))


def serialize(c: GateCircuit) -> str:
    lines = [f"qubits {c.n_qubits}"]
    for g in c.gates:
        if g.angle is not None:
            lines.append(f"{g.kind} {g.angle!r} {' '.join(map(str, g.qubits))}")
        else:
            lines.append(f"{g.kind} {' '.join(map(str, g.qubits))}")
    return "\n".join(lines) + "\n"


PI_2 = math.pi / 2.0


def _lower_gate(g: Gate) -> list[Gate]:
    if g.kind in BASIS_KINDS:
        return [g]
    if g.kind == "h":
        q = g.qubits[0]
        return [rz(PI_2, q), rx(PI_2, q), rz(PI_2, q)]
    if g.kind == "ry":
        # RY(t) = RZ(pi/2) RX(t) RZ(-pi/2) as matrices; rightmost acts first.
        q = g.qubits[0]
        return [rz(-PI_2, q), rx(g.angle, q), rz(PI_2, q)]
    if g.kind == "cz":
        return _lower_gate(cu1(math.pi, *g.qubits))
    if g.kind == "cu1":
        # Two one-leg Z gadgets plus a two-leg Z gadget of opposite sign.
        a, b = g.qubits
        t = g.angle
        return [rz(t / 2, a), rz(t / 2, b), cnot(a, b), rz(-t / 2, b), cnot(a, b)]
    if g.kind == "crz":
        c, t = g.qubits
        return [cnot(c, t), rz(-g.angle / 2, t), cnot(c, t), rz(g.angle / 2, t)]
    if g.kind == "crx":
        # CRX = (I (x) H) CRZ (I (x) H), with H written as rotations.
        c, t = g.qubits
        hadamard = [rz(PI_2, t), rx(PI_2, t), rz(PI_2, t)]
        return hadamard + _lower_gate(crz(g.angle, c, t)) + hadamard
    raise ValueError(f"cannot lower gate kind {g.kind!r}")


def lower_to_basis(c: GateCircuit) -> GateCircuit:
    """Rewrite to {CNOT, RZ, RX}; unitary preserved up to global phase."""
    out: list[Gate] = []
    for g in c.gates:
        out.extend(_lower_gate(g))
    return GateCircuit(c.n_qubits, tuple(out))


def wrap_angle(a: float) -> float:
    """Reduce to the interval (-pi, pi]; in-range values pass through bit-exact."""
    if -math.pi < a <= math.pi:
        return a
    a = math.fmod(a + math.pi, TWO_PI)
    if a <= 0.0:
        a += TWO_PI
    return a - math.pi


def euler_xzx_to_zxz(a1: float, a2: float, a3: float) -> tuple[float, float, float]:
    """Rewrite Rx(a3) Rz(a2) Rx(a1) as Rz(b3) Rx(b2) Rz(b1).

    Exact reconstruction before wrapping; wrapping to (-pi, pi] can flip
    the global sign, so equality holds up to global phase. By Hadamard
    conjugation the same triple also rewrites Rz(a3) Rx(a2) Rz(a1) as
    Rx(b3) Rz(b2) Rx(b1).

    Degenerate cases fall out of atan2/arg conventions: arg 0 = 0, so
    |z2| = 0 gives b2 = 0 and |z1| = 0 gives b2 = pi.
    """
    half_sum = (a1 + a3) / 2.0
    half_diff = (a1 - a3) / 2.0
    c2, s2 = math.cos(a2 / 2.0), math.sin(a2 / 2.0)
    z1 = complex(c2 * math.cos(half_sum), s2 * math.cos(half_diff))
    z2 = complex(c2 * math.sin(half_sum), -s2 * math.sin(half_diff))
    arg1 = cmath.phase(z1) if z1 != 0 else 0.0
    arg2 = cmath.phase(z2) if z2 != 0 else 0.0
    b1 = arg1 + arg2
    b2 = 2.0 * math.atan2(abs(z2), abs(z1))
    b3 = arg1 - arg2
    return wrap_angle(b1), wrap_angle(b2), wrap_angle(b3)


def cnot_count(c: GateCircuit) -> int:
    return sum(1 for g in c.gates if g.kind == "cnot")


def cnot_depth(c: GateCircuit) -> int:
    """CNOT layers of the greedy left-packed schedule.

    Every gate is packed into the earliest layer where all its qubits are
    free; single-qubit gates occupy their slot but layers containing no
    CNOT are not counted.
    """
    busy = [0] * c.n_qubits
    cnot_layers: set[int] = set()
    for g in c.gates:
        layer = 1 + max(busy[q] for q in g.qubits)
        for q in g.qubits:
            busy[q] = layer
        if g.kind == "cnot":
            cnot_layers.add(layer)
    return len(cnot_layers)
