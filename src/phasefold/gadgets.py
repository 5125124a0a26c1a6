"""Phase-gadget circuits: interleaved Z/X gadget entries over n qubits.

A gadget entry is (basis, angle, legs). Legs are a GF(2) vector with bit
q = qubit q. A circuit of d entries projects onto a pair of leg matrices
(L_Z, L_X) whose columns are the legs of the Z (resp. X) entries in
order, plus the basis/angle sequence that the optimizer never touches.

Sign convention (asserted against the oracle): a gadget applies
exp(-i*theta/2) to basis states with even parity over its legs and
exp(+i*theta/2) to odd parity, matching RZ = diag(e^{-i t/2}, e^{+i t/2}).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .circuits import ParseError, parse_angle
from .gf2 import BitMatrix, BitVec, _mul_rows, _transpose_rows, row_ops

log = logging.getLogger(__name__)

ZERO_ANGLE_TOL = 1e-12


def is_zero_angle(angle: float) -> bool:
    """True when the angle is 0 mod 2*pi within ``ZERO_ANGLE_TOL``."""
    return abs(math.remainder(angle, 2.0 * math.pi)) <= ZERO_ANGLE_TOL


@dataclass(frozen=True)
class GadgetEntry:
    basis: str
    angle: float
    legs: BitVec

    def __post_init__(self):
        if self.basis not in ("Z", "X"):
            raise ValueError(f"basis must be 'Z' or 'X', got {self.basis!r}")
        if not math.isfinite(self.angle):
            raise ValueError("gadget angle must be finite")
        if not self.legs.bits:
            raise ValueError("gadgets need at least one leg")


def zgadget(angle: float, legs: BitVec | str) -> GadgetEntry:
    if isinstance(legs, str):
        legs = BitVec.from_string(legs)
    return GadgetEntry("Z", float(angle), legs)


def xgadget(angle: float, legs: BitVec | str) -> GadgetEntry:
    if isinstance(legs, str):
        legs = BitVec.from_string(legs)
    return GadgetEntry("X", float(angle), legs)


@dataclass(frozen=True)
class GadgetCircuit:
    n_qubits: int
    entries: tuple[GadgetEntry, ...]

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("gadget circuits need at least one qubit")
        for e in self.entries:
            if e.legs.n != self.n_qubits:
                raise ValueError("leg vector length must match qubit count")

    def __len__(self) -> int:
        return len(self.entries)


def gadget_circuit(
    n_qubits: int, specs: Iterable[tuple[str, float, BitVec | str]]
) -> GadgetCircuit:
    """Assemble a circuit, dropping zero-leg specs (pure global phases)."""
    entries = []
    for basis, angle, legs in specs:
        if isinstance(legs, str):
            legs = BitVec.from_string(legs)
        if legs.popcount() == 0:
            log.debug("dropping zero-leg %s gadget (angle %g): global phase only", basis, angle)
            continue
        entries.append(GadgetEntry(basis, float(angle), legs))
    return GadgetCircuit(n_qubits, tuple(entries))


def leg_matrices(g: GadgetCircuit) -> tuple[BitMatrix, BitMatrix]:
    """(L_Z, L_X) with column j the legs of the j-th Z (resp. X) entry."""
    z_cols = [e.legs for e in g.entries if e.basis == "Z"]
    x_cols = [e.legs for e in g.entries if e.basis == "X"]
    return (
        BitMatrix.from_cols(g.n_qubits, z_cols),
        BitMatrix.from_cols(g.n_qubits, x_cols),
    )


def _acted_legs(c_rows: Sequence[int], ops, legs: Iterable[tuple[str, int]]) -> list[int]:
    """Each (basis, legs word) of ``legs`` acted on by the C with row words ``c_rows``.

    C*legs for Z and (C^T)^-1*legs for X: new legs XOR the columns of C,
    or of (C^T)^-1, that the old ones pick. The columns of (C^T)^-1 are
    the rows of C^-1, which C's row operations ``ops`` give when replayed
    on I, so nothing inverts C.
    """
    n = len(c_rows)
    inv = [1 << i for i in range(n)]
    for r, s in ops:
        inv[r] ^= inv[s]
    columns = {"Z": _transpose_rows(c_rows, n), "X": inv}
    return [_mul_rows((word,), columns[basis])[0] for basis, word in legs]


def apply_action(g: GadgetCircuit, c: BitMatrix) -> GadgetCircuit:
    """Act with C on Z legs and (C^T)^-1 on X legs; order and angles kept."""
    if not c.is_square() or c.rows != g.n_qubits:
        raise ValueError("action matrix must be n x n")
    # row_ops raises NotInvertibleError for a singular C.
    words = _acted_legs(c._r, row_ops(c), [(e.basis, e.legs.bits) for e in g.entries])
    n = g.n_qubits
    return GadgetCircuit(
        n, tuple(GadgetEntry(e.basis, e.angle, BitVec(n, w)) for e, w in zip(g.entries, words))
    )


def commutes(a: GadgetEntry, b: GadgetEntry) -> bool:
    """Same-basis gadgets always commute; mixed pairs iff shared legs are even."""
    if a.legs.n != b.legs.n:
        raise ValueError("gadgets act on different qubit counts")
    if a.basis == b.basis:
        return True
    return not (a.legs.bits & b.legs.bits).bit_count() & 1


def fusion_plan(entries: Sequence[GadgetEntry]) -> list[tuple[GadgetEntry, list[int]]]:
    """Angle-agnostic fusion of equal-(basis, legs) entries across commuting swaps.

    Greedy bubble pass to a fixpoint: entry j is pulled next to entry i
    when everything between commutes with it. Returns the surviving
    entries in order, each with the source indices whose angles sum into
    it, so one plan can be applied to every repetition of a layer.
    """
    groups = [(e, [i]) for i, e in enumerate(entries)]
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(groups):
            ei, src_i = groups[i]
            j = i + 1
            # Walk right while everything commutes with entry i; the first
            # equal-(basis, legs) entry found this way can be pulled adjacent.
            while j < len(groups):
                ej, src_j = groups[j]
                if ej.basis == ei.basis and ej.legs == ei.legs:
                    src_i.extend(src_j)
                    del groups[j]
                    changed = True
                    break
                if not commutes(ej, ei):
                    break
                j += 1
            i += 1
    return groups


def parse_gadget_line(
    lineno: int, head: str, args: list[str], n_qubits: int
) -> tuple[str, float, BitVec]:
    """(basis, angle, legs) of one lexed ``zgadget``/``xgadget`` line."""
    if head not in ("zgadget", "xgadget"):
        raise ParseError(lineno, f"unknown construct {head!r}")
    if len(args) != 2:
        raise ParseError(lineno, f"{head} expects an angle and a bitstring")
    angle = parse_angle(lineno, args[0])
    if len(args[1]) != n_qubits or any(ch not in "01" for ch in args[1]):
        raise ParseError(lineno, f"bitstring must be {n_qubits} characters of 0/1")
    return ("Z" if head == "zgadget" else "X", angle, BitVec.from_string(args[1]))


def serialize_gadgets(g: GadgetCircuit) -> str:
    lines = [f"qubits {g.n_qubits}"]
    for e in g.entries:
        head = "zgadget" if e.basis == "Z" else "xgadget"
        lines.append(f"{head} {e.angle!r} {e.legs.to_string()}")
    return "\n".join(lines) + "\n"
