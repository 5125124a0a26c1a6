"""Dense complex-unitary simulator used as ground truth for equivalence checks.

Conventions, fixed once and asserted by tests:

* Qubit 0 is the most significant bit of the basis-state index, so on two
  qubits ``CNOT(0, 1)`` is the permutation swapping ``|10>`` and ``|11>``.
* A Z phase gadget with angle ``theta`` multiplies a basis state by
  ``exp(-i*theta/2)`` when the parity over its legs is even and by
  ``exp(+i*theta/2)`` when it is odd. X gadgets are the Hadamard
  conjugates of Z gadgets on their legs.

Products are dense 2^n x 2^n matrices; callers must keep n <= MAX_QUBITS.
CNOTs are row permutations and RZ, CZ, CRZ, CU1 and gadget phases are
diagonals, so each composes into a pending permutation and phase vector
at O(2^n). Only a row-mixing gate (RX, RY, H, CRX, and the Hadamards of
an X gadget) touches the matrix: the pending part is flushed into it
with one gather and one row scaling, then the gate mixes row pairs, each
O(4^n). One more flush ends the product.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

MAX_QUBITS = 10
VERIFY_TOL = 1e-9  # max phase-aligned entry error of an equivalence

SQRT2_INV = 1.0 / math.sqrt(2.0)

H_MATRIX = np.array([[SQRT2_INV, SQRT2_INV], [SQRT2_INV, -SQRT2_INV]], dtype=complex)


class TooManyQubitsError(ValueError):
    """Circuit exceeds the dense-simulation qubit limit."""


def rz_matrix(theta: float) -> np.ndarray:
    return np.array(
        [[cmath.exp(-0.5j * theta), 0], [0, cmath.exp(0.5j * theta)]], dtype=complex
    )


def rx_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

CZ_MATRIX = np.diag([1, 1, 1, -1]).astype(complex)


def cu1_matrix(theta: float) -> np.ndarray:
    return np.diag([1, 1, 1, cmath.exp(1j * theta)]).astype(complex)


def crz_matrix(theta: float) -> np.ndarray:
    return np.diag(
        [1, 1, cmath.exp(-0.5j * theta), cmath.exp(0.5j * theta)]
    ).astype(complex)


def crx_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    m = np.eye(4, dtype=complex)
    m[2, 2] = c
    m[2, 3] = -1j * s
    m[3, 2] = -1j * s
    m[3, 3] = c
    return m


def _check_size(n_qubits: int) -> None:
    if n_qubits > MAX_QUBITS:
        raise TooManyQubitsError(
            f"{n_qubits} qubits exceeds the dense oracle limit of {MAX_QUBITS}"
        )


# The index tables below are cached read-only per (n, qubits); n <= MAX_QUBITS
# bounds them to a few hundred arrays of at most 2^MAX_QUBITS entries.
@functools.lru_cache(maxsize=None)
def _bits(n: int) -> np.ndarray:
    """Row q is bit q (qubit 0 = MSB) of every basis index; read-only."""
    shifts = np.arange(n - 1, -1, -1)[:, None]
    bits = (np.arange(1 << n)[None, :] >> shifts) & 1
    bits.setflags(write=False)
    return bits


@functools.lru_cache(maxsize=None)
def _local_index(n: int, qubits: tuple[int, ...]) -> np.ndarray:
    """Index into a gate's own basis (first qubit = MSB) for every basis index."""
    bits = _bits(n)
    local = np.zeros(1 << n, dtype=np.int64)
    for q in qubits:
        local = (local << 1) | bits[q]
    local.setflags(write=False)
    return local


@functools.lru_cache(maxsize=None)
def _cnot_rows(n: int, control: int, target: int) -> np.ndarray:
    """Row i of CNOT times U is row ``i ^ (control bit << target position)`` of U."""
    rows = np.arange(1 << n) ^ (_bits(n)[control] << (n - 1 - target))
    rows.setflags(write=False)
    return rows


class _Pending:
    """A 2^n x 2^n unitary kept as ``ph[:, None] * u[perm]``.

    Permutations and diagonals compose into ``perm`` and ``ph`` in O(2^n)
    (``None`` stands for the identity); ``flush`` writes them into ``u``
    with one gather and one row scaling, O(4^n), before any gate that
    mixes rows. The gather and the pair mix write into ``spare``, which
    then swaps with ``u``, so the two matrices are reused gate after gate.
    """

    def __init__(self, n: int):
        self.n = n
        self.u = np.eye(1 << n, dtype=complex)
        self.spare = np.empty_like(self.u)
        self.perm: np.ndarray | None = None
        self.ph: np.ndarray | None = None

    def permute(self, rows: np.ndarray) -> None:
        """Left-multiply by the permutation that moves row ``rows[i]`` to row i."""
        self.perm = rows if self.perm is None else self.perm[rows]
        if self.ph is not None:
            self.ph = self.ph[rows]

    def scale(self, diagonal: np.ndarray) -> None:
        """Left-multiply by a diagonal matrix."""
        self.ph = diagonal if self.ph is None else self.ph * diagonal

    def flush(self) -> np.ndarray:
        if self.perm is not None:
            # Indices are always in range; mode="raise" would buffer ``out``.
            np.take(self.u, self.perm, axis=0, out=self.spare, mode="clip")
            self.u, self.spare = self.spare, self.u
            self.perm = None
        if self.ph is not None:
            self.u *= self.ph[:, None]
            self.ph = None
        return self.u

    def mix(self, gate: np.ndarray, target: int, control: int | None = None) -> None:
        """Left-multiply by a 2x2 gate on ``target``, on the rows where ``control`` is 1."""
        u = self.flush()
        if control is None:
            pairs = u.reshape(1 << target, 2, -1)
            np.matmul(gate, pairs, out=self.spare.reshape(pairs.shape))
            self.u, self.spare = self.spare, self.u
            return
        rows = u.reshape((2,) * self.n + (-1,))[(slice(None),) * control + (1,)]
        pairs = np.moveaxis(rows, target - (control < target), -2)
        pairs[...] = gate @ pairs


_DIAGONAL = {
    "rz": rz_matrix,
    "cz": lambda _: CZ_MATRIX,
    "cu1": cu1_matrix,
    "crz": crz_matrix,
}
_MIXING = {"rx": rx_matrix, "ry": ry_matrix, "h": lambda _: H_MATRIX}


def unitary_of_circuit(circuit) -> np.ndarray:
    """Product of gate embeddings in application order (earlier gates act first)."""
    n = circuit.n_qubits
    _check_size(n)
    acc = _Pending(n)
    for g in circuit.gates:
        kind, qubits = g.kind, g.qubits
        if kind == "cnot":
            acc.permute(_cnot_rows(n, *qubits))
        elif kind in _DIAGONAL:
            diagonal = np.diagonal(_DIAGONAL[kind](g.angle))
            acc.scale(diagonal[_local_index(n, qubits)])
        elif kind in _MIXING:
            acc.mix(_MIXING[kind](g.angle), qubits[0])
        elif kind == "crx":
            acc.mix(crx_matrix(g.angle)[2:, 2:], qubits[1], control=qubits[0])
        else:
            raise ValueError(f"unknown gate kind {kind!r}")
    return acc.flush()


def gadget_diagonal(n: int, theta: float, legs) -> np.ndarray:
    """Diagonal of a Z phase gadget under the sign convention above."""
    leg_qubits = [q for q in range(n) if legs[q]]
    parity = np.bitwise_xor.reduce(_bits(n)[leg_qubits], axis=0, initial=0)
    return np.where(parity == 1, cmath.exp(0.5j * theta), cmath.exp(-0.5j * theta))


def unitary_of_gadgets(gadgets) -> np.ndarray:
    """Unitary of a gadget circuit; X entries via Hadamard conjugation on legs."""
    n = gadgets.n_qubits
    _check_size(n)
    acc = _Pending(n)
    for entry in gadgets.entries:
        leg_qubits = [q for q in range(n) if entry.legs[q]]
        hadamards = leg_qubits if entry.basis == "X" else []
        for q in hadamards:
            acc.mix(H_MATRIX, q)
        acc.scale(gadget_diagonal(n, entry.angle, entry.legs))
        for q in hadamards:
            acc.mix(H_MATRIX, q)
    return acc.flush()


def phase_aligned_max_error(u: np.ndarray, v: np.ndarray) -> float:
    """max |u - e^{i phi} v| with e^{i phi} the phase of tr(v^dag u).

    The trace phase minimises the Frobenius distance ||u - e^{i phi} v||,
    so for an equivalent pair it is the true phase up to rounding, and it
    costs O(4^n) where the full v^dag u product costs O(8^n). For unitaries
    a zero trace gives ||u - e^{i phi} v||_F^2 = 2 * 2^n for every phi: no
    phase can make such a pair equivalent.
    """
    if u.shape != v.shape:
        raise ValueError("dimension mismatch")
    trace = np.vdot(v, u)
    if trace == 0:
        return float(np.max(np.abs(u - v)))
    return float(np.max(np.abs(u - (trace / abs(trace)) * v)))


def equiv_up_to_phase(u: np.ndarray, v: np.ndarray) -> bool:
    """True iff u equals v up to a global phase, within ``VERIFY_TOL`` max-norm."""
    return phase_aligned_max_error(u, v) < VERIFY_TOL
