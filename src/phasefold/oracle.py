"""Dense complex-unitary simulator used as ground truth for equivalence checks.

Conventions, fixed once and asserted by tests:

* Qubit 0 is the most significant bit of the basis-state index, so on two
  qubits ``CNOT(0, 1)`` is the permutation swapping ``|10>`` and ``|11>``.
* A Z phase gadget with angle ``theta`` multiplies a basis state by
  ``exp(-i*theta/2)`` when the parity over its legs is even and by
  ``exp(+i*theta/2)`` when it is odd. X gadgets are the Hadamard
  conjugates of Z gadgets on their legs.

Dense 2^n x 2^n matrices only; callers must keep n <= MAX_QUBITS.
"""

from __future__ import annotations

import cmath
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


def _apply(u: np.ndarray, gate: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Left-multiply ``u`` by ``gate`` embedded on the given qubits."""
    k = len(qubits)
    t = u.reshape((2,) * n + (u.shape[1],))
    g = gate.reshape((2,) * (2 * k))
    t = np.tensordot(g, t, axes=(list(range(k, 2 * k)), list(qubits)))
    t = np.moveaxis(t, list(range(k)), list(qubits))
    return t.reshape(u.shape)


def _check_size(n_qubits: int) -> None:
    if n_qubits > MAX_QUBITS:
        raise TooManyQubitsError(
            f"{n_qubits} qubits exceeds the dense oracle limit of {MAX_QUBITS}"
        )


_ONE_QUBIT = {"rz": rz_matrix, "rx": rx_matrix, "ry": ry_matrix}
_TWO_QUBIT_PARAM = {"crz": crz_matrix, "crx": crx_matrix, "cu1": cu1_matrix}


def unitary_of_circuit(circuit) -> np.ndarray:
    """Product of gate embeddings in application order (earlier gates act first)."""
    n = circuit.n_qubits
    _check_size(n)
    u = np.eye(1 << n, dtype=complex)
    for g in circuit.gates:
        if g.kind in _ONE_QUBIT:
            u = _apply(u, _ONE_QUBIT[g.kind](g.angle), g.qubits, n)
        elif g.kind == "h":
            u = _apply(u, H_MATRIX, g.qubits, n)
        elif g.kind == "cnot":
            u = _apply(u, CNOT_MATRIX, g.qubits, n)
        elif g.kind == "cz":
            u = _apply(u, CZ_MATRIX, g.qubits, n)
        elif g.kind in _TWO_QUBIT_PARAM:
            u = _apply(u, _TWO_QUBIT_PARAM[g.kind](g.angle), g.qubits, n)
        else:
            raise ValueError(f"unknown gate kind {g.kind!r}")
    return u


def _leg_parities(n: int, legs) -> np.ndarray:
    """Parity over the leg qubits for every basis index (qubit 0 = MSB)."""
    idx = np.arange(1 << n)
    par = np.zeros(1 << n, dtype=np.int64)
    for q in range(n):
        if legs[q]:
            par ^= (idx >> (n - 1 - q)) & 1
    return par


def gadget_diagonal(n: int, theta: float, legs) -> np.ndarray:
    """Diagonal of a Z phase gadget under the sign convention above."""
    par = _leg_parities(n, legs)
    return np.where(par == 1, cmath.exp(0.5j * theta), cmath.exp(-0.5j * theta))


def unitary_of_gadgets(gadgets) -> np.ndarray:
    """Unitary of a gadget circuit; X entries via Hadamard conjugation on legs."""
    n = gadgets.n_qubits
    _check_size(n)
    u = np.eye(1 << n, dtype=complex)
    for entry in gadgets.entries:
        legs = entry.legs
        leg_qubits = [q for q in range(n) if legs[q]]
        if entry.basis == "X":
            for q in leg_qubits:
                u = _apply(u, H_MATRIX, (q,), n)
        u = gadget_diagonal(n, entry.angle, legs)[:, None] * u
        if entry.basis == "X":
            for q in leg_qubits:
                u = _apply(u, H_MATRIX, (q,), n)
    return u


def is_unitary(u: np.ndarray, tol: float = 1e-9) -> bool:
    return bool(
        np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) < tol
    )


def phase_aligned_max_error(u: np.ndarray, v: np.ndarray) -> float:
    """max |u - e^{i phi} v| with phi taken from the largest entry of v^dag u."""
    if u.shape != v.shape:
        raise ValueError("dimension mismatch")
    m = v.conj().T @ u
    flat = np.argmax(np.abs(m))
    pivot = m.flat[flat]
    if abs(pivot) == 0:
        return float(np.max(np.abs(u - v)))
    phase = pivot / abs(pivot)
    return float(np.max(np.abs(u - phase * v)))


def equiv_up_to_phase(u: np.ndarray, v: np.ndarray) -> bool:
    """True iff u equals v up to a global phase, within ``VERIFY_TOL`` max-norm."""
    return phase_aligned_max_error(u, v) < VERIFY_TOL
