"""Dense gate matrices and the Z-gadget diagonal: the tests' independent references.

Qubit 0 is the most significant bit of a basis index, as in
``phasefold.oracle``; no module of the package reads these.
"""

import cmath
import math

import numpy as np

from phasefold.oracle import _parities, _rz_diagonal

SQRT2_INV = 1.0 / math.sqrt(2.0)

H_MATRIX = np.array([[SQRT2_INV, SQRT2_INV], [SQRT2_INV, -SQRT2_INV]], dtype=complex)


def rz_matrix(theta: float) -> np.ndarray:
    return np.diag(_rz_diagonal(theta))


def rx_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

CZ_MATRIX = np.diag(np.array((1, 1, 1, -1), dtype=complex))


def cu1_matrix(theta: float) -> np.ndarray:
    return np.diag((1, 1, 1, cmath.exp(1j * theta)))


def crz_matrix(theta: float) -> np.ndarray:
    return np.diag((1, 1, cmath.exp(-0.5j * theta), cmath.exp(0.5j * theta)))


def crx_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    m = np.eye(4, dtype=complex)
    m[2, 2] = c
    m[2, 3] = -1j * s
    m[3, 2] = -1j * s
    m[3, 3] = c
    return m


def gadget_diagonal(n: int, theta: float, legs) -> np.ndarray:
    """Diagonal of a Z phase gadget under the oracle's sign convention: RZ's read at each leg parity."""
    index, parity = _parities(n)
    mask = sum(1 << (n - 1 - q) for q in range(n) if legs[q])
    return _rz_diagonal(theta)[parity[index & mask]]
