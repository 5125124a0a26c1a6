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
diagonals, so each composes into a pending part at O(2^n). Only the
row-mixing gates (RX, RY, H, CRX, and the Hadamards of an X gadget) need
the matrix. Two kernels handle them:

* per gate (``_Pending``, below ``GROUP_MIN_QUBITS`` qubits): the pending
  permutation and phases are flushed into the matrix with one gather and
  one row scaling, then the gate mixes row pairs, up to three O(4^n)
  passes per mixing gate;
* grouped (``_Grouped``, from ``GROUP_MIN_QUBITS`` qubits on): a mixing
  gate pairs rows along a direction of GF(2)^n and only combines the
  rows of a 2^n x 2^d coefficient array, O(2^n * 2^d), where d counts
  the group's directions so far. A group is applied with two O(4^n)
  passes, one gather and one batched product by 2^d x 2^d blocks, when
  a gate would add a direction past D = ``GROUP_DIRECTIONS``, and at the
  end.

One more gather and row scaling return the rows in natural order.

Time per unitary (ms, best of 9; 2-vCPU Xeon, numpy 2.4 with OpenBLAS)
of the per-gate kernel and of groups of at most 5 directions, on seeded
ladder-synthesised gadget ansaetze (inputs and optimised outputs),
random {CNOT, RZ, RX} circuits of 10-120 gates, and staircase/brickwall
layers with RZ and RX on every qubit:

    n   ansatz          random          layered
    5    1.03 ->  1.65   0.47 ->  0.78   0.62 ->   1.16
    6    1.14 ->  1.63   0.80 ->  1.28   1.67 ->   4.42
    7    3.41 ->  3.04   1.74 ->  1.75   4.25 ->   6.26
    8   16.7  ->  9.91   9.32 ->  5.38  19.6  ->  15.2
    9   40.8  ->  8.90  20.2  ->  5.50  62.5  ->  38.4
   10    139  ->  17.9   102  ->  28.7   279  ->   139

Groups win every column from n = 8 on, hence ``GROUP_MIN_QUBITS``.
Against the cap, at n = 9 and 10 (per-gate time / grouped time; D = 2,
3, 4, 5, 6, 7):

    n = 9 ansatz    1.94  2.50  4.00  4.92  4.65  4.56
    n = 9 random    1.53  2.19  2.53  2.83  2.64  2.28
    n = 9 layered   1.19  1.59  1.56  1.85  1.66  1.30
    n = 10 ansatz   2.16  2.65  7.85  9.28  8.02  8.41
    n = 10 random   1.83  2.50  3.25  3.64  3.24  2.69
    n = 10 layered  1.26  1.84  2.21  1.90  1.84  1.38

A block costs 2^d multiply-adds per matrix entry, so past D = 5 the
product outgrows the passes it saves; hence D = 5.

Verification is one product. ``unitary_of_circuit(c, out)`` runs c's
gates and then out's gates in reverse order, each inverted (a gate's
inverse is the same gate at minus its angle; CNOT, CZ and H are their
own inverses). It returns W = U_out^dag U_c and holds what one product
holds, two 2^n x 2^n matrices (32 MB at n = 10); building U_c and U_out
apart would hold three. ``equiv_up_to_phase`` accepts when
``phase_aligned_error`` = ||u - e^{i phi} v||_F < ``VERIFY_TOL``, with
e^{i phi} the phase of tr(v^dag u) and v = I for a product. As U_out is
unitary, ||W - e^{i phi} I||_F = ||U_c - e^{i phi} U_out||_F at the same
phase, so a product and a pair of unitaries meet one rule. The
Frobenius norm bounds every entry of the difference. The error is summed
in row blocks of at most ``_BLOCK_ENTRIES`` entries, so it allocates no
temporary as large as a matrix.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math

import numpy as np

MAX_QUBITS = 10
VERIFY_TOL = 1e-9  # on the phase-aligned Frobenius error, so also on every entry
_BLOCK_ENTRIES = 1 << 16  # entries per row block of an error reduction
GROUP_DIRECTIONS = 5  # most row-pairing directions one group fuses
GROUP_MIN_QUBITS = 8  # fewest qubits for which groups beat the per-gate kernel

SQRT2_INV = 1.0 / math.sqrt(2.0)

H_MATRIX = np.array([[SQRT2_INV, SQRT2_INV], [SQRT2_INV, -SQRT2_INV]], dtype=complex)


class TooManyQubitsError(ValueError):
    """Circuit exceeds the dense-simulation qubit limit."""


def _rz_diagonal(theta: float) -> np.ndarray:
    return np.array((cmath.exp(-0.5j * theta), cmath.exp(0.5j * theta)))


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

_CZ_DIAGONAL = np.array((1, 1, 1, -1), dtype=complex)
CZ_MATRIX = np.diag(_CZ_DIAGONAL)


def _cu1_diagonal(theta: float) -> np.ndarray:
    return np.array((1, 1, 1, cmath.exp(1j * theta)))


def cu1_matrix(theta: float) -> np.ndarray:
    return np.diag(_cu1_diagonal(theta))


def _crz_diagonal(theta: float) -> np.ndarray:
    return np.array((1, 1, cmath.exp(-0.5j * theta), cmath.exp(0.5j * theta)))


def crz_matrix(theta: float) -> np.ndarray:
    return np.diag(_crz_diagonal(theta))


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


@functools.lru_cache(maxsize=None)
def _pair_rows(n: int, target: int) -> np.ndarray:
    """Row i's partner under a 2x2 gate on ``target``: i with that bit flipped."""
    rows = np.arange(1 << n) ^ (1 << (n - 1 - target))
    rows.setflags(write=False)
    return rows


@functools.lru_cache(maxsize=None)
def _xor_table(d: int) -> np.ndarray:
    """Entry (a, b) is a ^ b, for a, b < 2^d."""
    k = np.arange(1 << d)
    table = k[:, None] ^ k[None, :]
    table.setflags(write=False)
    return table


def _xor_span(vectors: list[int]) -> np.ndarray:
    """Entry m is the XOR of ``vectors[j]`` over the set bits j of m."""
    span = np.zeros(1, dtype=np.intp)
    for v in vectors:
        span = np.concatenate((span, span ^ v))
    return span


def _completed_basis(vectors: list[int], n: int) -> list[int]:
    """Independent ``vectors`` followed by unit vectors that make them a basis of GF(2)^n."""
    reduced: list[int] = []
    for v in vectors:
        for r in reduced:  # largest first, so each r clears its own leading bit
            v = min(v, v ^ r)
        reduced.append(v)
        reduced.sort(reverse=True)
    leading = {r.bit_length() - 1 for r in reduced}
    return vectors + [1 << k for k in range(n) if k not in leading]


class _Grouped:
    """A 2^n x 2^n unitary kept as row i = ``ph[i] * sum_k coef[rows[i], k] * u[F(i) ^ s_k]``.

    ``F`` (``frame``) is a GF(2)-linear map of row indices, and ``s_k`` is
    the XOR of the group's ``directions`` over the set bits of k. CNOTs
    compose into ``frame``, ``ph`` and ``rows``, diagonals into ``ph``,
    each in O(2^n). A 2x2 gate on qubit q pairs row i with row i ^ e_q,
    which reads ``u`` at the extra offset ``w = F(e_q)``. A ``w`` outside
    the span of the directions becomes a new direction and doubles the
    width of ``coef``; one inside it shifts the columns of ``coef`` by XOR.
    Either way the gate combines ``coef`` rows in O(2^n * 2^d) and leaves
    ``u`` alone.

    Before a direction past ``GROUP_DIRECTIONS``, and at the end, the group
    is applied: one gather of ``u`` into cosets of the span, one batched
    product by the (2^(n-d), 2^d, 2^d) blocks taken from ``coef``, and the
    layout of the result becomes the new ``frame``. ``u`` stays ``None``
    (the identity) until the first group writes its blocks into a zero
    matrix, so a product holds no more than ``u`` and ``spare``.
    """

    def __init__(self, n: int):
        self.n = n
        self.u: np.ndarray | None = None  # the identity until a group is applied
        self.spare: np.ndarray | None = None
        self.frame = np.arange(1 << n)
        self.ph: np.ndarray | None = None
        self.rows: np.ndarray | None = None
        self.coef: np.ndarray | None = None  # None: one column of ones
        self.directions: list[int] = []
        self.span = {0: 0}  # row offset s_k -> k

    def permute(self, rows: np.ndarray) -> None:
        """Left-multiply by the permutation that moves row ``rows[i]`` to row i."""
        self.frame = self.frame[rows]
        if self.ph is not None:
            self.ph = self.ph[rows]
        if self.coef is not None:
            self.rows = rows if self.rows is None else self.rows[rows]

    def scale(self, diagonal: np.ndarray) -> None:
        """Left-multiply by a diagonal matrix."""
        self.ph = diagonal if self.ph is None else self.ph * diagonal

    def mix(self, gate: np.ndarray, target: int, control: int | None = None) -> None:
        """Left-multiply by a 2x2 gate on ``target``, on the rows where ``control`` is 1."""
        w = int(self.frame[1 << (self.n - 1 - target)])
        shift = self.span.get(w)
        if shift is None and len(self.directions) == GROUP_DIRECTIONS:
            self._apply_group()
            w = int(self.frame[1 << (self.n - 1 - target)])
        if control is None:
            local = _local_index(self.n, (target,))
            diag = np.array([gate[0, 0], gate[1, 1]])
            off = np.array([gate[0, 1], gate[1, 0]])
        else:
            local = _local_index(self.n, (control, target))
            diag = np.array([1, 1, gate[0, 0], gate[1, 1]])
            off = np.array([0, 0, gate[0, 1], gate[1, 0]])
        a, o = diag[local], off[local]
        if self.ph is not None:
            a, o = a * self.ph, o * self.ph[_pair_rows(self.n, target)]
        if self.coef is None:  # one column of ones
            self.coef = np.stack((a, o), axis=1)
        else:
            # Row i becomes a * (row i) + o * (row i ^ e_q, columns shifted by XOR),
            # on a view whose axes are (qubits before q, q, qubits after q, column bits).
            d = len(self.directions)
            pairs = (1 << target, 2, -1)
            here = self.coef if self.rows is None else self.coef[self.rows]
            here = here.reshape(pairs + (2,) * d)
            bits = () if shift is None else tuple(2 + d - j for j in range(d) if shift >> j & 1)
            there = np.flip(here, (1,) + bits)
            a, o = a.reshape(pairs + (1,) * d), o.reshape(pairs + (1,) * d)
            if shift is None:  # the new direction is the highest column bit
                coef = np.empty(here.shape[:3] + (2,) + here.shape[3:], dtype=complex)
                np.multiply(a, here, out=coef[:, :, :, 0])
                np.multiply(o, there, out=coef[:, :, :, 1])
            else:
                coef = a * here
                coef += o * there
            self.coef = coef.reshape(1 << self.n, -1)
        if shift is None:
            self.span.update({s ^ w: k + len(self.span) for s, k in self.span.items()})
            self.directions.append(w)
        self.rows = self.ph = None

    def _apply_group(self) -> None:
        size = 1 << self.n
        d = len(self.directions)
        width = 1 << d
        inverse = np.empty_like(self.frame)
        inverse[self.frame] = np.arange(size)
        # lam maps the layout m = (c, a), a < 2^d, to rows, with F(lam[c, a]) =
        # F(lam[c, 0]) ^ s_a. So row lam[c, a] of the product is
        #   sum_b coef[lam[c, a], a ^ b] * u[F(lam[c, b])]:
        # block c gathers coset c of the span and multiplies it by blocks[c].
        lam = _xor_span(_completed_basis([int(inverse[w]) for w in self.directions], self.n))
        src = lam if self.rows is None else self.rows[lam]
        blocks = self.coef[src.reshape(-1, width, 1), _xor_table(d)]
        if self.ph is not None:
            blocks *= self.ph[lam].reshape(-1, width, 1)
        gather = self.frame[lam]
        if self.u is None:
            self.u = np.zeros((size, size), dtype=complex)
            self.u[np.arange(size).reshape(-1, width, 1), gather.reshape(-1, 1, width)] = blocks
        else:
            if self.spare is None:
                self.spare = np.empty_like(self.u)
            np.take(self.u, gather, axis=0, out=self.spare, mode="clip")
            shape = (-1, width, size)
            np.matmul(blocks, self.spare.reshape(shape), out=self.u.reshape(shape))
        self.frame = np.empty_like(lam)
        self.frame[lam] = np.arange(size)
        self.ph = self.rows = self.coef = None
        self.directions = []
        self.span = {0: 0}

    def flush(self) -> np.ndarray:
        """The product so far, rows in natural order."""
        if self.directions:
            self._apply_group()
        size = 1 << self.n
        if self.u is None:
            self.u = np.zeros((size, size), dtype=complex)
            self.u[np.arange(size), self.frame] = 1 if self.ph is None else self.ph
        else:
            # Indices are always in range; mode="raise" would buffer ``out``.
            gathered = np.take(self.u, self.frame, axis=0, out=self.spare, mode="clip")
            self.u, self.spare = gathered, self.u
            if self.ph is not None:
                self.u *= self.ph[:, None]
        self.frame = np.arange(size)
        self.ph = None
        return self.u


def _accumulator(n: int):
    return _Grouped(n) if n >= GROUP_MIN_QUBITS else _Pending(n)


_DIAGONAL = {
    "rz": _rz_diagonal,
    "cz": lambda _: _CZ_DIAGONAL,
    "cu1": _cu1_diagonal,
    "crz": _crz_diagonal,
}
_MIXING = {"rx": rx_matrix, "ry": ry_matrix, "h": lambda _: H_MATRIX}


def unitary_of_circuit(circuit, undo=None) -> np.ndarray:
    """Product of gate embeddings in application order (earlier gates act first).

    With ``undo``, the product goes on through ``undo``'s gates in reverse
    order, each inverted, and so is U_undo^dag @ U_circuit.
    """
    n = circuit.n_qubits
    _check_size(n)
    steps = ((g.kind, g.qubits, g.angle) for g in circuit.gates)
    if undo is not None:
        if undo.n_qubits != n:
            raise ValueError("circuits act on different qubit counts")
        inverses = (
            (g.kind, g.qubits, None if g.angle is None else -g.angle) for g in reversed(undo.gates)
        )
        steps = itertools.chain(steps, inverses)
    acc = _accumulator(n)
    for kind, qubits, angle in steps:
        if kind == "cnot":
            acc.permute(_cnot_rows(n, *qubits))
        elif kind in _DIAGONAL:
            acc.scale(_DIAGONAL[kind](angle)[_local_index(n, qubits)])
        elif kind in _MIXING:
            acc.mix(_MIXING[kind](angle), qubits[0])
        elif kind == "crx":
            acc.mix(crx_matrix(angle)[2:, 2:], qubits[1], control=qubits[0])
        else:
            raise ValueError(f"unknown gate kind {kind!r}")
    return acc.flush()


def gadget_diagonal(n: int, theta: float, legs) -> np.ndarray:
    """Diagonal of a Z phase gadget under the sign convention above."""
    leg_qubits = [q for q in range(n) if legs[q]]
    parity = np.bitwise_xor.reduce(_bits(n)[leg_qubits], axis=0, initial=0)
    return np.where(parity == 1, cmath.exp(0.5j * theta), cmath.exp(-0.5j * theta))


def unitary_of_gadgets(gadgets, tail=None) -> np.ndarray:
    """Unitary of a gadget circuit; X entries via Hadamard conjugation on legs.

    ``tail``, a ``CnotCircuit`` on the same qubits, acts after the gadgets.
    """
    n = gadgets.n_qubits
    _check_size(n)
    acc = _accumulator(n)
    for entry in gadgets.entries:
        leg_qubits = [q for q in range(n) if entry.legs[q]]
        hadamards = leg_qubits if entry.basis == "X" else []
        for q in hadamards:
            acc.mix(H_MATRIX, q)
        acc.scale(gadget_diagonal(n, entry.angle, entry.legs))
        for q in hadamards:
            acc.mix(H_MATRIX, q)
    for control, target in () if tail is None else tail.cnots:
        acc.permute(_cnot_rows(n, control, target))
    return acc.flush()


def _row_blocks(shape: tuple[int, ...]):
    """Row slices of at most ``_BLOCK_ENTRIES`` entries (at least one row) each."""
    rows = max(1, _BLOCK_ENTRIES // math.prod(shape[1:]))
    return [slice(r, r + rows) for r in range(0, shape[0], rows)]


def phase_aligned_error(u: np.ndarray, v: np.ndarray | None = None) -> float:
    """||u - e^{i phi} v||_F with e^{i phi} the phase of tr(v^dag u); v defaults to I.

    The trace phase minimises this distance, so for an equivalent pair it
    is the true phase up to rounding, and it costs O(4^n) where the full
    v^dag u product costs O(8^n). A zero trace gives e^{i phi} = 1, and
    a unitary pair then scores sqrt(2 * 2^n): no phase makes it equal.
    The sum runs row block by row block. Against I a block is copied and
    only its diagonal shifted, as subtracting I from the whole matrix's
    squared norm would cancel away the error in rounding.
    """
    if v is None:
        if u.shape != (len(u), len(u)):
            raise ValueError("need a square matrix")
        trace = np.trace(u)
    elif u.shape != v.shape:
        raise ValueError("dimension mismatch")
    else:
        trace = np.vdot(v, u)
    phase = 1 if trace == 0 else trace / abs(trace)
    total = 0.0
    for rows in _row_blocks(u.shape):
        if v is None:
            block = u[rows].copy()
            k = np.arange(len(block))
            block[k, k + rows.start] -= phase
        else:
            block = u[rows] - phase * v[rows]
        total += np.vdot(block, block).real
    return math.sqrt(total)


def equiv_up_to_phase(u: np.ndarray, v: np.ndarray | None = None) -> bool:
    """True iff u equals v (by default I) up to a global phase, within ``VERIFY_TOL``."""
    return phase_aligned_error(u, v) < VERIFY_TOL
