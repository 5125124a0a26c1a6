"""Dense complex-unitary simulator used as ground truth for equivalence checks.

Conventions, fixed once and asserted by tests:

* Qubit 0 is the most significant bit of the basis-state index, so on two
  qubits ``CNOT(0, 1)`` is the permutation swapping ``|10>`` and ``|11>``.
* A Z phase gadget with angle ``theta`` multiplies a basis state by
  ``exp(-i*theta/2)`` when the parity over its legs is even and by
  ``exp(+i*theta/2)`` when it is odd. X gadgets are the Hadamard
  conjugates of Z gadgets on their legs.

Products are dense 2^n x 2^n matrices; callers must keep n <= MAX_QUBITS.
Every circuit kind becomes one vocabulary of steps (``_steps``), a CRX
being H, CRZ, H on its target. CNOTs are row permutations and RZ, CZ,
CRZ, CU1 and gadget phases are diagonals, so each composes into a
pending part at O(2^n); a run of consecutive CNOTs composes first, into
one permutation. Only the row-mixing steps, each a 2x2 gate on one qubit
(RX, RY, H), need the matrix. Two kernels handle them:

* per gate (``_Pending``, below ``GROUP_MIN_QUBITS`` qubits): the pending
  permutation and phases are flushed into the matrix with one gather and
  one row scaling, then the gate mixes row pairs, up to three O(4^n)
  passes per mixing gate;
* grouped (``_Grouped``, from ``GROUP_MIN_QUBITS`` qubits on): a mixing
  gate pairs rows along a direction of GF(2)^n and only combines the
  rows of a 2^n x 2^d coefficient array, where d counts the group's
  directions so far. A gate along a direction already in the group
  costs one row gather of the array and three passes over it (scale the
  gathered partners, scale the rows, by one scalar for RX and RY, and
  add); a new direction builds the doubled array from two row gathers
  and, when the reduced direction needs it, one column gather. A group
  is applied, coset by coset in place, with one batched product by
  2^d x 2^d blocks, when a gate would add a direction past
  D = ``GROUP_DIRECTIONS``, and at the end.

Time per verification product, ``product_error(c, out)`` before it
merged any step (ms, best of 3, summed over six seeded instances per
row; 2-vCPU Xeon, numpy 2.4 with OpenBLAS), of the per-gate kernel and
of groups of at most D directions: these time the kernels alone.
The instances are random-gadget ansaetze (10 gadgets, 2, 5 or 10
layers, ladder synthesis), random {CNOT, RZ, RX} circuits of 10-120
gates, and staircase or brickwall layers (4-16) with RZ and RX on every
qubit, each against its optimised output (4 x 500 anneal):

    n   shape     per-gate   D=2    D=3    D=4    D=5    D=6    D=7
    6   ansatz        14.6   48.5   28.7   18.3   15.4   14.6   12.5
    6   random         8.1   20.9   13.8   11.9    9.6    7.5    7.3
    6   layered       21.9   86.7   54.9   38.9   41.6   26.6   27.0
    7   ansatz        29.9   88.1   45.4   37.9   22.9   19.1   18.7
    7   random        21.4   50.6   27.5   22.0   20.5   21.0   19.6
    7   layered       60.6    216    115   79.5   81.6   88.2   71.4
    8   ansatz         143    199    119   79.4   51.6   33.5   32.3
    8   random        79.1   98.9   59.6   43.9   40.1   41.9   42.1
    8   layered        265    442    234    197    185    199    251
    9   ansatz         596    490    249    211    112   78.9   68.5
    9   random         371    280    142    118    108    107    135
    9   layered       1113   1219    639    566    516    597    804
    10  ansatz        2081   1221    810    584    278    205    126
    10  random        1187    744    424    334    301    330    407
    10  layered       4501   3849   2462   1984   1875   2330   3060

Groups win every shape from n = 8 on, and lose the layered one at 7,
hence ``GROUP_MIN_QUBITS``. A block costs 2^d multiply-adds per matrix
entry, so tensor-product groups (the layered shape) are best at D = 5
and pay 7-24% more at D = 6. An ansatz product mostly stays inside one
group of at most six directions, which then never builds a matrix (see
below): D = 6 takes 26-35% off D = 5 on the ansatz shape, and random
circuits move by at most 10%. Hence D = 6.

Verification is one product, U_out^dag U_c: ``unitary_of_circuit(c, out)``
and ``product_error(c, out)`` run c's gates and then out's gates in
reverse order, each inverted (a step's inverse is the same step at minus
its angle; CNOT, CZ and H are their own inverses), whatever kind of
circuit either side is; both ``optimize`` and ``phasefold verify`` check
this way. Two equal step lists score 0 in ``product_error`` with nothing
built, as U^dag U = I: a circuit against itself (``phasefold verify a a``,
or an input that lowering and the peephole leave as it is, returned as
optimize's output).

Otherwise, when both sides are {CNOT, RZ, RX} circuits, rotations merge
(``_merged_steps``). Pushing every CNOT of a side to its end writes it
as P_A R: A is its net CNOT action, and R its rotations as Pauli
rotations in the input frame, RZ on q becoming Z on row q of the action
so far and RX on q X on column q of that action's inverse, each angle
outside (-pi, pi] reduced exactly to atan2(sin a, cos a), which changes
the rotation only by a sign. When the two actions are equal, P cancels
and W = S^dag R: c's rotations, then out's in reverse at minus their
angles. A rotation commutes with every rotation of its own kind, and
with one of the other kind when the two strings overlap evenly, so each
moves back onto an equal one past those it commutes with, and the
angles of two rotations about one Pauli string add: the merge is exact
algebra, and an exact zero drops. Strings are indexed, so a rotation
with no equal one costs O(1), and a merge looks back past at most
``_MERGE_WALK`` rotations of the other kind (the longest walk that
merges passes 79 on the benchmark's quality sets of seeds 401, 557 and
733). What is left runs through the
kernels: a Z string as a parity diagonal, an X string as RX on one of
its qubits between two fans of CNOTs, so no more RX steps than the two
sides had; an empty remainder scores 0 and builds nothing. Any other
step kind, or unequal actions, takes the step path above. An optimized
ansatz re-orders and re-fuses the input's own gadgets, so its product
nearly always merges away, and so does an input returned with the
peephole's order of rotations on disjoint qubits. ``unitary_of_circuit``
applies every step.

``equiv_up_to_phase`` accepts when ``phase_aligned_error`` =
||u - e^{i phi} v||_F < ``VERIFY_TOL``, with e^{i phi} the phase of
tr(v^dag u) and v = I for a product. As U_out is unitary,
||W - e^{i phi} I||_F = ||U_c - e^{i phi} U_out||_F at the same phase,
so a product and a pair of unitaries meet
one rule, and the Frobenius norm bounds every entry of the difference.
``product_error`` computes that error without building W. While the
grouped kernel has applied no group, row i of W holds 2^d known entries
and nothing else: the trace, the phase and the difference are formed
from those entries alone, and each row with no diagonal entry adds
|e^{i phi}|^2 = 1. Otherwise the last group is applied in place and the
rows are read, block by block, straight into the error. So the check
holds at most one 2^n x 2^n matrix (16 MB at n = 10), and none when the
product stays in one group; ``unitary_of_circuit`` returns W in natural
row order and holds two. Every error is summed in row blocks of at most
``_BLOCK_ENTRIES`` entries, with every entry of the difference formed
before it is squared.
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
GROUP_DIRECTIONS = 6  # most row-pairing directions one group fuses
GROUP_MIN_QUBITS = 8  # fewest qubits for which groups beat the per-gate kernel
_MERGE_WALK = 256  # most rotations of the other kind one merge looks back past

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
def _parities(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(every basis index, the parity of its bits); read-only."""
    index = np.arange(1 << n)
    parity = np.bitwise_xor.reduce(_bits(n), axis=0)
    index.setflags(write=False)
    parity.setflags(write=False)
    return index, parity


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

    def mix(self, gate: np.ndarray, target: int) -> None:
        """Left-multiply by a 2x2 gate on ``target``."""
        pairs = self.flush().reshape(1 << target, 2, -1)
        np.matmul(gate, pairs, out=self.spare.reshape(pairs.shape))
        self.u, self.spare = self.spare, self.u

    def error(self) -> float:
        return phase_aligned_error(self.flush())


@functools.lru_cache(maxsize=None)
def _pair_rows(n: int, target: int) -> np.ndarray:
    """Row i's partner under a 2x2 gate on ``target``: i with that bit flipped."""
    rows = np.arange(1 << n) ^ (1 << (n - 1 - target))
    rows.setflags(write=False)
    return rows


def _xor_span(vectors: list[int]) -> np.ndarray:
    """Entry m is the XOR of ``vectors[j]`` over the set bits j of m."""
    span = np.zeros(1 << len(vectors), dtype=np.intp)
    for j, v in enumerate(vectors):
        np.bitwise_xor(span[: 1 << j], v, out=span[1 << j : 2 << j])
    return span


def _cnot_run_rows(n: int, pairs: list[tuple[int, int]]) -> np.ndarray:
    """Rows of a run of CNOTs in application order, as one permutation."""
    rows = _cnot_rows(n, *pairs[0])
    for control, target in pairs[1:]:
        rows = rows[_cnot_rows(n, control, target)]
    return rows


def _reduce(x, pivots):
    """(r, k) with x = r ^ s_k and r zero at every pivot bit; x an int or an int array.

    ``pivots`` holds (bit, vector, k) with vector = s_k, in decreasing bit
    order; each vector's highest set bit is its own pivot bit, so the
    reduction clears the pivot bits from the top down. r is zero exactly
    when x is in the span.
    """
    k = x & 0
    for bit, vector, index in pivots:
        hit = (x >> bit) & 1
        x = x ^ hit * vector
        k = k ^ hit * index
    return x, k


class _Grouped:
    """A 2^n x 2^n unitary kept as row i = ``ph[i] * sum_k coef[rows[i], k] * u[R(F(i)) ^ s_k]``.

    ``F`` (``frame``) is a GF(2)-linear map of row indices, and ``s_k`` is
    the XOR of the group's ``directions`` over the set bits of k. ``R``
    reduces an index by the directions (``_reduce``), so R(x) names x's
    coset of their span and column k of a row always means the same row
    of ``u`` in it. CNOTs compose into ``frame``, ``ph`` and ``rows``,
    diagonals into ``ph``, each in O(2^n). A 2x2 gate on qubit q pairs
    row i with row i ^ e_q, which reads ``u`` at the extra offset
    ``w = F(e_q)``. A ``w`` inside the span leaves both rows in one coset,
    so the gate adds each row's partner, scaled, column for column. One
    outside it becomes a new direction: ``coef`` doubles in width, each
    row taking its own and its partner's entries as the two halves, in
    the order the merged coset's reduction puts them. Either way the
    gate combines ``coef`` rows in O(2^n * 2^d) and leaves ``u`` alone;
    ``coef`` stays in storage order (``rows``), so it is gathered once,
    for the partners, and only the gate's 2^n-entry factors are permuted.

    Before a direction past ``GROUP_DIRECTIONS``, and at the end, the group
    is applied: coset by coset, the rows of ``u`` a coset reads are
    multiplied by its 2^d x 2^d block of ``coef`` rows and written back in
    place, so ``frame`` is unchanged. ``u`` stays ``None`` (the identity)
    until the first group writes its blocks into a zero matrix, so the
    accumulator holds at most one 2^n x 2^n matrix.
    """

    def __init__(self, n: int):
        self.n = n
        self.u: np.ndarray | None = None  # the identity until a group is applied
        self.frame = np.arange(1 << n)
        self.ph: np.ndarray | None = None
        self._open()

    def _open(self) -> None:
        """Start an empty group: one column of ones, coef rows in logical order."""
        self.rows: np.ndarray | None = None
        self.coef = np.ones((1 << self.n, 1), dtype=complex)
        self.coset = self.frame.copy()  # R(F(i)) of the row stored at each coef row
        self.directions: list[int] = []
        self.pivots: list[tuple[int, int, int]] = []  # (bit, s_k, k), see ``_reduce``

    def permute(self, rows: np.ndarray) -> None:
        """Left-multiply by the permutation that moves row ``rows[i]`` to row i."""
        self.frame = self.frame[rows]
        if self.ph is not None:
            self.ph = self.ph[rows]
        self.rows = rows if self.rows is None else self.rows[rows]

    def scale(self, diagonal: np.ndarray) -> None:
        """Left-multiply by a diagonal matrix."""
        self.ph = diagonal if self.ph is None else self.ph * diagonal

    def mix(self, gate: np.ndarray, target: int) -> None:
        """Left-multiply by a 2x2 gate on ``target``."""
        w = int(self.frame[1 << (self.n - 1 - target)])
        reduced, j = _reduce(w, self.pivots)
        if reduced and len(self.directions) == GROUP_DIRECTIONS:
            self._apply_group()  # leaves ``frame``, so ``w`` opens the next group
            reduced, j = w, 0
        # Row i becomes a[i] * (row i) + o[i] * (row i ^ e_q); ph stays the row factor.
        local = _local_index(self.n, (target,))
        partner = _pair_rows(self.n, target)
        a = gate[0, 0] if gate[0, 0] == gate[1, 1] else gate.diagonal()[local]
        o = gate[(0, 1), (1, 0)][local]
        if self.ph is not None:
            o = o * (self.ph[partner] / self.ph)
        if self.rows is not None:  # to storage order: coef row rows[i] holds row i
            logical = np.empty_like(self.rows)
            logical[self.rows] = np.arange(len(logical))
            o, partner = o[logical], self.rows[partner[logical]]
            if np.ndim(a):
                a = a[logical]
        if not reduced:
            there = self.coef.take(partner, axis=0)
            there *= o[:, None]
            self.coef *= a if np.ndim(a) == 0 else a[:, None]
            self.coef += there
            return
        # The partner's coset is this row's XOR ``reduced`` = w ^ s_j, and the two
        # merge. Below the new direction go the entries of whichever of the two
        # has the new pivot bit clear, above those of the other, their columns
        # shifted by j; both rows then name the coset by the lower one.
        bit = reduced.bit_length() - 1
        high = (self.coset & 1 << bit) != 0
        own = np.arange(len(partner))
        width = self.coef.shape[1]
        coef = np.empty((len(partner), 2 * width), dtype=complex)
        lower = self.coef.take(np.where(high, partner, own), axis=0)
        np.multiply(lower, np.where(high, o, a)[:, None], out=coef[:, :width])
        upper = self.coef.take(np.where(high, own, partner), axis=0)
        if j:
            upper = upper.take(np.arange(width) ^ j, axis=1)
        np.multiply(upper, np.where(high, a, o)[:, None], out=coef[:, width:])
        self.coef = coef
        self.coset[high] ^= reduced
        self.pivots.append((bit, reduced, j | 1 << len(self.directions)))
        self.pivots.sort(reverse=True)
        self.directions.append(w)

    def _apply_group(self) -> None:
        size = 1 << self.n
        width = self.coef.shape[1]
        inverse = np.empty_like(self.frame)
        inverse[self.frame] = np.arange(size)
        # lam maps the layout m = (c, a), a < 2^d, to rows: F(lam[c, a]) is s_a
        # XOR a sum of unit vectors off the pivot bits, so R(F(lam[c, a])) is
        # F(lam[c, 0]) and row lam[c, a] of the product is
        #   sum_b coef[rows[lam[c, a]], b] * u[F(lam[c, b])]:
        # coset c reads rows gather[c] of u and writes its new rows over them.
        pivot_bits = {bit for bit, _, _ in self.pivots}
        units = [1 << b for b in range(self.n) if b not in pivot_bits]
        lam = _xor_span([int(inverse[v]) for v in self.directions + units])
        blocks = self.coef.take(lam if self.rows is None else self.rows[lam], axis=0)
        if self.ph is not None:
            blocks *= self.ph[lam, None]
        blocks = blocks.reshape(-1, width, width)
        gather = self.frame[lam].reshape(-1, width)
        if self.u is None:
            self.u = np.zeros((size, size), dtype=complex)
            self.u[gather[:, :, None], gather[:, None, :]] = blocks
        else:
            step = max(1, (1 << GROUP_DIRECTIONS) // width)  # cosets per coefficient-sized batch
            for c in range(0, len(gather), step):
                read = gather[c : c + step].ravel()
                old = self.u.take(read, axis=0).reshape(-1, width, size)
                self.u[read] = np.matmul(blocks[c : c + step], old).reshape(-1, size)
        self.ph = None
        self._open()

    def flush(self) -> np.ndarray:
        """The product, rows in natural order, in a new matrix (``u`` is a second one)."""
        # Every applied group opens the next, so one is open here; applying it
        # takes up ``ph``.
        self._apply_group()
        return self.u.take(self.frame, axis=0)

    def error(self) -> float:
        """``phase_aligned_error`` of the product; the accumulator is spent after.

        While no group has been applied, row i holds ``ph[i] * coef[rows[i], k]``
        at column R(F(i)) ^ s_k and nothing else, so the error is read from
        those 2^n x 2^d entries: row i's diagonal entry is its column k with
        i = R(i) ^ s_k, if R(i) = R(F(i)). Otherwise the open group is applied
        and row i of the product, row F(i) of ``u``, is read block by block:
        no second matrix.
        """
        size = 1 << self.n
        if self.u is None:
            entries = self.coef if self.rows is None else self.coef.take(self.rows, axis=0)
            if self.ph is not None:
                entries *= self.ph[:, None]
            coset, column = _reduce(np.arange(size), self.pivots)
            frame_coset = self.coset if self.rows is None else self.coset[self.rows]
            rows = np.flatnonzero(coset == frame_coset)
            cols = column[rows]
            parts = [(entries, rows, cols)]
            return _aligned_error(entries[rows, cols].sum(), parts, size - len(rows))
        self._apply_group()  # as in ``flush``, a group is open and takes up ``ph``
        parts = (
            (self.u.take(self.frame[r], axis=0), *_block_diagonal(r))
            for r in _row_blocks((size, size))
        )
        return _aligned_error(self.u[self.frame, np.arange(size)].sum(), parts)


def _accumulator(n: int):
    return _Grouped(n) if n >= GROUP_MIN_QUBITS else _Pending(n)


_DIAGONAL = {
    "rz": _rz_diagonal,
    "cz": lambda _: _CZ_DIAGONAL,
    "cu1": _cu1_diagonal,
    "crz": _crz_diagonal,
}
_MIXING = {"rx": rx_matrix, "ry": ry_matrix, "h": lambda _: H_MATRIX}


def _steps(circuit) -> tuple[int, list]:
    """(qubit count, (kind, qubits, angle) steps) of a gate circuit, gadget circuit or normal form.

    A CRX is H, CRZ, H on its target, the same matrix. A gadget is a
    "parity" step on its legs (a ``BitVec``), between H on each leg for an
    X gadget; a normal form's tail CNOTs follow. No ``synth_gadget``, so
    the oracle stays independent of the synthesis it checks.
    """
    if hasattr(circuit, "gates"):
        steps = []
        for g in circuit.gates:
            if g.kind == "crx":
                h = ("h", g.qubits[1:], None)
                steps += [h, ("crz", g.qubits, g.angle), h]
            else:
                steps.append((g.kind, g.qubits, g.angle))
        return circuit.n_qubits, steps
    if hasattr(circuit, "tail"):
        n, steps = _steps(circuit.gadgets)
        return n, steps + [("cnot", pair, None) for pair in circuit.tail.cnots]
    n = circuit.n_qubits
    steps = []
    for e in circuit.entries:
        hadamards = [("h", (q,), None) for q in range(n) if e.legs[q]] if e.basis == "X" else []
        steps += hadamards + [("parity", e.legs, e.angle)] + hadamards
    return n, steps


def _operands(circuit, undo) -> tuple[int, list, list]:
    """(qubit count, ``circuit``'s steps, ``undo``'s steps); no ``undo`` has none."""
    n, steps = _steps(circuit)
    _check_size(n)
    if undo is None:
        return n, steps, []
    undo_n, undo_steps = _steps(undo)
    if undo_n != n:
        raise ValueError("circuits act on different qubit counts")
    return n, steps, undo_steps


def _step_qubits(qubits) -> tuple[int, ...]:
    """The qubits a step acts on; a parity step's are the set bits of its legs."""
    if isinstance(qubits, tuple):
        return qubits
    return tuple(q for q in range(qubits.n) if qubits.bits >> q & 1)


def _accumulate(n: int, steps: list, undo_steps: list):
    """The accumulator after ``steps``, then ``undo_steps`` in reverse order, each inverted."""
    inverses = ((k, q, None if a is None else -a) for k, q, a in reversed(undo_steps))
    acc = _accumulator(n)
    for kind, run in itertools.groupby(
        itertools.chain(steps, inverses), key=lambda step: step[0]
    ):
        if kind == "cnot":  # consecutive CNOTs, even across the two circuits: one permutation
            acc.permute(_cnot_run_rows(n, [qubits for _, qubits, _ in run]))
            continue
        for _, qubits, angle in run:
            if kind in _DIAGONAL:
                acc.scale(_DIAGONAL[kind](angle)[_local_index(n, qubits)])
            elif kind in _MIXING:
                acc.mix(_MIXING[kind](angle), qubits[0])
            elif kind == "parity":
                acc.scale(_parity_diagonal(n, angle, _step_qubits(qubits)))
            else:
                raise ValueError(f"unknown gate kind {kind!r}")
    return acc


def unitary_of_circuit(circuit, undo=None) -> np.ndarray:
    """Product of gate embeddings in application order (earlier gates act first).

    Either side may be a ``GateCircuit``, a ``GadgetCircuit`` or a
    ``NormalForm`` (see ``_steps``). With ``undo``, the product goes on
    through ``undo``'s steps in reverse order, each inverted, and so is
    U_undo^dag @ U_circuit. Every step is applied; nothing cancels.
    """
    return _accumulate(*_operands(circuit, undo)).flush()


def _reduced(a: float) -> float:
    """``a`` reduced exactly into (-pi, pi]: a turn changes a rotation only by a sign."""
    return a if -math.pi < a <= math.pi else math.atan2(math.sin(a), math.cos(a))


def _frame_rotations(n: int, steps: list) -> tuple[list[int], list] | None:
    """(rows of the net CNOT action, the rotations in the input frame) of {cnot, rz, rx} steps.

    Pushing every CNOT to the end turns RZ on q into Z on row q of the
    CNOT action A so far, and RX on q into X on column q of A^-1; each
    rotation is (is X, string as a qubit mask, angle reduced), in
    application order. A CNOT (c, t) adds row c of A to row t and column
    t of A^-1 to column c. None for any other step kind.
    """
    rows = [1 << q for q in range(n)]
    cols = rows[:]  # columns of A^-1
    rotations = []
    for kind, qubits, angle in steps:
        if kind == "cnot":
            c, t = qubits
            rows[t] ^= rows[c]
            cols[c] ^= cols[t]
        elif kind == "rz":
            rotations.append((False, rows[qubits[0]], _reduced(angle)))
        elif kind == "rx":
            rotations.append((True, cols[qubits[0]], _reduced(angle)))
        else:
            return None
    return rows, rotations


def _merged(rotations) -> list:
    """``rotations`` with each moved back past those it commutes with onto an equal one.

    Z strings commute with Z strings, X with X, and a Z and an X string
    when their overlap is even. A rotation merges into the latest kept
    live one of the same kind and string, if every kept rotation of the
    other kind after that one commutes with it (``_commutes_after``): the
    angles add, and an exact zero is dropped, which makes the live one
    before it the latest. Otherwise it is kept where it stands. Live
    strings are indexed, so a rotation with no equal one costs O(1).
    """
    kept: list[list] = []  # [is X, string, angle]; angle None once merged away
    live: dict[tuple[bool, int], list[int]] = {}  # (is X, string) -> live positions, latest last
    of_kind: tuple[list[int], list[int]] = ([], [])  # positions of Z, of X rotations
    for x, string, angle in rotations:
        if not angle:
            continue
        equal = live.setdefault((x, string), [])
        if equal and _commutes_after(kept, of_kind[not x], equal[-1], string):
            merged = kept[equal[-1]]
            merged[2] = merged[2] + angle or None
            if merged[2] is None:
                equal.pop()
            continue
        equal.append(len(kept))
        of_kind[x].append(len(kept))
        kept.append([x, string, angle])
    return [rotation for rotation in kept if rotation[2] is not None]


def _commutes_after(kept: list, positions: list[int], p: int, string: int) -> bool:
    """True when ``string`` overlaps evenly each live kept string at ``positions`` after ``p``.

    ``positions`` hold rotations of the other kind, in order. At most
    ``_MERGE_WALK`` of them are checked, and finding more is False, so a
    merge walk never costs more than that.
    """
    for walked, k in enumerate(reversed(positions)):
        if k < p:
            return True
        if walked == _MERGE_WALK:
            return False
        if kept[k][2] is not None and (kept[k][1] & string).bit_count() & 1:
            return False
    return True


def _merged_steps(n: int, steps: list, undo_steps: list) -> list | None:
    """The steps left once ``_merged`` has run on both sides' rotations; None off its domain.

    Needs {cnot, rz, rx} steps on both sides and equal net CNOT actions.
    Then U_circuit = P R and U_undo = P S for one permutation P, so
    U_undo^dag U_circuit = S^dag R: ``circuit``'s rotations in the input
    frame, then ``undo``'s in reverse, each at minus its angle. A string
    left over on one qubit is RZ or RX there; a longer Z string is a
    "parity" step, and a longer X string is RX on its lowest qubit
    between two fans of CNOTs from there to its other qubits. So no more
    RX steps are left than the two sides had.
    """
    ours, theirs = _frame_rotations(n, steps), _frame_rotations(n, undo_steps)
    if ours is None or theirs is None or ours[0] != theirs[0]:
        return None
    inverses = ((x, string, -angle) for x, string, angle in reversed(theirs[1]))
    left = []
    for x, string, angle in _merged(itertools.chain(ours[1], inverses)):
        if not string & (string - 1):
            left.append(("rx" if x else "rz", (string.bit_length() - 1,), angle))
            continue
        qubits = tuple(q for q in range(n) if string >> q & 1)
        if not x:
            left.append(("parity", qubits, angle))
            continue
        fan = [("cnot", (qubits[0], q), None) for q in qubits[1:]]
        left += fan + [("rx", qubits[:1], angle)] + fan
    return left


def product_error(circuit, undo) -> float:
    """``phase_aligned_error(unitary_of_circuit(circuit, undo))``, at most one matrix built.

    That is ||U_undo^dag U_circuit - e^{i phi} I||_F with e^{i phi} the
    phase of the product's trace; see ``_Grouped.error`` for how it is read.
    Either side may be any circuit kind ``unitary_of_circuit`` takes. Equal
    step lists score 0, as U^dag U = I. Otherwise rotations merge
    (``_merged_steps``) where both sides are {CNOT, RZ, RX} circuits of one
    net CNOT action, and what is left, or every step off that domain, is
    evaluated; an empty remainder scores 0.
    """
    n, steps, undo_steps = _operands(circuit, undo)
    if steps == undo_steps:
        return 0.0
    merged = _merged_steps(n, steps, undo_steps)
    if merged is None:
        return _accumulate(n, steps, undo_steps).error()
    return _accumulate(n, merged, []).error() if merged else 0.0


def gadget_diagonal(n: int, theta: float, legs) -> np.ndarray:
    """Diagonal of a Z phase gadget under the sign convention above."""
    return _parity_diagonal(n, theta, [q for q in range(n) if legs[q]])


def _parity_diagonal(n: int, theta: float, qubits) -> np.ndarray:
    """``gadget_diagonal`` on the legs ``qubits``: RZ's diagonal read at each index's leg parity."""
    index, parity = _parities(n)
    legs = sum(1 << (n - 1 - q) for q in qubits)
    return _rz_diagonal(theta)[parity[index & legs]]


def _row_blocks(shape: tuple[int, ...]):
    """Row slices of at most ``_BLOCK_ENTRIES`` entries (at least one row) each."""
    rows = max(1, _BLOCK_ENTRIES // math.prod(shape[1:]))
    return [slice(r, min(r + rows, shape[0])) for r in range(0, shape[0], rows)]


def _block_diagonal(rows: slice) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) of the identity's entries inside the row block ``rows``."""
    k = np.arange(rows.stop - rows.start)
    return k, k + rows.start


def _aligned_error(trace, parts, missing: int = 0) -> float:
    """sqrt(missing + sum over ``parts`` of ||block - e^{i phi} E||_F^2), phi the phase of ``trace``.

    Each part is (block, rows, cols) and E is one at (rows[j], cols[j]):
    the identity's entries that fall in that block. ``missing`` counts the
    identity's entries outside every part, each adding |e^{i phi}|^2 = 1.
    Blocks are overwritten. Every entry of the difference is formed before
    it is squared, as subtracting the identity from a squared norm would
    cancel away the error in rounding.
    """
    phase = 1 if trace == 0 else trace / abs(trace)
    total = float(missing)
    for block, rows, cols in parts:
        block[rows, cols] -= phase
        total += np.vdot(block, block).real
    return math.sqrt(total)


def phase_aligned_error(u: np.ndarray, v: np.ndarray | None = None) -> float:
    """||u - e^{i phi} v||_F with e^{i phi} the phase of tr(v^dag u); v defaults to I.

    The trace phase minimises this distance, so for an equivalent pair it
    is the true phase up to rounding, and it costs O(4^n) where the full
    v^dag u product costs O(8^n). A zero trace gives e^{i phi} = 1, and
    a unitary pair then scores sqrt(2 * 2^n): no phase makes it equal.
    The sum runs row block by row block; against I a block is copied and
    only its diagonal shifted.
    """
    if v is None:
        if u.shape != (len(u), len(u)):
            raise ValueError("need a square matrix")
        parts = ((u[r].copy(), *_block_diagonal(r)) for r in _row_blocks(u.shape))
        return _aligned_error(np.trace(u), parts)
    if u.shape != v.shape:
        raise ValueError("dimension mismatch")
    trace = np.vdot(v, u)
    phase = 1 if trace == 0 else trace / abs(trace)
    total = 0.0
    for rows in _row_blocks(u.shape):
        block = u[rows] - phase * v[rows]
        total += np.vdot(block, block).real
    return math.sqrt(total)


def equiv_up_to_phase(u: np.ndarray, v: np.ndarray | None = None) -> bool:
    """True iff u equals v (by default I) up to a global phase, within ``VERIFY_TOL``."""
    return phase_aligned_error(u, v) < VERIFY_TOL
