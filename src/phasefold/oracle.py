"""Dense complex-unitary simulator used as ground truth for equivalence checks.

Conventions, fixed once and asserted by tests:

* Qubit 0 is the most significant bit of the basis-state index, so on two
  qubits ``CNOT(0, 1)`` is the permutation swapping ``|10>`` and ``|11>``.
* A Z phase gadget with angle ``theta`` multiplies a basis state by
  ``exp(-i*theta/2)`` when the parity over its legs is even and by
  ``exp(+i*theta/2)`` when it is odd. X gadgets are the Hadamard
  conjugates of Z gadgets on their legs.

Products are dense 2^n x 2^n matrices; callers must keep n <= MAX_QUBITS.
Every circuit kind is read in one vocabulary (``_frame_rotations``):
pushing every CNOT to the end writes a circuit as P_A R, with A its net
CNOT action, P_A the permutation of basis states A gives, and R
rotations about Z or X strings of the input frame. Conjugating by CNOTs
maps Z strings to Z strings and X strings to X strings, with no sign
(Aaronson and Gottesman, arXiv:quant-ph/0406196): RZ on q becomes Z on
row q of the action so far, and RX on q X on column q of its inverse.
Every other gate is such rotations times a global phase (Cowtan et al.,
arXiv:1906.01734), by the identities lowering uses; with
Z_S(a) = exp(-i a/2 Z_S):

* H = e^{i pi/2} RZ(pi/2) RX(pi/2) RZ(pi/2) and RY(t) = RZ(pi/2) RX(t) RZ(-pi/2);
* CU1(t) = e^{i t/4} Z_a(t/2) Z_b(t/2) Z_ab(-t/2), and CZ is CU1(pi);
* CRZ(t) = Z_t(t/2) Z_ct(-t/2), and CRX is CRZ between two H on its target;
* a Z or X gadget is one rotation about the Z or X string of its legs.

No ``synth_gadget`` is used, so the oracle stays independent of the
synthesis it checks.

Verification is one product, U_out^dag U_c: ``unitary_of_circuit(c, out)``
and ``product_error(c, out)`` make one frame pass over c's steps and then
out's in reverse order, each inverted (its rotations reversed, each at
minus its angle, and its phase conjugated; a CNOT is its own inverse),
whatever kind of circuit either side is; both ``optimize`` and
``phasefold verify`` check this way. ``unitary_of_circuit`` applies every
rotation, then P_A, then the phase. Two equal step lists score 0 in
``product_error`` with nothing built, as U^dag U = I: a circuit against
itself (``phasefold verify a a``, or an input that lowering and the
peephole leave as it is, returned as optimize's output).

Otherwise the rotations merge (``_merged``), each angle outside
(-pi, pi] first reduced exactly to atan2(sin a, cos a), which changes the
rotation only by a sign. A rotation commutes with every rotation of its
own kind, and with one of the other kind when the two strings overlap
evenly, so each moves back onto an equal one past those it commutes
with, and the angles of two rotations about one Pauli string add: the
merge is exact algebra. A sum whose exact reduction r lies within
``_DROP_ANGLE`` of 0 drops; that is the float(2pi) a wrapped output angle
leaves against the input's two angles. So does a rotation that comes
that close to I, before any sum can absorb it. Dropping one moves W by
2|sin(r/4)| in the spectral norm and 2^(n/2) times that in the Frobenius
norm, which is added to a slack. The error is a minimum over the phase,
so error(W) <= error(W') + ||W - W'||_F, and the check returns the error
of what is left plus the slack: it may reject more, never accept more.
The largest residue on the benchmark's quality sets of seeds 401 and 557
is 2.0e-15; at ``_DROP_ANGLE`` = 1e-14 one drop costs at most 1.6e-13 at
n = 10, below the 1e-12 to which the tests hold the check to the dense
error. Strings are indexed, so a rotation with no equal one costs O(1),
and a merge looks back past at most ``_MERGE_WALK`` rotations of the
other kind (the longest walk that merges passes 79 on the benchmark's
quality sets of seeds 401, 557 and 733).

When A = I, what is left runs on its k logical qubits (``_merged_steps``)
and scales by 2^((n-k)/2); an empty remainder builds nothing and scores
the slack. Otherwise it runs on the n qubits, followed by P_A. An
optimized ansatz re-orders and re-fuses the input's own gadgets, and a
lowered or extracted circuit writes each gate as the rotations above, so
such products nearly always merge away. One kernel (``_Pending``)
evaluates rotations: Z strings and P_A compose into a pending diagonal
and permutation at O(2^n), and an X string rewrites the matrix in place,
one column slab at a time. Every temporary holds at most
``_BLOCK_ENTRIES`` entries, so the kernel holds one matrix (16 MB at
n = 10).

``equiv_up_to_phase`` accepts when ``phase_aligned_error`` =
||u - e^{i phi} v||_F < ``VERIFY_TOL``, with e^{i phi} the phase of
tr(v^dag u) and v = I for a product. As U_out is unitary,
||W - e^{i phi} I||_F = ||U_c - e^{i phi} U_out||_F at the same phase,
so a product and a pair of unitaries meet
one rule, and the Frobenius norm bounds every entry of the difference.
``product_error`` computes that error with at most one 2^n x 2^n matrix
built, and ``unitary_of_circuit`` returns that matrix. Every error is
summed in row blocks of at most ``_BLOCK_ENTRIES`` entries, with every
entry of the difference formed before it is squared.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

MAX_QUBITS = 10
VERIFY_TOL = 1e-9  # on the phase-aligned Frobenius error, so also on every entry
_BLOCK_ENTRIES = 1 << 16  # entries per row block of an error sum, or column slab of a rotation
_MERGE_WALK = 256  # most rotations of the other kind one merge looks back past
_DROP_ANGLE = 1e-14  # largest exact reduction of a merged sum that drops into the slack

SQRT2_INV = 1.0 / math.sqrt(2.0)
_PI_2 = math.pi / 2.0

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


def _check_size(n_qubits: int) -> None:
    if n_qubits > MAX_QUBITS:
        raise TooManyQubitsError(
            f"{n_qubits} qubits exceeds the dense oracle limit of {MAX_QUBITS}"
        )


# The index tables below are cached read-only per n; n <= MAX_QUBITS bounds
# them to a few arrays of at most 2^MAX_QUBITS entries.
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


class _Pending:
    """A 2^n x 2^n unitary kept as ``ph[:, None] * u[perm]``.

    Permutations and diagonals compose into ``perm`` and ``ph`` in O(2^n)
    (``None`` stands for the identity). A rotation with an X part reads
    them as it rewrites ``u`` (``_apply``), column slab by column slab, in
    place: a left product acts on each column alone, and each slab's new
    values are formed in temporaries of at most ``_BLOCK_ENTRIES``
    entries before they overwrite it. So the kernel holds one matrix.
    """

    def __init__(self, n: int):
        self.n = n
        self.u = np.eye(1 << n, dtype=complex)
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

    def _apply(self, update) -> None:
        """``u`` becomes ``update`` of the product so far, column slab by column slab."""
        for cols in _row_blocks(self.u.shape):  # square: the row blocks' slices serve as slabs
            slab = self.u[:, cols] if self.perm is None else self.u[self.perm, cols]
            if self.ph is not None:
                slab = slab * self.ph[:, None]
            new = update(slab).reshape(len(self.u), -1)
            if new.shape == self.u.shape:  # one slab: the new matrix replaces the old
                self.u = new
            else:
                self.u[:, cols] = new
        self.perm = self.ph = None

    def rotate(self, x: int, z: int, angle: float) -> None:
        """Left-multiply by exp(-i angle/2 X^x Z^z), x and z disjoint masks of row-index bits.

        That is cos(angle/2) - i sin(angle/2) X^x Z^z, and X^x Z^z reads
        row i ^ x times (-1)^|(i ^ x) & z| = (-1)^|i & z|; with no x it is
        a diagonal.
        """
        index, parity = _parities(self.n)
        signs = parity[index & z]
        if not x:
            self.scale(_rz_diagonal(angle)[signs])
            return
        c, s = math.cos(angle / 2), -1j * math.sin(angle / 2)
        o = np.array((s, -s))[signs][:, None] if z else s  # one scalar on an X string
        partner = index ^ x
        self._apply(lambda slab: c * slab + o * slab[partner])

    def flush(self) -> np.ndarray:
        """The product, with the pending part written into ``u``."""
        if self.perm is not None or self.ph is not None:
            self._apply(lambda slab: slab)
        return self.u

    def error(self) -> float:
        return phase_aligned_error(self.flush())


def _steps(circuit) -> tuple[int, list]:
    """(qubit count, (kind, qubits, angle) steps) of a gate circuit, gadget circuit or normal form.

    A gate is one step. A gadget is a "Z" or "X" step whose qubits are
    its legs as a mask, qubit q being bit q; a normal form's tail CNOTs
    follow its gadgets.
    """
    if hasattr(circuit, "gates"):
        return circuit.n_qubits, [(g.kind, g.qubits, g.angle) for g in circuit.gates]
    if hasattr(circuit, "tail"):
        n, steps = _steps(circuit.gadgets)
        return n, steps + [("cnot", pair, None) for pair in circuit.tail.cnots]
    return circuit.n_qubits, [(e.basis, e.legs.bits, e.angle) for e in circuit.entries]


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


def _hadamard(mask: int) -> list:
    """H on one qubit, up to its phase of e^{i pi/2}: RZ(pi/2) RX(pi/2) RZ(pi/2)."""
    return [(False, mask, _PI_2), (True, mask, _PI_2), (False, mask, _PI_2)]


def _step_rotations(kind: str, qubits, angle) -> tuple[list, complex]:
    """(rotations, phase factor): a step other than a CNOT as that factor times rotations.

    Each rotation is (is X, qubit mask, angle), qubit q being bit q, in
    application order.
    """
    if kind in ("Z", "X"):
        return [(kind == "X", qubits, angle)], 1
    a = 1 << qubits[0]
    if kind == "h":
        return _hadamard(a), 1j
    if kind == "ry":
        return [(False, a, -_PI_2), (True, a, angle), (False, a, _PI_2)], 1
    if kind not in ("cz", "cu1", "crz", "crx"):
        raise ValueError(f"unknown gate kind {kind!r}")
    b = 1 << qubits[1]
    if kind in ("cz", "cu1"):
        t = math.pi if kind == "cz" else angle
        return [(False, a, t / 2), (False, b, t / 2), (False, a | b, -t / 2)], cmath.exp(0.25j * t)
    crz = [(False, a | b, -angle / 2), (False, b, angle / 2)]
    if kind == "crz":
        return crz, 1
    return _hadamard(b) + crz + _hadamard(b), -1


def _reduced(a: float) -> float:
    """``a`` reduced exactly into (-pi, pi]: a turn changes a rotation only by a sign."""
    return a if -math.pi < a <= math.pi else math.atan2(math.sin(a), math.cos(a))


def _frame_rotations(n: int, steps: list, undo_steps: list, reduce=_reduced) -> tuple:
    """(columns of A^-1, rotations, phase factor) of ``steps``, then ``undo_steps`` inverted.

    ``undo_steps`` run in reverse order. A is the net CNOT action: a CNOT
    (c, t) adds row c of A to row t, and column t of A^-1 to column c.
    Other steps are ``_step_rotations``, and a rotation about the Z (X)
    string of qubits S becomes one about the sum of A's rows (A^-1's
    columns) in S, a mask of row-index bits (qubit q is bit n - 1 - q).
    Rotations are (is X, string, angle) in application order, each angle
    passed through ``reduce`` and then, when inverted, negated.
    """
    rows = [1 << n - 1 - q for q in range(n)]
    cols = rows[:]  # columns of A^-1
    rotations = []
    phase = 1
    for sign, run in ((1, steps), (-1, reversed(undo_steps))):
        for kind, qubits, angle in run:
            if kind == "cnot":
                c, t = qubits
                rows[t] ^= rows[c]
                cols[c] ^= cols[t]
            elif kind == "rz":
                rotations.append((False, rows[qubits[0]], sign * reduce(angle)))
            elif kind == "rx":
                rotations.append((True, cols[qubits[0]], sign * reduce(angle)))
            else:
                parts, factor = _step_rotations(kind, qubits, angle)
                if sign < 0:
                    parts, factor = parts[::-1], factor.conjugate()
                phase *= factor
                for x, mask, a in parts:
                    frame, string = cols if x else rows, 0
                    for q in range(mask.bit_length()):
                        if mask >> q & 1:
                            string ^= frame[q]
                    rotations.append((x, string, sign * reduce(a)))
    return cols, rotations, phase


def _permutation(n: int, cols: list[int]) -> np.ndarray | None:
    """Rows of P_A for A^-1 with columns ``cols`` (see ``_Pending.permute``); None for I.

    Row i of P_A u is row A^-1 i of u, the sum of the columns at i's bits.
    """
    if cols == [1 << n - 1 - q for q in range(n)]:
        return None
    bits = _bits(n)
    rows = np.zeros(1 << n, dtype=np.int64)
    for q, col in enumerate(cols):
        rows ^= bits[q] * col
    return rows


def unitary_of_circuit(circuit, undo=None) -> np.ndarray:
    """Product of gate embeddings in application order (earlier gates act first).

    Either side may be a ``GateCircuit``, a ``GadgetCircuit`` or a
    ``NormalForm`` (see ``_steps``). With ``undo``, the product goes on
    through ``undo``'s steps in reverse order, each inverted, and so is
    U_undo^dag @ U_circuit. Every rotation is applied, at its angle as
    given; nothing merges.
    """
    n, steps, undo_steps = _operands(circuit, undo)
    cols, rotations, phase = _frame_rotations(n, steps, undo_steps, float)
    u = _kernel(n, _masks(rotations), _permutation(n, cols)).flush()
    u *= phase
    return u


def _masks(rotations) -> list:
    """(is X, string, angle) rotations as (x, z, angle), as ``_Pending.rotate`` takes them."""
    return [(string, 0, angle) if x else (0, string, angle) for x, string, angle in rotations]


def _kernel(k: int, rotations: list, action: np.ndarray | None) -> _Pending:
    """The kernel on k qubits after (x, z, angle) ``rotations``, then the permutation ``action``."""
    acc = _Pending(k)
    for x, z, angle in rotations:
        acc.rotate(x, z, angle)
    if action is not None:
        acc.permute(action)
    return acc


def _merged(rotations) -> tuple[list, float]:
    """(``rotations`` with each moved back past those it commutes with onto an equal one, slack).

    Z strings commute with Z strings, X with X, and a Z and an X string
    when their overlap is even. A rotation merges into the latest kept
    live one of the same kind and string, if every kept rotation of the
    other kind after that one commutes with it (``_commutes_after``): the
    angles add. A sum whose exact reduction r has |r| <= ``_DROP_ANGLE``
    is dropped, which makes the live one before it the latest, and
    2|sin(r/4)|, the spectral distance of its rotation from a sign, is
    added to the slack; so is a rotation that comes within
    ``_DROP_ANGLE`` of I, so no sum absorbs it whole. Otherwise a
    rotation is kept where it stands.
    Live strings are indexed, so a rotation with no equal one costs O(1).
    """
    kept: list[list] = []  # [is X, string, angle]; angle None once merged away
    live: dict[tuple[bool, int], list[int]] = {}  # (is X, string) -> live positions, latest last
    of_kind: tuple[list[int], list[int]] = ([], [])  # positions of Z, of X rotations
    slack = 0.0
    for x, string, angle in rotations:
        if abs(angle) <= _DROP_ANGLE:  # reduced already, so within a sign of I
            slack += 2 * abs(math.sin(angle / 4))
            continue
        equal = live.setdefault((x, string), [])
        if equal and _commutes_after(kept, of_kind[not x], equal[-1], string):
            merged = kept[equal[-1]]
            merged[2] += angle
            residue = _reduced(merged[2])
            if abs(residue) <= _DROP_ANGLE:
                slack += 2 * abs(math.sin(residue / 4))
                merged[2] = None
                equal.pop()
            continue
        equal.append(len(kept))
        of_kind[x].append(len(kept))
        kept.append([x, string, angle])
    return [rotation for rotation in kept if rotation[2] is not None], slack


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


def _merged_steps(n: int, steps: list, undo_steps: list) -> tuple:
    """(k, what ``_merged`` leaves as rotations on k qubits, slack, rows of P_A or None for I).

    The rotations are those of U_undo^dag U_circuit = P_A R in the input
    frame (``_frame_rotations``), each angle reduced; the slack is
    ``_merged``'s times 2^(n/2), a Frobenius distance. Each rotation
    comes back as (x, z, angle), a rotation about X^x Z^z with x and z
    disjoint masks of row-index bits. With A != I they are the rotations
    left on the n qubits, to be followed by P_A.

    With A = I they run on k logical qubits, logical qubit q being bit q.
    Each string left is a vector x | z << n of GF(2)^2n; two anticommute
    when their symplectic product is 1. Symplectic Gram-Schmidt (Aaronson
    and Gottesman, arXiv:quant-ph/0406196) splits their span into r pairs
    (a_i, b_i), each anticommuting within itself and commuting with every
    other basis vector, and m central vectors c_j. The map a_i -> Z_i,
    b_i -> X_i, c_j -> Z_(r+j) keeps every commutation, so some Clifford U
    gives U W U^dag = W_log (x) I on k = r + m qubits. Every string is a Z
    or an X string, and so is every basis vector: an anticommuting pair
    is one of each, and Gram-Schmidt only adds a Z vector to a Z vector
    and an X vector to an X vector. A string is then the product of
    commuting basis vectors of its own kind, with no phase, and its image
    the product of their images: Z and X on distinct logical qubits, with
    no Y and no sign.
    """
    cols, rotations, _ = _frame_rotations(n, steps, undo_steps)
    left, slack = _merged(rotations)
    slack *= math.sqrt(1 << n)
    action = _permutation(n, cols)
    if action is not None:
        return n, _masks(left), slack, action

    def product(v: int, w: int) -> int:  # symplectic product of two x | z << n vectors
        return ((v & w >> n) ^ (v >> n & w)).bit_count() & 1

    pairs: list[tuple[int, int, int]] = []  # (a, b, logical qubit mask)
    centrals: dict[int, tuple[int, int]] = {}  # top bit -> (c, logical qubit mask), an echelon
    pool = list(dict.fromkeys(string if x else string << n for x, string, _ in left))
    while pool:
        a = pool.pop(0)
        b = next((w for w in pool if product(a, w)), None)
        if b is None:  # commutes with the whole span
            while a and a.bit_length() - 1 in centrals:
                a ^= centrals[a.bit_length() - 1][0]
            if a:
                centrals[a.bit_length() - 1] = (a, 1 << len(pairs) + len(centrals))
            continue
        pool.remove(b)
        pairs.append((a, b, 1 << len(pairs) + len(centrals)))
        pool = [w ^ (a if product(w, b) else 0) ^ (b if product(w, a) else 0) for w in pool]
        pool = [w for w in pool if w]
    logical = []
    for x, string, angle in left:
        v, lx, lz = string if x else string << n, 0, 0
        for a, b, q in pairs:  # v holds a_i when it anticommutes with b_i, and b_i likewise
            if product(v, b):
                v, lz = v ^ a, lz | q
            if product(v, a):
                v, lx = v ^ b, lx | q
        while v:
            c, q = centrals[v.bit_length() - 1]
            v, lz = v ^ c, lz | q
        logical.append((lx, lz, angle))
    return len(pairs) + len(centrals), logical, slack, None


def product_error(circuit, undo) -> float:
    """``phase_aligned_error(unitary_of_circuit(circuit, undo))``, at most one matrix built.

    That is ||U_undo^dag U_circuit - e^{i phi} I||_F with e^{i phi} the
    phase of the product's trace. Either side may be any circuit kind
    ``unitary_of_circuit`` takes. Equal step lists score 0, as
    U^dag U = I. Otherwise the rotations merge, and what is left is
    evaluated on k qubits (``_merged_steps``): the error is 2^((n-k)/2)
    times that product's, plus the slack of the sums dropped, so it is
    never below the dense error and above it by at most twice the slack.
    An empty remainder of one net CNOT action scores the slack alone.
    """
    n, steps, undo_steps = _operands(circuit, undo)
    if steps == undo_steps:
        return 0.0
    k, rotations, slack, action = _merged_steps(n, steps, undo_steps)
    if not k:
        return slack
    return math.sqrt(1 << n - k) * _kernel(k, rotations, action).error() + slack


def gadget_diagonal(n: int, theta: float, legs) -> np.ndarray:
    """Diagonal of a Z phase gadget under the sign convention above: RZ's read at each leg parity."""
    index, parity = _parities(n)
    mask = sum(1 << (n - 1 - q) for q in range(n) if legs[q])
    return _rz_diagonal(theta)[parity[index & mask]]


def _row_blocks(shape: tuple[int, ...]):
    """Row slices of at most ``_BLOCK_ENTRIES`` entries (at least one row) each."""
    rows = max(1, _BLOCK_ENTRIES // math.prod(shape[1:]))
    return [slice(r, min(r + rows, shape[0])) for r in range(0, shape[0], rows)]


def phase_aligned_error(u: np.ndarray, v: np.ndarray | None = None) -> float:
    """||u - e^{i phi} v||_F with e^{i phi} the phase of tr(v^dag u); v defaults to I.

    The trace phase minimises this distance, so for an equivalent pair it
    is the true phase up to rounding, and it costs O(4^n) where the full
    v^dag u product costs O(8^n). A zero trace gives e^{i phi} = 1, and
    a unitary pair then scores sqrt(2 * 2^n): no phase makes it equal.
    The sum runs row block by row block; against I a block is copied and
    only its diagonal shifted. Every entry of the difference is formed
    before it is squared, as subtracting the identity from a squared norm
    would cancel away the error in rounding.
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
