"""Oracle conventions: gate matrices, bit ordering, gadget diagonals, phase alignment.

The fused kernels of ``unitary_of_circuit`` and ``unitary_of_gadgets`` are
checked against ``reference_unitary``, a plain Kronecker/tensordot
embedding of every gate's matrix, and ``product_error`` against the
phase-aligned error of the reference product. Both kernels, the per-gate
one and the grouped one, are forced at any qubit count by patching
``GROUP_MIN_QUBITS``, and the grouped one at several group caps by
patching ``GROUP_DIRECTIONS``.
"""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from phasefold import circuits as ci
from phasefold import oracle
from phasefold.circuits import GateCircuit
from phasefold.gadgets import GadgetCircuit, GadgetEntry, gadget_circuit
from phasefold.gf2 import BitVec
from phasefold.transform import CnotCircuit
from phasefold.oracle import (
    CNOT_MATRIX,
    CZ_MATRIX,
    GROUP_DIRECTIONS,
    GROUP_MIN_QUBITS,
    H_MATRIX,
    MAX_QUBITS,
    TooManyQubitsError,
    crx_matrix,
    crz_matrix,
    cu1_matrix,
    equiv_up_to_phase,
    gadget_diagonal,
    phase_aligned_error,
    product_error,
    rx_matrix,
    ry_matrix,
    rz_matrix,
    unitary_of_circuit,
    unitary_of_gadgets,
)

KERNEL_TOL = 1e-12

REFERENCE_MATRIX = {
    "cnot": lambda _: CNOT_MATRIX,
    "rz": rz_matrix,
    "rx": rx_matrix,
    "ry": ry_matrix,
    "h": lambda _: H_MATRIX,
    "cz": lambda _: CZ_MATRIX,
    "crz": crz_matrix,
    "crx": crx_matrix,
    "cu1": cu1_matrix,
}


def embed(u, gate, qubits, n):
    """Left-multiply ``u`` by ``gate`` embedded on the given qubits (qubit 0 = MSB)."""
    k = len(qubits)
    t = u.reshape((2,) * n + (u.shape[1],))
    g = gate.reshape((2,) * (2 * k))
    t = np.tensordot(g, t, axes=(list(range(k, 2 * k)), list(qubits)))
    t = np.moveaxis(t, list(range(k)), list(qubits))
    return t.reshape(u.shape)


def reference_unitary(circuit):
    n = circuit.n_qubits
    u = np.eye(1 << n, dtype=complex)
    for g in circuit.gates:
        u = embed(u, REFERENCE_MATRIX[g.kind](g.angle), g.qubits, n)
    return u


def reference_gadget_unitary(gadgets):
    """Z gadgets as explicit parity diagonals, X gadgets conjugated by embedded H."""
    n = gadgets.n_qubits
    u = np.eye(1 << n, dtype=complex)
    for e in gadgets.entries:
        legs = [q for q in range(n) if e.legs[q]]
        hadamards = legs if e.basis == "X" else []
        for q in hadamards:
            u = embed(u, H_MATRIX, (q,), n)
        parity = [sum((x >> (n - 1 - q)) & 1 for q in legs) % 2 for x in range(1 << n)]
        u = np.array([cmath.exp((0.5j if p else -0.5j) * e.angle) for p in parity])[:, None] * u
        for q in hadamards:
            u = embed(u, H_MATRIX, (q,), n)
    return u


def random_gate(rng, n):
    kinds = sorted(k for k, (arity, _) in ci.GATE_KINDS.items() if arity <= n)
    kind = kinds[int(rng.integers(len(kinds)))]
    arity, has_angle = ci.GATE_KINDS[kind]
    qubits = tuple(int(q) for q in rng.choice(n, size=arity, replace=False))
    return ci.Gate(kind, qubits, float(rng.uniform(-7, 7)) if has_angle else None)


def assert_matches_reference(circuit):
    err = np.max(np.abs(unitary_of_circuit(circuit) - reference_unitary(circuit)))
    assert err < KERNEL_TOL, (err, circuit)


# (GROUP_MIN_QUBITS, GROUP_DIRECTIONS): the per-gate kernel, then the grouped
# kernel at caps of one direction, two, and the default.
KERNELS = [(MAX_QUBITS + 1, GROUP_DIRECTIONS), (1, 1), (1, 2), (1, GROUP_DIRECTIONS)]


def assert_kernels_match(monkeypatch, build, reference):
    """``build()`` agrees with ``reference`` on every kernel in ``KERNELS``."""
    for min_qubits, directions in KERNELS:
        monkeypatch.setattr(oracle, "GROUP_MIN_QUBITS", min_qubits)
        monkeypatch.setattr(oracle, "GROUP_DIRECTIONS", directions)
        err = np.max(np.abs(build() - reference))
        assert err < KERNEL_TOL, (min_qubits, directions, err)


def assert_circuit_kernels_match(monkeypatch, circuit):
    reference = reference_unitary(circuit)
    assert_kernels_match(monkeypatch, lambda: unitary_of_circuit(circuit), reference)


def assert_errors_match(monkeypatch, c, d):
    """``product_error(c, d)`` is the reference product's error on every kernel."""
    want = phase_aligned_error(reference_unitary(d).conj().T @ reference_unitary(c))
    assert_kernels_match(monkeypatch, lambda: product_error(c, d), want)


def single(n, gate):
    return GateCircuit(n, (gate,))


def test_empty_circuit_is_identity():
    u = unitary_of_circuit(GateCircuit(3, ()))
    assert np.allclose(u, np.eye(8))


def test_cnot_permutation_and_bit_order():
    # Qubit 0 is the most significant bit: CNOT(0, 1) swaps |10> and |11>.
    u = unitary_of_circuit(single(2, ci.cnot(0, 1)))
    expected = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    assert np.allclose(u, expected)
    # Reversed control/target permutes the odd-second-bit states instead.
    u_rev = unitary_of_circuit(single(2, ci.cnot(1, 0)))
    expected_rev = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]])
    assert np.allclose(u_rev, expected_rev)


def test_crz_is_printed_diagonal():
    theta = 0.7
    u = unitary_of_circuit(single(2, ci.crz(2 * theta, 0, 1)))
    expected = np.diag([1, 1, cmath.exp(-1j * theta), cmath.exp(1j * theta)])
    assert np.allclose(u, expected)


def test_cu1_and_cz():
    theta = 1.3
    u = unitary_of_circuit(single(2, ci.cu1(theta, 0, 1)))
    assert np.allclose(u, np.diag([1, 1, 1, cmath.exp(1j * theta)]))
    assert np.allclose(unitary_of_circuit(single(2, ci.cz(0, 1))), CZ_MATRIX)


def test_crx_matrix():
    theta = 0.9
    u = unitary_of_circuit(single(2, ci.crx(2 * theta, 0, 1)))
    c, s = math.cos(theta), math.sin(theta)
    expected = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, c, -1j * s], [0, 0, -1j * s, c]]
    )
    assert np.allclose(u, expected)


def test_composition_is_application_order():
    # RX(pi) after RZ(pi) on one qubit: matrix product RX @ RZ.
    circ = GateCircuit(1, (ci.rz(1.1, 0), ci.rx(0.4, 0)))
    u = unitary_of_circuit(circ)
    expected = unitary_of_circuit(single(1, ci.rx(0.4, 0))) @ unitary_of_circuit(
        single(1, ci.rz(1.1, 0))
    )
    assert np.allclose(u, expected)


def test_two_qubit_embedding_any_order():
    # CNOT(2, 0) on 3 qubits against an explicit permutation build.
    u = unitary_of_circuit(single(3, ci.cnot(2, 0)))
    expected = np.zeros((8, 8))
    for x in range(8):
        bit2 = (x >> 0) & 1  # qubit 2 is the least significant bit
        y = x ^ (bit2 << 2)  # flips qubit 0 when qubit 2 is set
        expected[y, x] = 1
    assert np.allclose(u, expected)


def test_gadget_diagonal_pattern():
    theta = 0.8
    g = gadget_circuit(3, [("Z", theta, "101")])
    u = unitary_of_gadgets(g)
    scale = cmath.exp(-1j * theta / 2)
    odd = cmath.exp(1j * theta)
    # parity of qubits {0, 2} per index (qubit 0 = MSB): 0,1,0,1,1,0,1,0
    pattern = [0, 1, 0, 1, 1, 0, 1, 0]
    expected = np.diag([scale * (odd if p else 1) for p in pattern])
    assert np.allclose(u, expected)


def test_gadget_all_legs_diagonal_matches_display():
    # Three-leg gadget: odd-parity entries pick up e^{i theta} relative to
    # the e^{-i theta/2} prefactor.
    theta = 0.5
    diag = gadget_diagonal(3, theta, [1, 1, 1])
    scale = cmath.exp(-1j * theta / 2)
    expected = scale * np.array(
        [1, cmath.exp(1j * theta), cmath.exp(1j * theta), 1,
         cmath.exp(1j * theta), 1, 1, cmath.exp(1j * theta)]
    )
    assert np.allclose(diag, expected)


def test_gadget_zero_angle_is_identity():
    g = gadget_circuit(2, [("Z", 0.0, "11"), ("X", 0.0, "10")])
    assert np.allclose(unitary_of_gadgets(g), np.eye(4))


def test_x_gadget_is_hadamard_conjugate():
    theta = 1.9
    g = gadget_circuit(2, [("X", theta, "11")])
    u = unitary_of_gadgets(g)
    hh = unitary_of_circuit(GateCircuit(2, (ci.h(0), ci.h(1))))
    d = unitary_of_gadgets(gadget_circuit(2, [("Z", theta, "11")]))
    assert np.allclose(u, hh @ d @ hh)


def test_single_leg_gadgets_are_rotations():
    theta = 0.33
    gz = unitary_of_gadgets(gadget_circuit(1, [("Z", theta, "1")]))
    assert np.allclose(gz, unitary_of_circuit(single(1, ci.rz(theta, 0))))
    gx = unitary_of_gadgets(gadget_circuit(1, [("X", theta, "1")]))
    assert np.allclose(gx, unitary_of_circuit(single(1, ci.rx(theta, 0))))


def test_every_unitary_is_unitary():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        gates = []
        for _ in range(10):
            q = int(rng.integers(n))
            gates.append(ci.rz(float(rng.uniform(0, 7)), q))
            if n > 1:
                t = int(rng.integers(n))
                if t != q:
                    gates.append(ci.cnot(q, t))
        u = unitary_of_circuit(GateCircuit(n, tuple(gates)))
        assert np.max(np.abs(u @ u.conj().T - np.eye(1 << n))) < 1e-9


def test_equiv_up_to_phase_trivials():
    u = unitary_of_circuit(single(2, ci.crz(0.4, 0, 1)))
    assert equiv_up_to_phase(u, u)
    assert equiv_up_to_phase(u, -u)
    assert equiv_up_to_phase(u, 1j * u)


def test_equiv_distinct_gates():
    assert not equiv_up_to_phase(CNOT_MATRIX, CZ_MATRIX)


def test_phase_aligned_error_value():
    u = np.eye(2, dtype=complex)
    v = cmath.exp(0.7j) * np.eye(2)
    assert phase_aligned_error(u, v) < 1e-12


def _random_rotation_circuit(rng, n, count):
    gates = []
    for _ in range(count):
        q = int(rng.integers(n))
        kind = int(rng.integers(3))
        if kind == 0 and n > 1:
            t = (q + 1 + int(rng.integers(n - 1))) % n
            gates.append(ci.cnot(q, t))
        else:
            rot = ci.rz if kind == 1 else ci.rx
            gates.append(rot(float(rng.uniform(-math.pi, math.pi)), q))
    return gates


def test_phase_pick_from_trace():
    # The phase comes from tr(v^dag u): a random global phase is undone to
    # rounding, a 1e-6 angle change is still caught, and a zero-trace pair
    # such as I against Z is no equivalence.
    rng = np.random.default_rng(811)
    for n in range(1, 7):
        gates = _random_rotation_circuit(rng, n, 6 * n)
        u = unitary_of_circuit(GateCircuit(n, tuple(gates)))
        phase = cmath.exp(1j * float(rng.uniform(-math.pi, math.pi)))
        assert phase_aligned_error(u, phase * u) < 1e-12
        k = next(k for k, g in enumerate(gates) if g.kind != "cnot")
        bent = gates[:k] + [ci.Gate(gates[k].kind, gates[k].qubits, gates[k].angle + 1e-6)]
        v = unitary_of_circuit(GateCircuit(n, tuple(bent + gates[k + 1 :])))
        assert not equiv_up_to_phase(u, phase * v)
    z = np.diag([1.0, -1.0]).astype(complex)
    assert np.vdot(z, np.eye(2)) == 0
    assert not equiv_up_to_phase(np.eye(2, dtype=complex), z)
    assert not equiv_up_to_phase(np.kron(z, np.eye(2)), np.eye(4, dtype=complex))


@pytest.mark.parametrize("n", [1, 3, 8, 9, 10])
def test_error_in_row_blocks_is_the_whole_matrix_norm(n):
    # From n = 9 on the rows come in several blocks; random pairs, a pair
    # equal up to phase and rounding-sized noise, and a zero-trace pair.
    rng = np.random.default_rng(300 + n)
    size = 1 << n
    shape = (size, size)
    u = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    close = cmath.exp(0.3j) * u + 1e-15 * v
    zero_trace = np.diag(np.where(np.arange(size) % 2, -1.0, 1.0)).astype(complex)
    identity = np.eye(size, dtype=complex)
    assert np.vdot(zero_trace, identity) == 0
    for a, b in ((u, v), (v, u), (u, close), (identity, zero_trace)):
        trace = np.vdot(b, a)
        phase = 1 if trace == 0 else trace / abs(trace)
        whole = np.linalg.norm(a - phase * b)
        assert math.isclose(phase_aligned_error(a, b), whole, rel_tol=1e-12)
    assert phase_aligned_error(identity, zero_trace) == math.sqrt(2 * size)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_identity_error_is_the_frobenius_distance(n):
    # For W = U_d^dag U_c the error is ||U_c - e^{i phi} U_d||_F with the
    # phase of tr W: the two-matrix error, which bounds every entry.
    rng = np.random.default_rng(500 + n)
    for length in (0, 4, 30):
        c = GateCircuit(n, tuple(random_gate(rng, n) for _ in range(length)))
        d = GateCircuit(n, tuple(random_gate(rng, n) for _ in range(length)))
        uc, ud = unitary_of_circuit(c), unitary_of_circuit(d)
        trace = np.vdot(ud, uc)
        phase = 1 if trace == 0 else trace / abs(trace)
        err = phase_aligned_error(unitary_of_circuit(c, d))
        assert abs(err - np.linalg.norm(uc - phase * ud)) < 1e-9
        assert abs(err - phase_aligned_error(uc, ud)) < 1e-9
        assert err >= np.max(np.abs(uc - phase * ud)) - 1e-15
        assert phase_aligned_error(unitary_of_circuit(c, c)) < 1e-12
    assert phase_aligned_error(cmath.exp(0.7j) * np.eye(1 << n)) < 1e-13


def test_identity_error_zero_trace_and_shape():
    z = np.diag([1.0, -1.0]).astype(complex)
    for w in (z, np.kron(z, np.eye(2)), np.kron(np.eye(4), z)):
        assert np.trace(w) == 0
        assert phase_aligned_error(w) == math.sqrt(2 * len(w))
        assert not equiv_up_to_phase(w)
    with pytest.raises(ValueError):
        phase_aligned_error(np.ones((2, 4), dtype=complex))
    with pytest.raises(ValueError):
        phase_aligned_error(np.eye(2, dtype=complex), np.eye(4, dtype=complex))


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_one_product_matches_reference_all_kinds(n, monkeypatch):
    # unitary_of_circuit(c, d) runs c, then d's inverted gates in reverse:
    # U_d^dag U_c on every kernel, and the identity for d = c.
    rng = np.random.default_rng(1000 + n)
    for length in (0, 3, 25):
        c = GateCircuit(n, tuple(random_gate(rng, n) for _ in range(length)))
        d = GateCircuit(n, tuple(random_gate(rng, n) for _ in range(length)))
        want = reference_unitary(d).conj().T @ reference_unitary(c)
        assert_kernels_match(monkeypatch, lambda: unitary_of_circuit(c, d), want)
        assert_kernels_match(monkeypatch, lambda: unitary_of_circuit(c, c), np.eye(1 << n))
    with pytest.raises(ValueError):
        unitary_of_circuit(GateCircuit(n, ()), GateCircuit(n + 1, ()))


def test_qubit_limit():
    with pytest.raises(TooManyQubitsError):
        unitary_of_circuit(GateCircuit(11, ()))


@pytest.mark.parametrize("n", range(1, MAX_QUBITS + 1))
def test_kernel_matches_reference_all_kinds(n, monkeypatch):
    # 40 gates carry about 18 row-mixing ones: from n = 2 on they cross
    # several group boundaries at caps 1 and 2, from n = 6 on at the default.
    rng = np.random.default_rng(600 + n)
    lengths, repeats = ((0, 1, 2, 5, 40), 3) if n <= 7 else ((40,), 1)
    for length in lengths:
        for _ in range(repeats):
            gates = tuple(random_gate(rng, n) for _ in range(length))
            assert_circuit_kernels_match(monkeypatch, GateCircuit(n, gates))


@pytest.mark.parametrize(
    "gates",
    [
        (ci.rx(0.3, 1), ci.cnot(0, 1), ci.cnot(1, 2)),
        (ci.rx(0.3, 1), ci.rz(1.2, 2), ci.cz(0, 2)),
        (ci.h(0), ci.cnot(2, 0), ci.crz(0.8, 0, 1), ci.cu1(-0.4, 1, 2)),
        (ci.cnot(0, 1), ci.cnot(1, 2), ci.cnot(2, 0), ci.rz(0.5, 0)),
    ],
    ids=["pending-perm", "pending-phase", "pending-both", "never-flushed"],
)
def test_kernel_flushes_pending_at_end(gates):
    assert_matches_reference(GateCircuit(3, gates))


def test_kernel_rz_and_cnot_overlap_in_either_order():
    runs = [
        (ci.cnot(0, 1), ci.rz(0.7, 1)),
        (ci.rz(0.7, 1), ci.cnot(0, 1)),
        (ci.cnot(1, 0), ci.rz(0.7, 1), ci.cnot(0, 1), ci.rz(-1.1, 0)),
        (ci.rz(0.2, 0), ci.cnot(0, 2), ci.rz(0.9, 2), ci.cnot(2, 0), ci.rz(1.6, 0)),
    ]
    for run in runs:
        assert_matches_reference(GateCircuit(3, run))
        # The same run followed by a row-mixing gate flushes it into the matrix.
        assert_matches_reference(GateCircuit(3, run + (ci.rx(0.4, 0), ci.rx(-0.6, 2))))


@pytest.mark.parametrize(
    "gate",
    [ci.rx(0.5, 2), ci.ry(0.5, 1), ci.h(0), ci.cz(2, 0), ci.crz(0.5, 2, 1), ci.crx(0.5, 2, 0),
     ci.crx(0.5, 0, 2), ci.cu1(0.5, 1, 2)],
    ids=lambda g: g.kind + "".join(map(str, g.qubits)),
)
def test_kernel_gate_after_pending_cnot_and_rz(gate):
    pending = (ci.rx(0.1, 0), ci.cnot(0, 2), ci.rz(0.3, 2), ci.cnot(2, 1), ci.rz(-0.8, 0))
    assert_matches_reference(GateCircuit(3, pending + (gate,)))
    assert_matches_reference(GateCircuit(3, pending + (gate,) + pending))


def test_kernel_empty_circuit():
    for n in range(1, 8):
        assert_matches_reference(GateCircuit(n, ()))


@pytest.mark.parametrize("n", range(1, 7))
def test_gadget_kernel_matches_reference(n, monkeypatch):
    # An X entry is H on its legs, the parity diagonal, then H on the same
    # legs again: the second Hadamards pair rows along directions already
    # in the group.
    rng = np.random.default_rng(700 + n)
    for length in (0, 1, 6):
        entries = []
        for _ in range(length):
            legs = BitVec(n, int(rng.integers(1, 1 << n)))
            basis = "XZ"[int(rng.integers(2))]
            entries.append(GadgetEntry(basis, float(rng.uniform(-7, 7)), legs))
        g = GadgetCircuit(n, tuple(entries))
        assert_kernels_match(monkeypatch, lambda: unitary_of_gadgets(g), reference_gadget_unitary(g))


@pytest.mark.parametrize("n", range(2, 7))
def test_gadget_kernel_applies_the_cnot_tail_last(n, monkeypatch):
    rng = np.random.default_rng(750 + n)
    entries = []
    for _ in range(4):
        legs = BitVec(n, int(rng.integers(1, 1 << n)))
        entries.append(GadgetEntry("XZ"[int(rng.integers(2))], float(rng.uniform(-7, 7)), legs))
    g = GadgetCircuit(n, tuple(entries))
    pairs = [tuple(int(q) for q in rng.choice(n, size=2, replace=False)) for _ in range(2 * n)]
    tail = CnotCircuit(n, tuple(pairs))
    reference = reference_unitary(tail.to_gates()) @ reference_gadget_unitary(g)
    assert_kernels_match(monkeypatch, lambda: unitary_of_gadgets(g, tail), reference)


@pytest.mark.parametrize(
    "gates",
    [
        (ci.rx(0.3, 1), ci.rx(-1.2, 1)),
        (ci.rx(0.3, 1), ci.rz(0.8, 1), ci.cz(0, 1), ci.rx(-1.2, 1), ci.ry(0.5, 1)),
        (ci.rx(0.3, 0), ci.cnot(0, 1), ci.rx(0.9, 1), ci.rx(-0.4, 0)),
        (ci.rx(0.3, 0), ci.cnot(0, 1), ci.rz(0.2, 0), ci.rx(0.9, 1), ci.h(2), ci.cnot(2, 0),
         ci.rx(-0.4, 0), ci.ry(1.1, 1)),
        (ci.h(2), ci.rx(0.2, 1), ci.crx(0.5, 0, 2), ci.rz(0.3, 2), ci.crx(-0.8, 0, 1), ci.ry(0.6, 2)),
        (ci.ry(0.7, 0), ci.crx(0.5, 1, 0), ci.cnot(1, 2), ci.crx(1.3, 1, 2), ci.rx(0.4, 3),
         ci.crx(-0.6, 1, 3), ci.h(0)),
        (ci.crx(0.5, 0, 1), ci.crx(0.7, 1, 0), ci.cnot(0, 1), ci.crx(-0.2, 0, 1)),
    ],
    ids=["rx-twice", "in-span-after-diagonals", "cnot-makes-dependent", "dependent-between-cnots",
         "crx-control-0", "crx-control-1", "crx-both-ways"],
)
def test_kernel_repeats_and_dependent_directions(gates, monkeypatch):
    # A 2x2 gate whose row offset is already in the group's span only shifts
    # the coefficient columns; after CNOT(0, 1), RX on qubit 0 pairs rows
    # along the XOR of the two directions already opened.
    assert_circuit_kernels_match(monkeypatch, GateCircuit(4, gates))


@pytest.mark.parametrize(
    "gates, error",
    [
        ((), 0.0),
        ((ci.cnot(0, 1),), 4.0),  # rows 10 and 11 swap: 1 off the diagonal, 1 missing on it
        ((ci.rz(math.pi, 1),), 8.0),  # trace 0, so the phase is 1: 2 * 2^n
        ((ci.cz(0, 1), ci.cnot(1, 0), ci.crz(0.5, 0, 1), ci.cnot(0, 1), ci.cu1(-0.3, 1, 0)), None),
    ],
    ids=["empty", "one-cnot", "zero-trace", "mixed"],
)
def test_error_of_a_product_that_never_mixes(gates, error, monkeypatch):
    # Permutations and diagonals only: the group keeps its one column of ones.
    c = GateCircuit(2, gates)
    assert_errors_match(monkeypatch, c, GateCircuit(2, ()))
    assert_errors_match(monkeypatch, c, c)
    if error is not None:
        assert math.isclose(product_error(c, GateCircuit(2, ())) ** 2, error, abs_tol=1e-12)


@pytest.mark.parametrize(
    "gates",
    [
        (ci.cnot(0, 1), ci.cnot(1, 2), ci.cnot(2, 0), ci.rx(0.4, 0), ci.cnot(3, 1), ci.cnot(0, 3)),
        (ci.rx(0.4, 1), ci.cnot(0, 1), ci.cnot(1, 2), ci.cnot(1, 2), ci.cnot(0, 1), ci.rx(-0.7, 1)),
        (ci.h(2), ci.cnot(0, 1), ci.cnot(1, 0), ci.cnot(0, 1), ci.cnot(0, 1), ci.cnot(1, 0),
         ci.cnot(0, 1), ci.ry(0.9, 0), ci.cnot(2, 3), ci.cnot(3, 0)),
        (ci.rz(0.3, 0), ci.cnot(0, 1), ci.cnot(2, 3), ci.rx(0.5, 3), ci.cnot(2, 3), ci.cnot(0, 1),
         ci.crx(0.6, 1, 2), ci.cnot(1, 2), ci.cnot(2, 0), ci.cnot(0, 1), ci.cnot(1, 2)),
    ],
    ids=["crossing-runs", "run-cancels-itself", "swaps-cancel", "runs-between-mixes"],
)
def test_kernel_cnot_runs(gates, monkeypatch):
    # Consecutive CNOTs act as one permutation: runs that cross qubits, and
    # runs that are the identity, before, between and after mixing gates.
    c = GateCircuit(4, gates)
    assert_circuit_kernels_match(monkeypatch, c)
    assert_errors_match(monkeypatch, c, c)
    assert_errors_match(monkeypatch, c, GateCircuit(4, gates[::-1]))


def _count_groups(monkeypatch) -> list:
    """From now on, each applied group appends one entry to the returned list."""
    applied = []
    apply_group = oracle._Grouped._apply_group

    def spy(acc):
        applied.append(len(acc.directions))
        apply_group(acc)

    monkeypatch.setattr(oracle._Grouped, "_apply_group", spy)
    return applied


def _group_sizes(monkeypatch, circuit):
    """Directions per applied group while ``circuit``'s unitary is built."""
    with monkeypatch.context() as m:
        sizes = _count_groups(m)
        assert_matches_reference(circuit)
    return sizes


@pytest.mark.parametrize("directions", [1, 2, GROUP_DIRECTIONS])
def test_group_holds_exactly_the_cap(directions, monkeypatch):
    # RX on `directions` qubits fills one group, and repeats on the same
    # qubits stay inside it; RX on one qubit more starts a second group.
    monkeypatch.setattr(oracle, "GROUP_MIN_QUBITS", 1)
    monkeypatch.setattr(oracle, "GROUP_DIRECTIONS", directions)
    n = directions + 1
    cap = tuple(g for q in range(directions) for g in (ci.rx(0.3 + q, q), ci.rz(0.1 * q, q)))
    repeats = tuple(ci.rx(-0.5 - q, q) for q in range(directions))
    assert _group_sizes(monkeypatch, GateCircuit(n, cap + repeats)) == [directions]
    one_more = cap + (ci.rx(0.9, directions),)
    assert _group_sizes(monkeypatch, GateCircuit(n, one_more)) == [directions, 1]


@pytest.mark.parametrize("n", [GROUP_MIN_QUBITS - 1, GROUP_MIN_QUBITS])
def test_kernel_either_side_of_crossover(n):
    # Default constants: the per-gate kernel below GROUP_MIN_QUBITS, groups from it on.
    kind = oracle._Grouped if n >= GROUP_MIN_QUBITS else oracle._Pending
    assert isinstance(oracle._accumulator(n), kind)
    rng = np.random.default_rng(900 + n)
    assert_matches_reference(GateCircuit(n, tuple(random_gate(rng, n) for _ in range(30))))
    entries = [GadgetEntry("X", 0.4, BitVec(n, (1 << n) - 2)), GadgetEntry("Z", 0.9, BitVec(n, 5))]
    g = GadgetCircuit(n, tuple(entries))
    assert np.max(np.abs(unitary_of_gadgets(g) - reference_gadget_unitary(g))) < KERNEL_TOL


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_grouped_kernel_holds_two_matrices():
    # Peak allocation of one unitary at MAX_QUBITS with several groups: the
    # matrix, the copy returned in natural row order, and a few arrays as
    # large as the 2^n x 2^GROUP_DIRECTIONS coefficients (4 x 1 MB at D = 6).
    n = MAX_QUBITS
    rng = np.random.default_rng(77)
    circuit = GateCircuit(n, tuple(random_gate(rng, n) for _ in range(60)))
    matrix_bytes = 16 << (2 * n)
    coef_bytes = 16 << (n + GROUP_DIRECTIONS)
    peak = _peak_bytes(lambda: unitary_of_circuit(circuit))
    assert peak < 2 * matrix_bytes + 4 * coef_bytes, peak / matrix_bytes


def test_verification_holds_one_matrix(monkeypatch):
    # optimize's check at MAX_QUBITS, the error of the product U_c^dag U_c
    # over several groups, peaks at one matrix and coefficient-sized arrays:
    # groups are applied coset by coset in place, and the rows are read into
    # the error block by block (a block is 2^16 entries).
    n = MAX_QUBITS
    rng = np.random.default_rng(78)
    c = GateCircuit(n, tuple(random_gate(rng, n) for _ in range(60)))
    matrix_bytes = 16 << (2 * n)
    coef_bytes = 16 << (n + GROUP_DIRECTIONS)
    applied = _count_groups(monkeypatch)
    errors = []
    peak = _peak_bytes(lambda: errors.append(product_error(c, c)))
    assert errors[0] < oracle.VERIFY_TOL
    assert len(applied) > 1
    assert peak < matrix_bytes + 8 * coef_bytes, peak / matrix_bytes


def test_one_group_product_builds_no_matrix(monkeypatch):
    # Mixing gates on five qubits and CNOTs among the other five: the product
    # stays in one group, and its error is read from the coefficients alone,
    # well below one matrix.
    n = MAX_QUBITS
    rng = np.random.default_rng(79)
    gates = []
    for _ in range(40):
        gates.append(ci.rx(float(rng.uniform(-3, 3)), int(rng.integers(5))))
        gates.append(ci.rz(float(rng.uniform(-3, 3)), int(rng.integers(n))))
        gates.append(ci.cnot(*(int(q) for q in rng.choice(range(5, n), size=2, replace=False))))
    c = GateCircuit(n, tuple(gates))
    bent = GateCircuit(n, (ci.rx(1e-3, 0),) + c.gates)
    matrix_bytes = 16 << (2 * n)
    applied = _count_groups(monkeypatch)
    assert _peak_bytes(lambda: product_error(c, c)) < matrix_bytes // 4
    assert product_error(c, c) < oracle.VERIFY_TOL
    assert product_error(c, bent) > oracle.VERIFY_TOL
    assert applied == []
