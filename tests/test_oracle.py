"""Oracle conventions: gate matrices, bit ordering, gadget diagonals, phase alignment.

The kernel of ``unitary_of_circuit`` is checked against
``reference_unitary``, a plain Kronecker/tensordot embedding of every
gate's matrix, on gate circuits, and against ``reference_gadget_unitary``
on gadget circuits and normal forms; ``product_error`` is checked against
the phase-aligned error of the reference product, each also with the
kernel's column slabs cut down to one column, as from 9 qubits on it
works in several slabs. Neither a circuit against itself
nor a product whose rotations all merge away builds a kernel, pairs of
unequal net CNOT actions score the reference error on n qubits, the
merge stays linear on a long circuit, and a merged sum within
``_DROP_ANGLE`` of a turn drops with its cost in the slack.
"""

import cmath
import math
import time

import numpy as np
import pytest

from phasefold import circuits as ci
from phasefold import oracle
from phasefold.circuits import GateCircuit
from phasefold.gadgets import GadgetCircuit, GadgetEntry, gadget_circuit
from phasefold.gf2 import BitVec
from phasefold.transform import CnotCircuit, NormalForm, extract, synth_gadget_circuit
from phasefold.oracle import (
    CNOT_MATRIX,
    CZ_MATRIX,
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


def assert_kernels_match(monkeypatch, build, reference):
    """``build()`` agrees with ``reference``, in the usual column slabs and in slabs of one column.

    A reference matrix larger than one slab is built in several slabs as it is.
    """
    several = np.size(reference) > oracle._BLOCK_ENTRIES
    for entries in (oracle._BLOCK_ENTRIES,) if several else (oracle._BLOCK_ENTRIES, 1):
        monkeypatch.setattr(oracle, "_BLOCK_ENTRIES", entries)
        err = np.max(np.abs(build() - reference))
        assert err < KERNEL_TOL, (entries, err)


def assert_circuit_kernels_match(monkeypatch, circuit):
    reference = reference_unitary(circuit)
    assert_kernels_match(monkeypatch, lambda: unitary_of_circuit(circuit), reference)


def kernel_error(c, d) -> float:
    """The error of the whole product U_d^dag U_c as the kernel builds it: nothing merges."""
    return phase_aligned_error(unitary_of_circuit(c, d))


def assert_errors_match(monkeypatch, c, d):
    """``product_error(c, d)`` is the reference product's error on every kernel.

    So is ``kernel_error``, as with d = c the check itself runs no kernel.
    """
    want = phase_aligned_error(reference_unitary(d).conj().T @ reference_unitary(c))
    assert_kernels_match(monkeypatch, lambda: product_error(c, d), want)
    assert_kernels_match(monkeypatch, lambda: kernel_error(c, d), want)


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
    u = unitary_of_circuit(g)
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
    assert np.allclose(unitary_of_circuit(g), np.eye(4))


def test_x_gadget_is_hadamard_conjugate():
    theta = 1.9
    g = gadget_circuit(2, [("X", theta, "11")])
    u = unitary_of_circuit(g)
    hh = unitary_of_circuit(GateCircuit(2, (ci.h(0), ci.h(1))))
    d = unitary_of_circuit(gadget_circuit(2, [("Z", theta, "11")]))
    assert np.allclose(u, hh @ d @ hh)


def test_single_leg_gadgets_are_rotations():
    theta = 0.33
    gz = unitary_of_circuit(gadget_circuit(1, [("Z", theta, "1")]))
    assert np.allclose(gz, unitary_of_circuit(single(1, ci.rz(theta, 0))))
    gx = unitary_of_circuit(gadget_circuit(1, [("X", theta, "1")]))
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
    with pytest.raises(TooManyQubitsError):
        product_error(GateCircuit(11, ()), GateCircuit(11, ()))


def test_equal_trailing_steps_cancel_to_nothing(monkeypatch):
    # A circuit against itself cancels to nothing, as U^dag U = I: it
    # scores exactly 0 with no kernel built, on a gate circuit with a
    # CRX, gadget circuits with X gadgets, a normal form and a circuit of
    # every gate kind at MAX_QUBITS. The same gates with the CRX and the
    # last RZ swapped (they commute) are other steps, which merge: they
    # score the reference error and pass.
    c = GateCircuit(3, (ci.rx(0.4, 0), ci.cnot(1, 2), ci.rz(0.2, 0), ci.crx(0.9, 2, 1)))
    d = GateCircuit(3, (ci.rx(0.4, 0), ci.cnot(1, 2), ci.crx(0.9, 2, 1), ci.rz(0.2, 0)))
    g = gadget_circuit(3, [("X", 0.5, "110"), ("Z", -1.5, "011"), ("X", 0.7, "001")])
    n = MAX_QUBITS
    rng = np.random.default_rng(82)
    rich = GateCircuit(n, tuple(random_gate(rng, n) for _ in range(80)))
    assert {gate.kind for gate in rich.gates} == set(ci.GATE_KINDS)
    nf = extract(ci.lower_to_basis(rich))
    _, steps, undo_steps = oracle._operands(c, d)
    assert steps != undo_steps
    for a, b in ((c, d), (d, c)):
        assert_errors_match(monkeypatch, a, b)
        assert product_error(a, b) < oracle.VERIFY_TOL
    monkeypatch.setattr(oracle, "_Pending", None)  # building a kernel would raise
    for x in (c, g, rich, nf.gadgets, nf):
        assert product_error(x, x) == 0.0


def test_fully_merged_product_builds_no_accumulator(monkeypatch):
    # Rotations moved across gates they commute with, away from both ends,
    # so the two step lists differ: RZ past two CNOTs on its qubit
    # as control, and an X gadget past a Z gadget on the same two qubits
    # (even overlap). Every rotation merges onto its equal at an exact zero,
    # so nothing is left, on no logical qubit, and nothing is built.
    c = GateCircuit(2, (ci.rz(0.3, 0), ci.cnot(0, 1), ci.rx(0.4, 1), ci.cnot(0, 1)))
    d = GateCircuit(2, (ci.cnot(0, 1), ci.rx(0.4, 1), ci.cnot(0, 1), ci.rz(0.3, 0)))
    z = (ci.cnot(0, 1), ci.rz(0.5, 1), ci.cnot(0, 1))  # Z on qubits 0 and 1
    x = (ci.cnot(0, 1), ci.rx(-0.6, 0), ci.cnot(0, 1))  # X on qubits 0 and 1
    e, f = GateCircuit(2, z + x), GateCircuit(2, x + z)
    for a, b in ((c, d), (e, f)):
        n, steps, undo_steps = oracle._operands(a, b)
        assert steps != undo_steps
        assert oracle._merged_steps(n, steps, undo_steps) == (0, [], 0.0, None)
    monkeypatch.setattr(oracle, "_Pending", None)  # building a kernel would raise
    for a, b in ((c, d), (d, c), (e, f), (f, e)):
        assert product_error(a, b) == 0.0


def test_wrapped_sum_drops_into_the_slack(monkeypatch):
    # RZ(a) RZ(b) against RZ of their sum wrapped into (-pi, pi]: the merged
    # angle is float(2pi), a turn plus a residue r of -2.4e-16, so it drops,
    # and its rotation's distance from a sign, 2^(n/2) 2|sin(r/4)|, is the
    # slack. The check scores the slack, which bounds the dense error.
    n, a, b = 3, 2.9, 2.7
    c = GateCircuit(n, (ci.cnot(0, 1), ci.rz(a, 1), ci.rz(b, 1)))
    d = GateCircuit(n, (ci.cnot(0, 1), ci.rz(ci.wrap_angle(a + b), 1)))
    residue = oracle._reduced(a + b - ci.wrap_angle(a + b))
    assert 0 < abs(residue) <= oracle._DROP_ANGLE
    slack = math.sqrt(1 << n) * 2 * abs(math.sin(residue / 4))
    assert oracle._merged_steps(*oracle._operands(c, d)) == (0, [], slack, None)
    assert phase_aligned_error(unitary_of_circuit(c, d)) <= slack
    monkeypatch.setattr(oracle, "_Pending", None)  # building a kernel would raise
    assert product_error(c, d) == slack


def test_merge_walk_stays_linear(monkeypatch):
    # Every Z string on MAX_QUBITS qubits once, as a CNOT ladder around an
    # RZ (about 9,000 steps), against the same gadgets in a shuffled order:
    # each rotation finds its equal by its string and merges to an exact
    # zero, with no walk over the others.
    n = MAX_QUBITS
    rng = np.random.default_rng(81)
    entries = [GadgetEntry("Z", float(rng.uniform(-3, 3)), BitVec(n, s)) for s in range(1, 1 << n)]
    shuffled = [entries[i] for i in rng.permutation(len(entries))]
    c = synth_gadget_circuit(GadgetCircuit(n, tuple(entries)), "ladder")
    d = synth_gadget_circuit(GadgetCircuit(n, tuple(shuffled)), "ladder")
    monkeypatch.setattr(oracle, "_Pending", None)
    start = time.perf_counter()
    assert product_error(c, d) == 0.0
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize(
    "c, d",
    [
        ((ci.rx(0.7, 0), ci.cnot(0, 1)), (ci.cnot(0, 1), ci.rx(0.7, 0))),
        ((ci.cnot(0, 1), ci.rz(0.7, 1)), (ci.rz(0.7, 1), ci.cnot(0, 1))),
        ((ci.cnot(0, 1),), (ci.cnot(1, 0),)),
        (
            (ci.rz(0.3, 1), ci.cnot(0, 1), ci.rx(0.7, 1)),
            (ci.rz(0.3, 1), ci.cnot(0, 1), ci.rx(0.7 + 1e-6, 1)),
        ),
    ],
    ids=["rx-past-control", "rz-past-target", "cnot-reversed", "last-angle-bent"],
)
def test_unequal_last_steps_never_merge(c, d, monkeypatch):
    # Each pair differs in its last steps, and nothing may merge away: a
    # rotation does not commute past a CNOT on its qubit, CNOT(1, 0) is
    # not CNOT(0, 1), and angles must be equal. Either way round, each
    # scores its dense error, above the tolerance.
    c, d = GateCircuit(2, c), GateCircuit(2, d)
    for a, b in ((c, d), (d, c)):
        assert_errors_match(monkeypatch, a, b)
        assert product_error(a, b) > oracle.VERIFY_TOL


@pytest.mark.parametrize("n", range(1, MAX_QUBITS + 1))
def test_kernel_matches_reference_all_kinds(n, monkeypatch):
    # 40 gates carry about 18 X-string rotations (RX, RY, H, two per CRX),
    # most after pending CNOTs or phases; at n = 9 and 10 each goes in
    # several column slabs.
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
        # The same run followed by X rotations flushes it into the matrix.
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


@pytest.mark.parametrize("n", range(1, 9))
def test_gadget_kernel_matches_reference(n, monkeypatch):
    # An X entry is one rotation about the X string of its legs: a 2x2
    # mix on one bit between the CNOTs that spread it over the others.
    rng = np.random.default_rng(700 + n)
    for length in (0, 1, 6):
        entries = []
        for _ in range(length):
            legs = BitVec(n, int(rng.integers(1, 1 << n)))
            basis = "XZ"[int(rng.integers(2))]
            entries.append(GadgetEntry(basis, float(rng.uniform(-7, 7)), legs))
        g = GadgetCircuit(n, tuple(entries))
        assert_kernels_match(monkeypatch, lambda: unitary_of_circuit(g), reference_gadget_unitary(g))


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
    assert_kernels_match(monkeypatch, lambda: unitary_of_circuit(NormalForm(g, tail)), reference)


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
    # X rotations on qubits already mixed, between diagonals and CNOTs:
    # after CNOT(0, 1), RX on qubit 0 is an X string that earlier gates on
    # qubits 0 and 1 mixed, and a CRX is CRZ's Z strings between two H.
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
    # Permutations and diagonals only: the matrix is never mixed, and the
    # pending part is written in once, for the error.
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
        (ci.cnot(0, 1), ci.rz(0.3, 1), ci.cnot(1, 2), ci.cnot(3, 0), ci.rz(-0.6, 0), ci.cnot(2, 3)),
    ],
    ids=["crossing-runs", "run-cancels-itself", "swaps-cancel", "runs-between-mixes",
         "never-mixes"],
)
def test_kernel_cnot_runs(gates, monkeypatch):
    # CNOTs change the frame and act as one permutation at the end: runs
    # that cross qubits, and runs that are the identity, before, between
    # and after X rotations, or with no X rotation at all, where only the
    # pending part is written in.
    c = GateCircuit(4, gates)
    assert_circuit_kernels_match(monkeypatch, c)
    assert_errors_match(monkeypatch, c, c)
    assert_errors_match(monkeypatch, c, GateCircuit(4, gates[::-1]))


@pytest.mark.parametrize("n", [1, 3, 5])
def test_normal_form_on_either_side_matches_reference(n, monkeypatch):
    # A normal form, X and Z gadgets then a CNOT tail, steps through the
    # same loop as a circuit: with it on either side of ``product_error``,
    # against a circuit or another normal form, the error is the reference
    # product's, for an equal pair and for one with an angle bent by 1e-3.
    rng = np.random.default_rng(820 + n)
    entries = [
        GadgetEntry("XZ"[k % 2], float(rng.uniform(-7, 7)), BitVec(n, int(rng.integers(1, 1 << n))))
        for k in range(6)
    ]
    pairs = [tuple(int(q) for q in rng.choice(n, size=2, replace=False)) for _ in range(n - 1)] * 2
    tail = CnotCircuit(n, tuple(pairs))
    nf = NormalForm(GadgetCircuit(n, tuple(entries)), tail)
    bent_entry = GadgetEntry(entries[2].basis, entries[2].angle + 1e-3, entries[2].legs)
    bent = NormalForm(GadgetCircuit(n, tuple(entries[:2] + [bent_entry] + entries[3:])), tail)
    circuit = GateCircuit(n, synth_gadget_circuit(nf.gadgets).gates + tail.to_gates().gates)

    def reference(side):
        if isinstance(side, GateCircuit):
            return reference_unitary(side)
        return reference_unitary(side.tail.to_gates()) @ reference_gadget_unitary(side.gadgets)

    for a, b, equal in [(nf, circuit, True), (nf, nf, True), (bent, circuit, False),
                        (nf, bent, False)]:
        for c, d in ((a, b), (b, a)):
            want = phase_aligned_error(reference(d).conj().T @ reference(c))
            assert (want < oracle.VERIFY_TOL) == equal, want
            assert_kernels_match(monkeypatch, lambda: product_error(c, d), want)


def test_unitary_holds_two_matrices(peak_bytes):
    # Peak allocation of one unitary at MAX_QUBITS: the matrix, rotated in
    # place one column slab at a time, and slab-sized temporaries, under
    # the bound of two matrices and four 2^(n+6)-entry arrays (4 x 1 MB).
    n = MAX_QUBITS
    rng = np.random.default_rng(77)
    circuit = GateCircuit(n, tuple(random_gate(rng, n) for _ in range(60)))
    matrix_bytes = 16 << (2 * n)
    block_bytes = 16 << (n + 6)
    peak = peak_bytes(lambda: unitary_of_circuit(circuit))
    assert peak < 2 * matrix_bytes + 4 * block_bytes, peak / matrix_bytes


def _halved(c: GateCircuit) -> GateCircuit:
    """c with every rotation split into two halves: the same unitary, but
    other steps, whose halves the check merges back."""
    gates = []
    for g in c.gates:
        gates += [g] if g.angle is None else [ci.Gate(g.kind, g.qubits, g.angle / 2)] * 2
    return GateCircuit(c.n_qubits, tuple(gates))


def _turned(gates) -> tuple:
    """``gates`` with each CNOT written as H (x) H, the CNOT turned round, H (x) H:
    the same unitary, but steps of another net CNOT action."""
    out = []
    for g in gates:
        hadamards = [ci.h(q) for q in g.qubits]
        out += hadamards + [ci.cnot(*g.qubits[::-1])] + hadamards if g.kind == "cnot" else [g]
    return tuple(out)


def test_unequal_cnot_actions_match_reference(monkeypatch):
    # A CNOT ladder between rotations against the same ladder turned round
    # (``_turned``): the net CNOT actions of the steps differ, so what the
    # merge leaves runs on the n qubits, followed by the permutation.
    # Equal, and with one angle bent by 1e-6, either way round, the check
    # scores the reference error, in the usual column slabs and in slabs
    # of one column.
    n = 9
    rng = np.random.default_rng(83)
    gates = []
    for q in range(0, n - 1, 2):
        gates += [ci.rz(float(rng.uniform(-3, 3)), q), ci.cnot(q, q + 2)]
        gates.append(ci.rx(float(rng.uniform(-3, 3)), int(rng.integers(n))))
    c = GateCircuit(n, tuple(gates))
    turned = _turned(gates)
    k = next(k for k, g in enumerate(turned) if g.kind == "rx")
    bent = turned[:k] + (ci.rx(turned[k].angle + 1e-6, turned[k].qubits[0]),) + turned[k + 1 :]
    reference_c = reference_unitary(c)
    for gates_d, equal in ((turned, True), (bent, False)):
        d = GateCircuit(n, gates_d)
        assert oracle._merged_steps(*oracle._operands(c, d))[3] is not None
        reference_d = reference_unitary(d)
        for a, b, ua, ub in ((c, d, reference_c, reference_d), (d, c, reference_d, reference_c)):
            want = phase_aligned_error(ub.conj().T @ ua)
            assert (want < oracle.VERIFY_TOL) == equal, want
            assert_kernels_match(monkeypatch, lambda: product_error(a, b), want)


def test_verification_holds_one_matrix(peak_bytes):
    # optimize's check at MAX_QUBITS, the error of the product U_d^dag U_c
    # when what the merge leaves runs on the n qubits, peaks at one matrix
    # and slab-sized arrays: each X rotation rewrites the matrix one column
    # slab at a time, and the rows are read into the error block by block
    # (2^16 entries). d is c with its CNOTs turned round (``_turned``), so
    # the net CNOT actions of the steps differ.
    n = MAX_QUBITS
    rng = np.random.default_rng(78)
    c = GateCircuit(n, tuple(random_gate(rng, n) for _ in range(60)))
    d = GateCircuit(n, _turned(c.gates))
    assert oracle._merged_steps(*oracle._operands(c, d))[3] is not None
    assert len(oracle._row_blocks((1 << n, 1 << n))) > 1
    matrix_bytes = 16 << (2 * n)
    block_bytes = 16 << (n + 6)
    errors = []
    peak = peak_bytes(lambda: errors.append(product_error(c, d)))
    assert errors[0] < oracle.VERIFY_TOL
    assert peak < matrix_bytes + 8 * block_bytes, peak / matrix_bytes


def test_one_group_product_builds_no_matrix(peak_bytes):
    # RX on five qubits and CNOTs among the other five. d is c with its
    # rotations halved, which merge back to nothing, and bent is d after a
    # first RX of 1e-3, which leaves that RX on one logical qubit. Both
    # run on their logical qubits, and each stays well below one matrix.
    n = MAX_QUBITS
    rng = np.random.default_rng(79)
    gates = []
    for _ in range(40):
        gates.append(ci.rx(float(rng.uniform(-3, 3)), int(rng.integers(5))))
        gates.append(ci.rz(float(rng.uniform(-3, 3)), int(rng.integers(n))))
        gates.append(ci.cnot(*(int(q) for q in rng.choice(range(5, n), size=2, replace=False))))
    c = GateCircuit(n, tuple(gates))
    d = _halved(c)
    bent = GateCircuit(n, (ci.rx(1e-3, 0),) + d.gates)
    assert oracle._merged_steps(*oracle._operands(c, bent))[0] == 1
    # W = RX(-1e-3) on qubit 0, whose error is 2^(n/2) 2 sin(1e-3 / 4).
    want = math.sqrt(1 << n) * 2 * math.sin(1e-3 / 4)
    matrix_bytes = 16 << (2 * n)
    assert peak_bytes(lambda: product_error(c, d)) < matrix_bytes // 4
    assert peak_bytes(lambda: product_error(c, bent)) < matrix_bytes // 4
    assert product_error(c, d) < oracle.VERIFY_TOL
    assert abs(product_error(c, bent) - want) < 1e-12
