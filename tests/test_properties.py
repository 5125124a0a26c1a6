"""Property tests of optimize's one-product check, ``equiv_up_to_phase(U_d^dag U_c)``.

Circuits draw every gate kind on up to 6 qubits. The check must accept a
circuit against itself and against its lowered, peepholed rewrite, reject
it against a copy with one angle moved by at least 1e-3, and on every
pair score at least the largest phase-aligned entry error, so it is at
least as strict as an entry-wise comparison. Its error must also equal
the two-matrix error of ``verify``: both apply one rule.
"""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from phasefold import circuits as ci
from phasefold.circuits import GateCircuit
from phasefold.oracle import (
    equiv_up_to_phase,
    phase_aligned_error,
    unitary_of_circuit,
)
from phasefold.pipeline import euler_peephole


@st.composite
def circuits(draw, min_qubits=1, max_qubits=6, max_gates=30):
    n = draw(st.integers(min_qubits, max_qubits))
    kinds = sorted(k for k, (arity, _) in ci.GATE_KINDS.items() if arity <= n)
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        kind = draw(st.sampled_from(kinds))
        arity, has_angle = ci.GATE_KINDS[kind]
        qubits = draw(st.lists(st.integers(0, n - 1), min_size=arity, max_size=arity, unique=True))
        angle = draw(st.floats(-7, 7)) if has_angle else None
        gates.append(ci.Gate(kind, tuple(qubits), angle))
    return GateCircuit(n, tuple(gates))


def one_product_error(c: GateCircuit, d: GateCircuit) -> float:
    """The check's error on (c, d), asserted to bound every phase-aligned entry error."""
    err = phase_aligned_error(unitary_of_circuit(c, d))
    uc, ud = unitary_of_circuit(c), unitary_of_circuit(d)
    trace = np.vdot(ud, uc)
    phase = 1 if trace == 0 else trace / abs(trace)
    assert err >= np.max(np.abs(uc - phase * ud)) - 1e-15
    return err


@given(circuits())
def test_accepts_a_circuit_and_its_rewrite(c):
    for d in (c, euler_peephole(ci.lower_to_basis(c))):
        one_product_error(c, d)
        assert equiv_up_to_phase(unitary_of_circuit(c, d))


@given(circuits(), st.data())
def test_rejects_one_moved_angle(c, data):
    angled = [k for k, g in enumerate(c.gates) if g.angle is not None]
    assume(angled)
    k = data.draw(st.sampled_from(angled))
    shift = data.draw(st.floats(1e-3, 1.0)) * data.draw(st.sampled_from((-1, 1)))
    g = c.gates[k]
    moved = ci.Gate(g.kind, g.qubits, g.angle + shift)
    d = GateCircuit(c.n_qubits, c.gates[:k] + (moved,) + c.gates[k + 1 :])
    one_product_error(c, d)
    assert not equiv_up_to_phase(unitary_of_circuit(c, d))


@given(circuits(), st.data())
def test_two_matrices_and_one_product_score_alike(c, data):
    other = data.draw(circuits(c.n_qubits, c.n_qubits))
    for d in (other, euler_peephole(ci.lower_to_basis(c))):
        two = phase_aligned_error(unitary_of_circuit(c), unitary_of_circuit(d))
        assert abs(two - phase_aligned_error(unitary_of_circuit(c, d))) < 1e-9
