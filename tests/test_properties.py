"""Property tests of optimize's one-product check and of its choice of C.

Circuits draw every gate kind on up to 6 qubits. The check must accept a
circuit against itself and against its lowered, peepholed rewrite, reject
it against a copy with one angle moved by at least 1e-3, and on every
pair score at least the largest phase-aligned entry error, so it is at
least as strict as an entry-wise comparison. Its error must also equal
the two-matrix error of ``verify``: both apply one rule. On up to 9
qubits, ``product_error`` reads the same error from the product on every
kernel, whether or not a group is ever applied.

On {CNOT, RZ, RX} circuits, the C that optimize chooses gives an output
with no more CNOTs than the one built with C = I or with the anneal's
lowest-energy ``best_c``; the output passes the oracle and is the same
on every run with the same seed.
"""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from phasefold import circuits as ci
from phasefold import oracle
from phasefold.circuits import GateCircuit
from phasefold.oracle import (
    equiv_up_to_phase,
    phase_aligned_error,
    product_error,
    unitary_of_circuit,
)
from phasefold import pipeline
from phasefold.annealing import AnnealParams
from phasefold.circuits import cnot_count
from phasefold.gf2 import BitMatrix
from phasefold.pipeline import euler_peephole, optimize


@st.composite
def circuits(draw, min_qubits=1, max_qubits=6, max_gates=30, kinds=tuple(ci.GATE_KINDS)):
    n = draw(st.integers(min_qubits, max_qubits))
    kinds = sorted(k for k in kinds if ci.GATE_KINDS[k][0] <= n)
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


MIXED_KINDS = ("cnot", "rz", "rx", "ry", "h", "crx", "cz")


@given(circuits(max_qubits=9, max_gates=24, kinds=MIXED_KINDS), st.data())
def test_product_error_is_the_dense_error(c, data):
    # Equal and one-angle-bent pairs; groups capped at 1, 2 and the default
    # number of directions, so that products stay open or get applied.
    pairs = [c]
    angled = [k for k, g in enumerate(c.gates) if g.angle is not None]
    if angled:
        k = data.draw(st.sampled_from(angled))
        g = c.gates[k]
        bent = ci.Gate(g.kind, g.qubits, g.angle + data.draw(st.floats(1e-3, 1.0)))
        pairs.append(GateCircuit(c.n_qubits, c.gates[:k] + (bent,) + c.gates[k + 1 :]))
    for d in pairs:
        want = phase_aligned_error(unitary_of_circuit(c, d))
        for directions in (1, 2, oracle.GROUP_DIRECTIONS):
            with pytest.MonkeyPatch.context() as m:
                m.setattr(oracle, "GROUP_MIN_QUBITS", 1)
                m.setattr(oracle, "GROUP_DIRECTIONS", directions)
                assert abs(product_error(c, d) - want) < 1e-12, directions


@given(circuits(kinds=("cnot", "rz", "rx")), st.integers(0, 2**32 - 1))
def test_chosen_c_costs_no_more_than_identity_or_best_c(c, seed):
    p = AnnealParams(iterations=60, attempts=3, seed=seed)
    out, report = optimize(c, p)  # raises VerificationError on an oracle failure
    assert report.verified == "yes"
    assert optimize(c, p)[0] == out
    identity = BitMatrix.identity(c.n_qubits)
    for pick in (lambda r: identity, lambda r: r.best_c):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(pipeline, "_choose", lambda r, unit, angles, pick=pick: (pick(r), 0))
            forced, _ = optimize(c, p)
        assert cnot_count(out) <= cnot_count(forced)
