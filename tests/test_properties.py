"""Property tests of optimize's one-product check and of its choice of C.

Circuits draw every gate kind on up to 6 qubits. The check must accept a
circuit against itself and against its lowered, peepholed rewrite, reject
it against a copy with one angle moved by at least 1e-3, and on every
pair score at least the largest phase-aligned entry error, so it is at
least as strict as an entry-wise comparison. Its error must also equal
the two-matrix error of ``verify``: both apply one rule. On up to 9
qubits, ``product_error`` reads the same error from the product, and
exactly 0 for a circuit against itself. Against a reordered tail, the
peephole's rewrite, a bent angle, a swap of two gates near the end or a
CNOT turned round, on gate and gadget circuits, ``product_error`` is
the error of the whole product. So it is where rotations merge: a
{CNOT, RZ, RX} circuit against its re-synthesised gadget normal form,
against a copy with one rotation moved back across gates it commutes
with, against a copy with an RZ/RX pair on one qubit swapped (which is
rejected), against a circuit of another net CNOT action (what is left
runs on the n qubits) and with angles up to 1e300 in size all score the
dense error. A circuit of every gate kind against its lowered circuit,
and that circuit's normal form against it, merge away entirely, with
no kernel built. On up to 8 qubits, what the merge leaves, anticommuting
Z and X strings among it, is evaluated on its logical qubits: the error
is the dense one, and the slack of the sums dropped bounds the
difference.

On {CNOT, RZ, RX} circuits, the C that optimize chooses gives an output
with no more CNOTs than the one built with C = I or with the anneal's
first candidate of lowest energy, and both of those pass the oracle;
the output passes it too and is the same on every run with the same seed. Nor does optimize return more
CNOTs than it was given, and skipping the anneal when the CNOT bound
rules out every C returns what annealing would. On {CNOT, RZ, RX, CRZ, CU1}
circuits with angles up to 1e300 in size, optimize's output passes the
oracle: lowering reduces every angle exactly. On up to 8 qubits, the
block ``pipeline._score`` gives for a random C or for I holds
``row_ops(C)``, ``apply_action``'s legs and the CNOT count that
``_synthesize`` emits between the prefix and the tail.

On {CNOT, RZ, RX} circuits, and on such a circuit followed by its
inverse, ``cancel_cnots`` never adds a CNOT, keeps the unitary within
1e-12 (one scan's deletions on any angles; the whole pass, peephole
included, on angles that add exactly), and a second application changes
nothing. The peephole's linear collapse of a rotation run, and the
peephole itself, equal the quadratic forms they replaced, which stay
here as the reference.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from phasefold import circuits as ci
from phasefold import oracle
from phasefold.circuits import GateCircuit
from phasefold.oracle import (
    VERIFY_TOL,
    equiv_up_to_phase,
    phase_aligned_error,
    product_error,
    unitary_of_circuit,
)
from phasefold import pipeline
from phasefold.annealing import AnnealParams
from phasefold.circuits import cnot_count
from phasefold.gadgets import GadgetCircuit, GadgetEntry, apply_action, is_zero_angle
from phasefold.gf2 import BitMatrix, BitVec, random_invertible, row_ops
from phasefold.circuits import euler_xzx_to_zxz
from phasefold.pipeline import _collapse_run, _fuse_rotation_run, cancel_cnots, euler_peephole, optimize
from phasefold.transform import CnotCircuit, extract, synth_gadget_circuit


@st.composite
def circuits(
    draw,
    min_qubits=1,
    max_qubits=6,
    max_gates=30,
    kinds=tuple(ci.GATE_KINDS),
    max_angle=7.0,
    min_gates=0,
):
    n = draw(st.integers(min_qubits, max_qubits))
    kinds = sorted(k for k in kinds if ci.GATE_KINDS[k][0] <= n)
    gates = []
    for _ in range(draw(st.integers(min_gates, max_gates))):
        kind = draw(st.sampled_from(kinds))
        arity, has_angle = ci.GATE_KINDS[kind]
        qubits = draw(st.lists(st.integers(0, n - 1), min_size=arity, max_size=arity, unique=True))
        angle = draw(st.floats(-max_angle, max_angle)) if has_angle else None
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
    # Equal and one-angle-bent pairs score the error of the whole product;
    # the circuit against itself is exactly 0.
    pairs = [c]
    angled = [k for k, g in enumerate(c.gates) if g.angle is not None]
    if angled:
        k = data.draw(st.sampled_from(angled))
        g = c.gates[k]
        bent = ci.Gate(g.kind, g.qubits, g.angle + data.draw(st.floats(1e-3, 1.0)))
        pairs.append(GateCircuit(c.n_qubits, c.gates[:k] + (bent,) + c.gates[k + 1 :]))
    for d in pairs:
        want = phase_aligned_error(unitary_of_circuit(c, d))
        assert abs(product_error(c, d) - want) < 1e-12
    assert product_error(c, c) == 0.0


def _support(item) -> int:
    """Qubit mask of a gate or a gadget entry."""
    return item.legs.bits if hasattr(item, "legs") else sum(1 << q for q in item.qubits)


def _reordered_tail(data, items: tuple) -> tuple:
    """``items`` with a drawn suffix re-sorted, never past an earlier item on a shared qubit."""
    k = data.draw(st.integers(0, len(items)))
    head, rest = items[: len(items) - k], list(items[len(items) - k :])
    tail = []
    while rest:
        ready = [
            i
            for i, item in enumerate(rest)
            if not any(_support(item) & _support(before) for before in rest[:i])
        ]
        tail.append(rest.pop(data.draw(st.sampled_from(ready))))
    return head + tuple(tail)


def _bent(data, items: tuple) -> tuple:
    """``items`` (gates or gadget entries) with one drawn angle moved by 1e-3."""
    angled = [k for k, item in enumerate(items) if item.angle is not None]
    if not angled:
        return items
    k = data.draw(st.sampled_from(angled))
    bent = dataclasses.replace(items[k], angle=items[k].angle + 1e-3)
    return items[:k] + (bent,) + items[k + 1 :]


@st.composite
def gadget_circuits(draw, max_qubits=6, max_entries=12):
    n = draw(st.integers(1, max_qubits))
    entries = [
        GadgetEntry(
            draw(st.sampled_from("ZX")),
            draw(st.floats(-7.0, 7.0)),
            BitVec(n, draw(st.integers(1, (1 << n) - 1))),
        )
        for _ in range(draw(st.integers(0, max_entries)))
    ]
    return GadgetCircuit(n, tuple(entries))


def assert_checked_error_is_dense(c, d) -> None:
    """product_error, either way round, is the dense error of the whole product."""
    for a, b in ((c, d), (d, c)):
        want = phase_aligned_error(unitary_of_circuit(a, b))
        assert abs(product_error(a, b) - want) < 1e-12


@given(circuits(), st.sampled_from(("reorder", "peephole", "bend", "swap", "flip")), st.data())
def test_cancelled_gate_product_is_the_dense_error(c, how, data):
    # A reordered tail, the peephole's rewrite, a bent angle, two
    # neighbouring gates swapped whether or not they commute, and one
    # gate's qubits reversed must all score what the whole product scores:
    # merged, and what is left evaluated on its logical qubits where the
    # net CNOT actions agree, or on the n qubits where they do not.
    gates = c.gates
    if how == "reorder":
        gates = _reordered_tail(data, gates)
    elif how == "peephole":
        gates = euler_peephole(ci.lower_to_basis(c)).gates
    elif how == "bend":
        gates = _bent(data, gates)
    elif len(gates) > 1 and how == "swap":
        k = data.draw(st.integers(max(1, len(gates) - 3), len(gates) - 1))  # near the end
        gates = gates[: k - 1] + (gates[k], gates[k - 1]) + gates[k + 1 :]
    elif how == "flip" and any(len(g.qubits) == 2 for g in gates):
        k = data.draw(st.sampled_from([k for k, g in enumerate(gates) if len(g.qubits) == 2]))
        g = gates[k]
        gates = gates[:k] + (ci.Gate(g.kind, g.qubits[::-1], g.angle),) + gates[k + 1 :]
    assert_checked_error_is_dense(c, GateCircuit(c.n_qubits, gates))


@given(gadget_circuits(), st.sampled_from(("reorder", "bend", "synth")), st.data())
def test_cancelled_gadget_product_is_the_dense_error(g, how, data):
    # As above on gadget circuits, each gadget one rotation about the Z or
    # X string of its legs, and a gadget circuit against its own synthesis.
    if how == "reorder":
        d = GadgetCircuit(g.n_qubits, _reordered_tail(data, g.entries))
    elif how == "bend":
        d = GadgetCircuit(g.n_qubits, _bent(data, g.entries))
    else:
        d = synth_gadget_circuit(g, data.draw(st.sampled_from(("ladder", "tree"))))
    assert_checked_error_is_dense(g, d)


BASIS = ("cnot", "rz", "rx")


def same_action(c, d) -> bool:
    """True when c and d have one net CNOT action, so the check runs on logical qubits."""
    return oracle._merged_steps(*oracle._operands(c, d))[3] is None


@given(circuits())
def test_every_kind_merges_away_against_its_lowering(c):
    # Every gate kind is written as the Z and X rotations lowering emits,
    # with the same angles reduced the same way, so a circuit against its
    # lowered circuit, and that circuit's normal form against the
    # circuit, merge to nothing but drops into the slack: no kernel.
    lowered = ci.lower_to_basis(c)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(oracle, "_Pending", None)  # building a kernel would raise
        assert product_error(c, lowered) < 1e-12
        assert product_error(extract(lowered), c) < 1e-12


@given(circuits(kinds=BASIS), st.sampled_from(("ladder", "tree")))
def test_merged_normal_form_resynthesis_is_the_dense_error(c, shape):
    # The circuit against its gadget normal form, re-synthesised: one net
    # CNOT action, and the gadgets' rotations are the circuit's own in the
    # input frame, in another order and with other CNOTs around them.
    nf = extract(c)
    gates = synth_gadget_circuit(nf.gadgets, shape).gates + nf.tail.to_gates().gates
    d = GateCircuit(c.n_qubits, gates)
    assert same_action(c, d)
    assert_checked_error_is_dense(c, d)
    assert product_error(c, d) < VERIFY_TOL


def _commutes(rotation: ci.Gate, gate: ci.Gate) -> bool:
    """An RZ or RX commutes with ``gate``: disjoint, a rotation of its own kind,
    or a CNOT with the rotation's qubit as control (RZ) or as target (RX)."""
    q = rotation.qubits[0]
    if q not in gate.qubits:
        return True
    if gate.kind == "cnot":
        return gate.qubits[0 if rotation.kind == "rz" else 1] == q
    return gate.kind == rotation.kind


@given(circuits(kinds=BASIS, min_gates=4), st.data())
def test_merged_moved_rotation_is_the_dense_error(c, data):
    # One rotation moved back across gates it commutes with, leaving gates
    # before and after it, so only the merge can move it back.
    gates = c.gates
    movable = [
        k
        for k in range(2, len(gates) - 1)
        if gates[k].angle is not None and _commutes(gates[k], gates[k - 1])
    ]
    assume(movable)
    k = data.draw(st.sampled_from(movable))
    first = k - 1
    while first > 1 and _commutes(gates[k], gates[first - 1]):
        first -= 1
    to = data.draw(st.integers(first, k - 1))
    d = GateCircuit(c.n_qubits, gates[:to] + (gates[k],) + gates[to:k] + gates[k + 1 :])
    assert same_action(c, d)
    assert_checked_error_is_dense(c, d)
    assert product_error(c, d) < VERIFY_TOL


@given(st.integers(1, 5), st.floats(0.1, 3.0), st.floats(0.1, 3.0), st.data())
def test_merged_anticommuting_swap_is_the_dense_error(n, a, b, data):
    # RZ and RX on one qubit, next to each other: their strings overlap in
    # one qubit, so they do not commute, and swapping them is caught.
    before = data.draw(circuits(n, n, max_gates=12, kinds=BASIS)).gates
    after = data.draw(circuits(n, n, max_gates=12, kinds=BASIS)).gates
    q = data.draw(st.integers(0, n - 1))
    pair = (ci.rz(a, q), ci.rx(b, q))
    c = GateCircuit(n, before + pair + after)
    d = GateCircuit(n, before + pair[::-1] + after)
    assert same_action(c, d)
    assert_checked_error_is_dense(c, d)
    assert product_error(c, d) > VERIFY_TOL


@given(circuits(min_qubits=2, kinds=BASIS), st.data())
def test_unequal_cnot_actions_are_the_dense_error(c, data):
    # One CNOT more anywhere changes the net CNOT action: what the merge
    # leaves runs on the n qubits, followed by the permutation.
    n = c.n_qubits
    pair = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    k = data.draw(st.integers(0, len(c.gates)))
    d = GateCircuit(n, c.gates[:k] + (ci.cnot(*pair),) + c.gates[k:])
    assert not same_action(c, d)
    assert_checked_error_is_dense(c, d)


_TURN = st.floats(0.1, 3.1) | st.floats(-3.1, -0.1)


@given(
    circuits(max_qubits=8, kinds=BASIS, max_angle=3.1),
    st.lists(st.tuples(_TURN, _TURN, _TURN), min_size=1, max_size=2),
    st.sampled_from((0.0, 1e-6, 1e-3)),
    st.data(),
)
def test_logical_error_is_the_dense_error(c, triples, bend, data):
    # One or two RX, RZ, RX triples spliced into c, each on one qubit, and the
    # same rotations written as RZ, RX, RZ (Euler) in d: in the input frame
    # these are Z and X strings that anticommute and never merge, so the
    # remainder holds anticommuting pairs, and the CNOTs around two let one
    # string meet both. d's other gates are peepholed piece by piece,
    # which wraps fused sums past pi and leaves float(2pi) residues that
    # drop into the slack, and one of d's angles may be bent. The check
    # runs on the logical qubits alone; it is never below the dense error,
    # and above it by at most twice the slack (the slack it adds and the
    # error the drops may hide).
    n = c.n_qubits
    cuts = [0, *sorted(data.draw(st.integers(0, len(c.gates))) for _ in triples), len(c.gates)]
    pieces = [c.gates[i:j] for i, j in zip(cuts, cuts[1:])]
    ours, theirs = pieces[0], euler_peephole(GateCircuit(n, pieces[0])).gates
    for (a1, a2, a3), piece in zip(triples, pieces[1:]):
        q = data.draw(st.integers(0, n - 1))
        b1, b2, b3 = ci.euler_xzx_to_zxz(a1, a2, a3)
        ours += (ci.rx(a1, q), ci.rz(a2, q), ci.rx(a3, q)) + piece
        theirs += (ci.rz(b1, q), ci.rx(b2, q), ci.rz(b3, q))
        theirs += euler_peephole(GateCircuit(n, piece)).gates
    if bend:
        i = data.draw(st.sampled_from([i for i, g in enumerate(theirs) if g.angle is not None]))
        g = theirs[i]
        theirs = theirs[:i] + (ci.Gate(g.kind, g.qubits, g.angle + bend),) + theirs[i + 1 :]
    c, d = GateCircuit(n, ours), GateCircuit(n, theirs)
    _, rotations, slack, action = oracle._merged_steps(*oracle._operands(c, d))
    assert action is None
    assert any(x for x, _, _ in rotations) and any(z for _, z, _ in rotations)
    want = phase_aligned_error(unitary_of_circuit(c, d))
    got = product_error(c, d)
    assert want - 1e-12 <= got <= want + 2 * slack + 1e-12
    assert (got < VERIFY_TOL) == (bend == 0.0)


@given(circuits(kinds=BASIS, max_angle=1e300), st.sampled_from(("peephole", "moved")), st.data())
def test_merged_huge_angles_are_the_dense_error(c, how, data):
    # Angles up to 1e300 against the peephole's rewrite, whose angles
    # lowering reduced exactly, or against a copy with its last rotation
    # moved to the front where that commutes: the merge reduces each angle
    # exactly too, so the sums match the dense product's.
    if how == "peephole":
        d = euler_peephole(ci.lower_to_basis(c))
    else:
        angled = [k for k, g in enumerate(c.gates) if g.angle is not None]
        k = angled[-1] if angled else 0
        if angled and all(_commutes(c.gates[k], g) for g in c.gates[:k]):
            d = GateCircuit(c.n_qubits, (c.gates[k],) + c.gates[:k] + c.gates[k + 1 :])
        else:
            d = c
    assert same_action(c, d)
    assert_checked_error_is_dense(c, d)
    assert product_error(c, d) < VERIFY_TOL


@given(
    circuits(max_qubits=4, kinds=("cnot", "rz", "rx", "crz", "cu1"), max_angle=1e300),
    st.integers(0, 2**32 - 1),
)
def test_optimize_verifies_every_finite_angle(c, seed):
    # Lowering reduces each angle exactly: a CRZ angle only after lowering,
    # as CRZ(t + 2*pi) differs from CRZ(t) by Z on the control.
    out, report = optimize(c, AnnealParams(iterations=60, attempts=3, seed=seed))
    assert report.verified == "yes"


@given(circuits(kinds=("cnot", "rz", "rx")), st.integers(0, 2**32 - 1))
def test_chosen_c_costs_no_more_than_identity_or_best_c(c, seed):
    p = AnnealParams(iterations=60, attempts=3, seed=seed)
    out, report = optimize(c, p)  # raises VerificationError on an oracle failure
    assert report.verified == "yes"
    assert cnot_count(out) <= cnot_count(c)
    assert optimize(c, p)[0] == out
    identity = BitMatrix.identity(c.n_qubits)

    def lowest(r):
        if not r.candidates:
            return identity
        return r.candidates[r.per_attempt_energies.index(min(r.per_attempt_energies))]

    # With the CNOT bound disabled, every call anneals and synthesises the
    # optimized side: with optimize's own choice the output is unchanged, so
    # the skip is exact, and the bound is no more than that side's CNOTs.
    # Each forced C's side passes the oracle and costs no less than the output.
    floor, synthesize = pipeline._cnot_floor, pipeline._synthesize
    for pick in (None, lambda r: identity, lowest):
        sides = []

        def synthesize_and_keep(parts, block, shape):
            sides.append((floor(parts), synthesize(parts, block, shape)))
            return sides[-1][1]

        with pytest.MonkeyPatch.context() as m:
            m.setattr(pipeline, "_cnot_floor", lambda parts: 0)
            m.setattr(pipeline, "_synthesize", synthesize_and_keep)
            if pick is not None:
                m.setattr(
                    pipeline, "_choose",
                    lambda r, parts, pick=pick: pipeline._score(pick(r), 0, parts.legs),
                )
            forced, forced_report = optimize(c, p)
        [(bound, side)] = sides
        assert bound <= cnot_count(side)
        if pick is None:
            assert (forced, forced_report.output) == (out, report.output)
            # The output is the side the comparison returns, its CNOT pairs
            # cancelled, and cancelling it again changes nothing.
            returned = {"optimized": side, "input": euler_peephole(ci.lower_to_basis(c))}
            assert out == pipeline.cancel_cnots(returned[report.output])
            assert pipeline.cancel_cnots(out) == out
        else:
            assert product_error(c, side) < VERIFY_TOL
            assert cnot_count(out) <= cnot_count(side)


@given(
    st.data(), st.one_of(st.none(), st.integers(0, 2**32 - 1)), st.sampled_from(("tree", "ladder"))
)
def test_scored_block_is_what_synthesis_emits(data, seed, shape):
    # One elimination of C gives row_ops(C), apply_action's legs for the
    # live entries, and the CNOTs _synthesize emits between an empty prefix
    # and an empty tail; C = I (seed None) is scored as the identity is.
    n = data.draw(st.integers(1, 8))
    spec = st.tuples(st.sampled_from("ZX"), st.integers(1, 2**n - 1))
    specs = data.draw(st.lists(spec, max_size=8))
    angle = st.sampled_from((0.0, 0.4, -2.5, 2 * np.pi))
    row = st.lists(angle, min_size=len(specs), max_size=len(specs))
    angles = data.draw(st.lists(row, min_size=1, max_size=3))
    entries = tuple(GadgetEntry(b, 0.0, BitVec(n, w)) for b, w in specs)
    legs = tuple(
        (k, b, w, live)
        for k, (b, w) in enumerate(specs)
        if (live := sum(not is_zero_angle(a[k]) for a in angles))
    )
    c = BitMatrix.identity(n) if seed is None else random_invertible(n, seed)
    block = pipeline._score(c, 7, legs)
    assert block.c == c and block.energy == 7
    assert block.ops == row_ops(c)
    live = GadgetCircuit(n, tuple(entries[k] for k, *_ in legs))
    assert block.words == [e.legs.bits for e in apply_action(live, c).entries]
    parts = pipeline._Parts(
        prefix=(), unit=GadgetCircuit(n, entries), angles=angles, tail=CnotCircuit(n, ()),
        layers=len(angles), raw_unit_energy=0, legs=legs,
        identity=pipeline._score(BitMatrix.identity(n), 0, legs),
    )
    assert cnot_count(pipeline._synthesize(parts, block, shape)) == block.cnots


def _inverse(c: GateCircuit) -> GateCircuit:
    """The gates of ``c`` reversed, each rotation's angle negated."""
    return GateCircuit(c.n_qubits, tuple(
        g if g.angle is None else ci.Gate(g.kind, g.qubits, -g.angle) for g in reversed(c.gates)
    ))


def _on_grid(c: GateCircuit) -> GateCircuit:
    """``c`` with every angle rounded to a multiple of 1/64."""
    return GateCircuit(c.n_qubits, tuple(
        g if g.angle is None else ci.Gate(g.kind, g.qubits, round(g.angle * 64) / 64)
        for g in c.gates
    ))


@given(circuits(kinds=("cnot", "rz", "rx"), max_gates=40), st.booleans())
def test_cancel_cnots_keeps_the_unitary_and_is_idempotent(c, then_inverse):
    # Deleting CNOT pairs is exact. The peephole it re-runs drops a fused
    # sum within ZERO_ANGLE_TOL (1e-12) of zero, which alone can cost
    # 1e-12 * 2^(n/2) / 2; angles on a grid of 1/64 add exactly, so a sum
    # of the input's angles is 0 or far from it, and the whole pass is
    # held to 1e-12. Followed by its inverse, a circuit meets itself
    # mirrored: pairs cancel, the rotations between fuse, and more meet.
    assert product_error(c, GateCircuit(c.n_qubits, tuple(pipeline._cancel_round(c)))) < 1e-12
    c = _on_grid(c)
    if then_inverse:
        c = GateCircuit(c.n_qubits, c.gates + _inverse(c).gates)
    out = cancel_cnots(c)
    assert cnot_count(out) <= cnot_count(c)
    assert product_error(c, out) < 1e-12
    assert cancel_cnots(out) == out


def _quadratic_collapse(run: list[tuple[str, float]]) -> list[tuple[str, float]]:
    """The peephole's former collapse: re-fuse the whole rest after each Euler rewrite."""
    run = _fuse_rotation_run(run)
    while len(run) > 3:
        (b0, a1), (_, a2), (_, a3) = run[0], run[1], run[2]
        b1, b2, b3 = euler_xzx_to_zxz(a1, a2, a3)
        other = "rx" if b0 == "rz" else "rz"
        run = _fuse_rotation_run([(other, b1), (b0, b2), (other, b3)] + run[3:])
    return run


# Angles the peephole sees are wrapped to (-pi, pi]; a zero, a pair that
# sums to zero and a residue below the zero tolerance make fused sums drop.
RUN_ANGLES = st.one_of(
    st.sampled_from((0.0, np.pi, -np.pi / 2, 0.5, -0.5, 1e-13)),
    st.floats(-np.pi, np.pi, exclude_min=True),
)


@given(st.lists(st.tuples(st.sampled_from(("rz", "rx")), RUN_ANGLES), max_size=40))
def test_linear_collapse_is_the_quadratic_collapse(run):
    assert _collapse_run(run) == _quadratic_collapse(run)


def _reference_peephole(c: GateCircuit) -> GateCircuit:
    """The peephole's former form: every run wrapped, collapsed quadratically and rebuilt."""
    pending = [[] for _ in range(c.n_qubits)]
    gates = []

    def flush(q):
        for kind, angle in _quadratic_collapse(pending[q]):
            gates.append(ci.rz(angle, q) if kind == "rz" else ci.rx(angle, q))
        pending[q] = []

    for g in c.gates:
        if g.kind == "cnot":
            flush(g.qubits[0])
            flush(g.qubits[1])
            gates.append(g)
        else:
            pending[g.qubits[0]].append((g.kind, ci.wrap_angle(g.angle)))
    for q in range(c.n_qubits):
        flush(q)
    return GateCircuit(c.n_qubits, tuple(gates))


@given(circuits(kinds=("cnot", "rz", "rx"), max_gates=40), st.booleans())
def test_peephole_is_the_reference_peephole(c, twice):
    # Runs that need nothing keep their given gates; the result is the same.
    if twice:
        c = _reference_peephole(c)
    assert euler_peephole(c) == _reference_peephole(c)
