"""Gadget algebra: leg matrices, the GL(n,2) action, commutation and fusion.

``fusion_plan``'s one indexed pass equals the bubble walk to a fixed
point that it replaced, which stays here as the reference.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasefold.circuits import ParseError
from phasefold.gadgets import (
    GadgetCircuit,
    GadgetEntry,
    apply_action,
    commutes,
    fusion_plan,
    gadget_circuit,
    is_zero_angle,
    leg_matrices,
    serialize_gadgets,
    xgadget,
    zgadget,
)
from phasefold.gf2 import BitMatrix, BitVec, NotInvertibleError, invert, random_invertible
from phasefold.oracle import equiv_up_to_phase, unitary_of_circuit
from phasefold.transform import parse_normal_form

FIVE_GADGETS = gadget_circuit(
    3,
    [
        ("Z", 0.11, "110"),
        ("X", 0.22, "111"),
        ("X", 0.33, "110"),
        ("Z", 0.44, "100"),
        ("Z", 0.55, "110"),
    ],
)

C_EXAMPLE = BitMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]])


def test_leg_matrices_worked_example():
    lz, lx = leg_matrices(FIVE_GADGETS)
    assert lz == BitMatrix.from_rows([[1, 1, 1], [1, 0, 1], [0, 0, 0]])
    assert lx == BitMatrix.from_rows([[1, 1], [1, 1], [1, 0]])


def test_leg_matrices_empty():
    lz, lx = leg_matrices(GadgetCircuit(4, ()))
    assert (lz.rows, lz.cols) == (4, 0)
    assert (lx.rows, lx.cols) == (4, 0)


def test_leg_matrices_single_z():
    lz, lx = leg_matrices(gadget_circuit(2, [("Z", 0.5, "01")]))
    assert lz == BitMatrix.from_rows([[0], [1]])
    assert (lx.rows, lx.cols) == (2, 0)


def test_apply_action_identity():
    assert apply_action(FIVE_GADGETS, BitMatrix.identity(3)) == FIVE_GADGETS


def test_apply_action_worked_example():
    acted = apply_action(FIVE_GADGETS, C_EXAMPLE)
    lz, lx = leg_matrices(acted)
    assert lz == BitMatrix.from_rows([[0, 1, 0], [1, 0, 1], [0, 0, 0]])
    assert lx == BitMatrix.from_rows([[1, 1], [0, 0], [1, 0]])
    # order, bases, angles untouched
    assert [(e.basis, e.angle) for e in acted.entries] == [
        (e.basis, e.angle) for e in FIVE_GADGETS.entries
    ]


def test_apply_action_roundtrip_random():
    rng = np.random.default_rng(40)
    for _ in range(20):
        c = random_invertible(3, rng)
        acted = apply_action(FIVE_GADGETS, c)
        assert apply_action(acted, invert(c)) == FIVE_GADGETS


def test_apply_action_rejects_singular():
    with pytest.raises(NotInvertibleError):
        apply_action(FIVE_GADGETS, BitMatrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 1]]))


def test_commutes_examples():
    assert commutes(zgadget(0.1, "110"), xgadget(0.2, "110"))  # two shared legs
    assert not commutes(zgadget(0.1, "100"), xgadget(0.2, "110"))  # one shared leg
    assert commutes(zgadget(0.1, "101"), zgadget(0.2, "011"))  # same basis


def _commutator_norm(a: GadgetEntry, b: GadgetEntry) -> float:
    n = a.legs.n
    ua = unitary_of_circuit(GadgetCircuit(n, (a,)))
    ub = unitary_of_circuit(GadgetCircuit(n, (b,)))
    return float(np.max(np.abs(ua @ ub - ub @ ua)))


def test_commutes_agrees_with_oracle():
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        a_legs = int(rng.integers(1, 1 << n))
        b_legs = int(rng.integers(1, 1 << n))
        a = GadgetEntry("Z" if rng.integers(2) else "X", float(rng.uniform(0.3, 3)), BitVec(n, a_legs))
        b = GadgetEntry("Z" if rng.integers(2) else "X", float(rng.uniform(0.3, 3)), BitVec(n, b_legs))
        norm = _commutator_norm(a, b)
        if commutes(a, b):
            assert norm < 1e-9
        else:
            assert norm > 1e-3


def test_action_preserves_commutation():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = 4
        a = GadgetEntry("Z", 0.4, BitVec(n, int(rng.integers(1, 1 << n))))
        b = GadgetEntry("X", 0.9, BitVec(n, int(rng.integers(1, 1 << n))))
        g = GadgetCircuit(n, (a, b))
        c = random_invertible(n, rng)
        a2, b2 = apply_action(g, c).entries
        assert commutes(a, b) == commutes(a2, b2)


def _apply_plan(g: GadgetCircuit) -> GadgetCircuit:
    """``g`` with its fusion plan applied: one entry per group, carrying the summed angle."""
    entries = tuple(
        GadgetEntry(e.basis, sum(g.entries[i].angle for i in src), e.legs)
        for e, src in fusion_plan(g.entries)
    )
    return GadgetCircuit(g.n_qubits, entries)


def test_fuse_merges_equal_gadgets():
    g = gadget_circuit(3, [("Z", 0.3, "110"), ("Z", 0.4, "110")])
    assert fusion_plan(g.entries) == [(g.entries[0], [0, 1])]
    fused = _apply_plan(g)
    assert len(fused) == 1
    assert math.isclose(fused.entries[0].angle, 0.7)


def test_fuse_cancels_to_identity():
    # The group stays in the plan; its summed angle is 0 mod 2*pi, which
    # optimize skips when it synthesises the unit.
    g = gadget_circuit(3, [("Z", 0.8, "110"), ("Z", -0.8 + 2 * math.pi, "110")])
    plan = fusion_plan(g.entries)
    assert [src for _, src in plan] == [[0, 1]]
    assert is_zero_angle(_apply_plan(g).entries[0].angle)


def test_fuse_blocked_by_odd_overlap():
    g = gadget_circuit(3, [("Z", 0.3, "100"), ("X", 0.5, "110"), ("Z", 0.4, "100")])
    assert fusion_plan(g.entries) == [(e, [i]) for i, e in enumerate(g.entries)]
    assert _apply_plan(g) == g


def test_fuse_through_commuting_blocker():
    g = gadget_circuit(3, [("Z", 0.3, "110"), ("X", 0.5, "110"), ("Z", 0.4, "110")])
    assert [src for _, src in fusion_plan(g.entries)] == [[0, 2], [1]]
    fused = _apply_plan(g)
    assert len(fused) == 2
    assert equiv_up_to_phase(unitary_of_circuit(fused), unitary_of_circuit(g))


def test_fuse_idempotent_and_never_grows():
    rng = np.random.default_rng(44)
    for _ in range(30):
        n = 3
        specs = []
        for _ in range(int(rng.integers(0, 8))):
            basis = "Z" if rng.integers(2) else "X"
            specs.append((basis, float(rng.uniform(-2, 2)), BitVec(n, int(rng.integers(1, 8)))))
        g = gadget_circuit(n, specs)
        plan = fusion_plan(g.entries)
        assert sorted(i for _, src in plan for i in src) == list(range(len(g)))
        fused = _apply_plan(g)
        assert len(fused) <= len(g)
        assert [src for _, src in fusion_plan(fused.entries)] == [[i] for i in range(len(fused))]
        assert equiv_up_to_phase(unitary_of_circuit(fused), unitary_of_circuit(g))


def _bubble_plan(entries):
    """The former fusion plan: pull each entry next to an equal one, pass after pass, to a fixed point."""
    groups = [(e, [i]) for i, e in enumerate(entries)]
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(groups):
            ei, src_i = groups[i]
            j = i + 1
            while j < len(groups):
                ej, src_j = groups[j]
                if ej.basis == ei.basis and ej.legs == ei.legs:
                    src_i.extend(src_j)
                    del groups[j]
                    changed = True
                    break
                if not commutes(ej, ei):
                    break
                j += 1
            i += 1
    return groups


def test_fuse_into_the_latest_equal_group():
    # Entry 5 passes a Z gadget of odd overlap (same basis) and an X gadget
    # of even overlap into group [2]; the X gadget at 1 keeps it from [0].
    g = gadget_circuit(
        3,
        [("Z", 0.1, "110"), ("X", 0.2, "100"), ("Z", 0.3, "110"),
         ("Z", 0.4, "100"), ("X", 0.5, "110"), ("Z", 0.6, "110")],
    )
    plan = fusion_plan(g.entries)
    assert [src for _, src in plan] == [[0], [1], [2, 5], [3], [4]]
    assert plan == _bubble_plan(g.entries)
    assert equiv_up_to_phase(unitary_of_circuit(_apply_plan(g)), unitary_of_circuit(g))


def test_fuse_three_equal_entries_into_the_first():
    g = gadget_circuit(
        3,
        [("Z", 0.1, "110"), ("X", 0.2, "110"), ("Z", 0.3, "110"),
         ("Z", 0.4, "100"), ("Z", 0.5, "110")],
    )
    plan = fusion_plan(g.entries)
    assert plan == [(g.entries[0], [0, 2, 4]), (g.entries[1], [1]), (g.entries[3], [3])]
    assert plan == _bubble_plan(g.entries)


def test_fuse_rejects_mixed_qubit_counts():
    for b in (zgadget(0.2, "100"), xgadget(0.2, "100")):
        with pytest.raises(ValueError, match="different qubit counts"):
            fusion_plan([zgadget(0.1, "10"), b])


@st.composite
def pooled_units(draw):
    """Up to 40 entries on n <= 5 qubits, legs from a pool of at most 6 words: merges and blockers abound."""
    n = draw(st.integers(1, 5))
    pool = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=6))
    specs = draw(st.lists(st.tuples(st.sampled_from("ZX"), st.sampled_from(pool)), max_size=40))
    return [GadgetEntry(basis, 0.1 * k, BitVec(n, word)) for k, (basis, word) in enumerate(specs)]


@settings(max_examples=500)
@given(pooled_units())
def test_fusion_plan_is_the_bubble_plan(entries):
    # The same groups in the same order, each with the same sources in the
    # same order, so every angle sum over a plan is bit-identical.
    assert fusion_plan(entries) == _bubble_plan(entries)


def test_zero_leg_specs_dropped():
    g = gadget_circuit(2, [("Z", 0.4, "00"), ("X", 0.1, "10")])
    assert len(g) == 1
    assert g.entries[0].basis == "X"


def test_entry_validation():
    with pytest.raises(ValueError):
        GadgetEntry("Y", 0.1, BitVec.from_string("1"))
    with pytest.raises(ValueError):
        GadgetEntry("Z", float("inf"), BitVec.from_string("1"))
    with pytest.raises(ValueError):
        GadgetEntry("Z", 0.1, BitVec(2, 0))


def test_text_roundtrip():
    text = serialize_gadgets(FIVE_GADGETS)
    assert parse_normal_form(text).gadgets == FIVE_GADGETS


def test_parse_gadgets_errors():
    for text, line in (
        ("zgadget 0.5 11\n", 1),  # missing qubits
        ("qubits 2\nzgadget 0.5 111\n", 2),  # wrong width
        ("qubits 2\nzgadget abc 11\n", 2),
        ("qubits 2\nzgadget 0.5\n", 2),  # no bitstring
        ("qubits 2\nzgadget 0.5 11\ncnot 0\n", 3),  # a tail CNOT with one qubit
    ):
        with pytest.raises(ParseError, match=f"^line {line}: "):
            parse_normal_form(text)


# (constructor call, message fragment): what GadgetEntry and GadgetCircuit reject.
REJECTED = [
    (lambda: GadgetEntry("Y", 0.1, BitVec(1, 1)), "basis must be 'Z' or 'X', got 'Y'"),
    (lambda: GadgetEntry("z", 0.1, BitVec(1, 1)), "basis must be 'Z' or 'X', got 'z'"),
    (lambda: GadgetEntry("Z", float("nan"), BitVec(1, 1)), "gadget angle must be finite"),
    (lambda: GadgetEntry("X", float("inf"), BitVec(1, 1)), "gadget angle must be finite"),
    (lambda: GadgetEntry("Z", 0.1, BitVec(3, 0)), "gadgets need at least one leg"),
    (lambda: GadgetCircuit(0, ()), "gadget circuits need at least one qubit"),
    (lambda: GadgetCircuit(3, (zgadget(0.1, "11"),)), "leg vector length must match qubit count"),
    (
        lambda: GadgetCircuit(2, (zgadget(0.1, "11"), xgadget(0.2, "111"))),
        "leg vector length must match qubit count",
    ),
]


@pytest.mark.parametrize("make, fragment", REJECTED)
def test_constructor_rejections(make, fragment):
    with pytest.raises(ValueError) as err:
        make()
    assert err.type is ValueError
    assert fragment in str(err.value)
