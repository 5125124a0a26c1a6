"""Gadget algebra: leg matrices, the GL(n,2) action, commutation and fusion."""

import math

import numpy as np
import pytest

from phasefold.gadgets import (
    GadgetCircuit,
    GadgetEntry,
    apply_action,
    commutes,
    fuse_adjacent,
    gadget_circuit,
    leg_matrices,
    basis_sequence,
    from_leg_matrices,
    parse_gadgets,
    serialize_gadgets,
    xgadget,
    zgadget,
)
from phasefold.gf2 import BitMatrix, BitVec, NotInvertibleError, invert, random_invertible
from phasefold.oracle import equiv_up_to_phase, phase_aligned_max_error, unitary_of_gadgets

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


def test_from_leg_matrices_roundtrip():
    lz, lx = leg_matrices(FIVE_GADGETS)
    rebuilt = from_leg_matrices(lz, lx, basis_sequence(FIVE_GADGETS))
    assert rebuilt == FIVE_GADGETS


def test_apply_action_identity():
    assert apply_action(FIVE_GADGETS, BitMatrix.identity(3)) == FIVE_GADGETS


def test_apply_action_worked_example():
    acted = apply_action(FIVE_GADGETS, C_EXAMPLE)
    lz, lx = leg_matrices(acted)
    assert lz == BitMatrix.from_rows([[0, 1, 0], [1, 0, 1], [0, 0, 0]])
    assert lx == BitMatrix.from_rows([[1, 1], [0, 0], [1, 0]])
    # order, bases, angles untouched
    assert basis_sequence(acted) == basis_sequence(FIVE_GADGETS)


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
    ua = unitary_of_gadgets(GadgetCircuit(n, (a,)))
    ub = unitary_of_gadgets(GadgetCircuit(n, (b,)))
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


def test_fuse_merges_equal_gadgets():
    g = gadget_circuit(3, [("Z", 0.3, "110"), ("Z", 0.4, "110")])
    fused = fuse_adjacent(g)
    assert len(fused) == 1
    assert math.isclose(fused.entries[0].angle, 0.7)


def test_fuse_cancels_to_identity():
    g = gadget_circuit(3, [("Z", 0.8, "110"), ("Z", -0.8, "110")])
    assert len(fuse_adjacent(g)) == 0


def test_fuse_blocked_by_odd_overlap():
    g = gadget_circuit(3, [("Z", 0.3, "100"), ("X", 0.5, "110"), ("Z", 0.4, "100")])
    fused = fuse_adjacent(g)
    assert fused == g
    assert phase_aligned_max_error(unitary_of_gadgets(fused), unitary_of_gadgets(g)) < 1e-12


def test_fuse_through_commuting_blocker():
    g = gadget_circuit(3, [("Z", 0.3, "110"), ("X", 0.5, "110"), ("Z", 0.4, "110")])
    fused = fuse_adjacent(g)
    assert len(fused) == 2
    assert equiv_up_to_phase(unitary_of_gadgets(fused), unitary_of_gadgets(g))


def test_fuse_unblocks_after_cancellation():
    # The middle X pair cancels, then the outer Z pair can meet and fuse.
    g = gadget_circuit(
        2,
        [("Z", 0.2, "10"), ("X", 0.7, "11"), ("X", -0.7, "11"), ("Z", 0.3, "10")],
    )
    fused = fuse_adjacent(g)
    assert len(fused) == 1
    assert math.isclose(fused.entries[0].angle, 0.5)


def test_fuse_idempotent_and_never_grows():
    rng = np.random.default_rng(44)
    for _ in range(30):
        n = 3
        specs = []
        for _ in range(int(rng.integers(0, 8))):
            basis = "Z" if rng.integers(2) else "X"
            specs.append((basis, float(rng.uniform(-2, 2)), BitVec(n, int(rng.integers(1, 8)))))
        g = gadget_circuit(n, specs)
        fused = fuse_adjacent(g)
        assert len(fused) <= len(g)
        assert fuse_adjacent(fused) == fused
        if n <= 4:
            assert equiv_up_to_phase(unitary_of_gadgets(fused), unitary_of_gadgets(g))


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
    assert parse_gadgets(text) == FIVE_GADGETS


def test_parse_gadgets_errors():
    with pytest.raises(Exception):
        parse_gadgets("zgadget 0.5 11\n")  # missing qubits
    with pytest.raises(Exception):
        parse_gadgets("qubits 2\nzgadget 0.5 111\n")  # wrong width
    with pytest.raises(Exception):
        parse_gadgets("qubits 2\nzgadget abc 11\n")


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
