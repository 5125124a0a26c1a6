"""Homomorphisms, extraction, layer detection and synthesis round trips."""

import functools
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phasefold import circuits as ci
from phasefold.circuits import GateCircuit, ParseError, cnot_depth
from phasefold.gadgets import GadgetCircuit, GadgetEntry, gadget_circuit, zgadget
from phasefold.gf2 import (
    BitMatrix,
    BitVec,
    NotInvertibleError,
    inverse_transpose,
    invert,
    mat_mul,
    random_invertible,
    rank,
)
from phasefold.oracle import VERIFY_TOL, equiv_up_to_phase, product_error, unitary_of_circuit
from phasefold.transform import (
    CnotCircuit,
    LayerInfo,
    NormalForm,
    detect_layers,
    extract,
    h_x,
    h_z,
    parse_normal_form,
    serialize_normal_form,
    synth_cnot,
    synth_gadget,
    synth_gadget_circuit,
)


def test_hz_hx_empty():
    c = CnotCircuit(3, ())
    assert h_z(c) == BitMatrix.identity(3)
    assert h_x(c) == BitMatrix.identity(3)


def test_hz_hx_single_cnot():
    c = CnotCircuit(2, ((0, 1),))
    assert h_z(c) == BitMatrix.from_rows([[1, 1], [0, 1]])
    assert h_x(c) == BitMatrix.from_rows([[1, 0], [1, 1]])


def test_hz_three_cnot_ladder_printed_matrix():
    # Rising ladder with a wrap gate; matches the printed 3x3 action.
    c = CnotCircuit(3, ((2, 0), (1, 2), (0, 1)))
    assert h_z(c) == BitMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 1, 1]])


def test_hz_is_homomorphism():
    rng = np.random.default_rng(61)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        pairs = []
        for _ in range(int(rng.integers(0, 12))):
            a, b = rng.permutation(n)[:2]
            pairs.append((int(a), int(b)))
        cut = int(rng.integers(0, len(pairs) + 1))
        left, right = CnotCircuit(n, tuple(pairs[:cut])), CnotCircuit(n, tuple(pairs[cut:]))
        whole = CnotCircuit(n, tuple(pairs))
        from phasefold.gf2 import mat_mul

        assert h_z(whole) == mat_mul(h_z(left), h_z(right))
        assert h_x(whole) == mat_mul(h_x(left), h_x(right))


def test_theorem_inverse_transpose_property():
    rng = np.random.default_rng(62)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        pairs = []
        for _ in range(int(rng.integers(0, 31))):
            a, b = rng.permutation(n)[:2]
            pairs.append((int(a), int(b)))
        c = CnotCircuit(n, tuple(pairs))
        assert h_x(c) == inverse_transpose(h_z(c))


def test_extract_no_cnots():
    c = GateCircuit(2, (ci.rz(0.4, 0), ci.rx(0.9, 1)))
    nf = extract(c)
    assert nf.tail.cnots == ()
    assert nf.gadgets.entries == (
        GadgetEntry("Z", 0.4, BitVec.basis(2, 0)),
        GadgetEntry("X", 0.9, BitVec.basis(2, 1)),
    )


def test_extract_single_cnot_conjugation():
    c = GateCircuit(2, (ci.cnot(0, 1), ci.rz(0.7, 1)))
    nf = extract(c)
    assert nf.gadgets.entries == (GadgetEntry("Z", 0.7, BitVec.from_string("11")),)
    assert nf.tail.cnots == ((0, 1),)
    gates = synth_gadget_circuit(nf.gadgets, "tree").gates + nf.tail.to_gates().gates
    rebuilt = GateCircuit(2, gates)
    assert equiv_up_to_phase(unitary_of_circuit(c), unitary_of_circuit(rebuilt))


def test_extract_staircase_legs_match_printed_powers():
    # k staircase layers, each followed by an RZ wall: the wall after the
    # j-th layer carries legs from the columns of A^j, and A^4 = I.
    layer = [(q, q + 1) for q in range(2, -1, -1)]
    gates = []
    for _ in range(4):
        gates.extend(ci.cnot(a, b) for a, b in layer)
        gates.extend(ci.rz(0.1 * (q + 1), q) for q in range(4))
    nf = extract(GateCircuit(4, tuple(gates)))
    a1 = BitMatrix.from_rows([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
    for j in range(1, 5):
        power = functools.reduce(mat_mul, [a1] * j)
        for q in range(4):
            assert nf.gadgets.entries[(j - 1) * 4 + q].legs == power.col(q)
    assert functools.reduce(mat_mul, [a1] * 4) == BitMatrix.identity(4)


def test_extract_rejects_unsupported():
    with pytest.raises(ValueError):
        extract(GateCircuit(2, (ci.h(0),)))


def random_basis_circuit(rng, n, max_gates):
    gates = []
    for _ in range(int(rng.integers(1, max_gates + 1))):
        kind = int(rng.integers(3))
        if kind == 0 and n > 1:
            a, b = rng.permutation(n)[:2]
            gates.append(ci.cnot(int(a), int(b)))
        elif kind == 1:
            gates.append(ci.rz(float(rng.uniform(-math.pi, math.pi)), int(rng.integers(n))))
        else:
            gates.append(ci.rx(float(rng.uniform(-math.pi, math.pi)), int(rng.integers(n))))
    return GateCircuit(n, tuple(gates))


def test_extract_soundness_random():
    rng = np.random.default_rng(63)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        c = random_basis_circuit(rng, n, 40)
        nf = extract(c)
        u = unitary_of_circuit(c)
        v = unitary_of_circuit(nf.tail.to_gates()) @ unitary_of_circuit(nf.gadgets)
        assert equiv_up_to_phase(u, v)


def _brute_layer_info(tokens):
    """Smallest weak period by direct scan, decomposed like detect_layers."""
    d = len(tokens)
    if d == 0:
        return LayerInfo(0, 1, 0)
    for p in range(1, d + 1):
        if all(tokens[i] == tokens[i + p] for i in range(d - p)):
            offset = d % p
            repeats = (d - offset) // p
            if repeats >= 2:
                return LayerInfo(p, repeats, offset)
            return LayerInfo(d, 1, 0)
    raise AssertionError("unreachable")


def _tokens(g):
    return [(e.basis, e.legs) for e in g.entries]


def test_detect_layers_examples():
    g = gadget_circuit(
        3,
        [("Z", 0.1, "110"), ("X", 0.2, "011"), ("Z", 0.3, "110"), ("X", 0.4, "011")],
    )
    assert detect_layers(g) == LayerInfo(2, 2, 0)

    single = gadget_circuit(3, [("Z", 0.5, "100")])
    assert detect_layers(single) == LayerInfo(1, 1, 0)

    no_period = gadget_circuit(
        3, [("Z", 0.1, "100"), ("Z", 0.2, "110"), ("Z", 0.3, "110")]
    )
    assert detect_layers(no_period) == LayerInfo(3, 1, 0)


def test_detect_layers_partial_leading_layer():
    # A B A B A -> one leading entry, then (A B) twice... reading the
    # decomposition as prefix + unit^k with the unit repeating to the end.
    g = gadget_circuit(
        2,
        [("Z", 1, "10"), ("X", 2, "01"), ("Z", 3, "10"), ("X", 4, "01"), ("Z", 5, "10")],
    )
    info = detect_layers(g)
    assert info == LayerInfo(2, 2, 1)


def test_detect_layers_angle_free_vs_exact():
    # Angles are free, legs and basis must match exactly.
    g = gadget_circuit(2, [("Z", 0.1, "11"), ("Z", 0.2, "11")])
    assert detect_layers(g) == LayerInfo(1, 2, 0)
    g = gadget_circuit(2, [("Z", 0.1, "11"), ("Z", 0.1, "10")])
    assert detect_layers(g) == LayerInfo(2, 1, 0)


def test_detect_layers_against_brute_force():
    rng = np.random.default_rng(64)
    for _ in range(300):
        n = 2
        d = int(rng.integers(0, 12))
        specs = []
        for _ in range(d):
            basis = "Z" if rng.integers(2) else "X"
            specs.append((basis, 1.0, BitVec(n, int(rng.integers(1, 4)))))
        g = gadget_circuit(n, specs)
        assert detect_layers(g) == _brute_layer_info(_tokens(g))


def test_synth_cnot_identity_is_empty():
    assert synth_cnot(BitMatrix.identity(4)).cnots == ()


def test_synth_cnot_single():
    m = BitMatrix.from_rows([[1, 1], [0, 1]])
    circ = synth_cnot(m)
    assert h_z(circ) == m
    assert len(circ.cnots) == 1


def test_synth_cnot_figure_matrix():
    m = BitMatrix.from_rows([[0, 1, 0], [1, 0, 1], [0, 1, 1]])
    circ = synth_cnot(m)
    assert h_z(circ) == m


def test_synth_cnot_rejects_singular():
    with pytest.raises(NotInvertibleError):
        synth_cnot(BitMatrix.from_rows([[1, 1], [1, 1]]))


def test_synth_cnot_roundtrip_and_bound():
    rng = np.random.default_rng(65)
    for _ in range(1000):
        n = int(rng.integers(1, 17))
        m = random_invertible(n, rng)
        circ = synth_cnot(m)
        assert h_z(circ) == m
        assert len(circ.cnots) <= n * n


@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_synth_cnot_reversed_has_the_inverse_action(n, seed):
    # Every CNOT is its own inverse, so one elimination of C gives both of
    # optimize's blocks: C's CNOTs reversed act as C^-1.
    m = random_invertible(n, seed)
    reversed_block = CnotCircuit(n, synth_cnot(m).cnots[::-1])
    assert h_z(reversed_block) == invert(m)


def _gl3_matrices():
    """All 168 matrices of GL(3,2), in itertools.product order of their bits."""
    for bits in itertools.product((0, 1), repeat=9):
        m = BitMatrix.from_rows([bits[0:3], bits[3:6], bits[6:9]])
        if rank(m) == 3:
            yield m


def _seeded_invertibles(n, seed, count=50):
    rng = np.random.default_rng(seed)
    return [random_invertible(n, rng) for _ in range(count)]


# sha256 prefix of the exact CNOT lists, one line per matrix: a change of
# pivot rule or op order in the elimination shows here.
SYNTH_CNOT_PINS = {
    "gl3": "e45ebae00aa47165",
    "n8": "24e7113e7950dee3",
    "n12": "79bf3e8842e7a624",
}


@pytest.mark.parametrize(
    "group, matrices",
    [
        ("gl3", lambda: list(_gl3_matrices())),
        ("n8", lambda: _seeded_invertibles(8, 808)),
        ("n12", lambda: _seeded_invertibles(12, 1212)),
    ],
)
def test_synth_cnot_exact_lists_pinned(group, matrices):
    ms = matrices()
    assert len(ms) == (168 if group == "gl3" else 50)
    lines = []
    for m in ms:
        circ = synth_cnot(m)
        assert h_z(circ) == m
        lines.append(";".join(f"{c},{t}" for c, t in circ.cnots))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    assert digest == SYNTH_CNOT_PINS[group]


def test_synth_gadget_single_leg():
    g = zgadget(0.8, "0100")
    circ = synth_gadget(g)
    assert len(circ.gates) == 1
    assert circ.gates[0] == ci.rz(0.8, 1)


def test_synth_gadget_two_leg_ladder():
    g = zgadget(0.5, "11")
    circ = synth_gadget(g, "ladder")
    kinds = [gate.kind for gate in circ.gates]
    assert kinds == ["cnot", "rz", "cnot"]
    assert equiv_up_to_phase(
        unitary_of_circuit(circ), unitary_of_circuit(GadgetCircuit(2, (g,)))
    )


def test_synth_gadget_four_leg_tree_shape():
    g = zgadget(1.2, "1111")
    tree = synth_gadget(g, "tree")
    ladder = synth_gadget(g, "ladder")
    assert sum(1 for x in tree.gates if x.kind == "cnot") == 6
    assert cnot_depth(tree) == 4
    assert equiv_up_to_phase(unitary_of_circuit(tree), unitary_of_circuit(ladder))


def test_synth_gadget_oracle_various():
    rng = np.random.default_rng(66)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        legs = BitVec(n, int(rng.integers(1, 1 << n)))
        basis = "Z" if rng.integers(2) else "X"
        entry = GadgetEntry(basis, float(rng.uniform(-3, 3)), legs)
        expected = unitary_of_circuit(GadgetCircuit(n, (entry,)))
        for shape in ("ladder", "tree"):
            got = unitary_of_circuit(synth_gadget(entry, shape))
            assert equiv_up_to_phase(got, expected)


def test_synth_gadget_bad_shape():
    with pytest.raises(ValueError):
        synth_gadget(zgadget(0.1, "1"), "star")


def test_synth_gadget_circuit_list():
    g = gadget_circuit(
        3,
        [
            ("Z", 0.11, "110"),
            ("X", 0.22, "111"),
            ("X", 0.33, "110"),
            ("Z", 0.44, "100"),
            ("Z", 0.55, "110"),
        ],
    )
    for shape in ("ladder", "tree"):
        circ = synth_gadget_circuit(g, shape)
        assert equiv_up_to_phase(
            unitary_of_circuit(circ), unitary_of_circuit(g)
        )
    assert synth_gadget_circuit(GadgetCircuit(2, ()), "tree").gates == ()


def test_synth_gadget_wraps_large_angles():
    big = zgadget(7.0, "1")  # 7 rad wraps to 7 - 2*pi
    out = synth_gadget(big)
    assert -math.pi < out.gates[0].angle <= math.pi
    assert equiv_up_to_phase(
        unitary_of_circuit(out),
        unitary_of_circuit(GadgetCircuit(1, (big,))),
    )


@pytest.mark.parametrize("angle", [1e6, 1e8, 1e10, 1e15, -1e15, 1e300])
def test_synth_gadget_reduces_huge_angles_exactly(angle):
    # wrap_angle's fmod by a rounded 2*pi alone would miss by 1.9e-9 at 1e8
    # and 2.2e-2 at 1e15; the synthesis reduces such angles exactly.
    g = gadget_circuit(2, [("Z", angle, "11"), ("X", 0.3, "01")])
    out = synth_gadget_circuit(g, "ladder")
    assert all(-math.pi < gate.angle <= math.pi for gate in out.gates if gate.angle is not None)
    assert product_error(g, out) < VERIFY_TOL


def test_random_gadget_lists_match_oracle():
    rng = np.random.default_rng(67)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        specs = []
        for _ in range(int(rng.integers(1, 7))):
            basis = "Z" if rng.integers(2) else "X"
            specs.append((basis, float(rng.uniform(-3, 3)), BitVec(n, int(rng.integers(1, 1 << n)))))
        g = gadget_circuit(n, specs)
        for shape in ("ladder", "tree"):
            assert equiv_up_to_phase(
                unitary_of_circuit(synth_gadget_circuit(g, shape)),
                unitary_of_circuit(g),
            )


def test_normal_form_text_roundtrip():
    c = GateCircuit(3, (ci.cnot(0, 1), ci.rz(0.7, 1), ci.rx(0.2, 2), ci.cnot(1, 2)))
    nf = extract(c)
    text = serialize_normal_form(nf)
    back = parse_normal_form(text)
    assert back == nf


def test_normal_form_text_no_tail():
    nf = NormalForm(gadget_circuit(2, [("Z", 0.3, "10")]), CnotCircuit(2, ()))
    assert parse_normal_form(serialize_normal_form(nf)) == nf


def test_normal_form_text_errors_name_their_line():
    with pytest.raises(ParseError, match="^line 3: "):
        parse_normal_form("qubits 2\nzgadget 0.5 10\ncnot 0 2\n")
    with pytest.raises(ParseError, match="^line 4: gadget lines after the cnot tail"):
        parse_normal_form("qubits 2\nzgadget 0.5 10\ncnot 0 1\nxgadget 0.5 11\n")
    with pytest.raises(ParseError, match="^line 2: "):
        parse_normal_form("qubits 2\nrz 0.5 0\n")


# (constructor call, message fragment): what CnotCircuit rejects.
REJECTED = [
    (lambda: CnotCircuit(2, ((1, 1),)), "bad cnot (1, 1) on 2 qubits"),
    (lambda: CnotCircuit(2, ((0, 1), (0, 2))), "bad cnot (0, 2) on 2 qubits"),
    (lambda: CnotCircuit(3, ((-1, 0),)), "bad cnot (-1, 0) on 3 qubits"),
    (lambda: CnotCircuit(3, ((3, 0), (0, 0))), "bad cnot (3, 0) on 3 qubits"),
]


@pytest.mark.parametrize("make, fragment", REJECTED)
def test_constructor_rejections(make, fragment):
    with pytest.raises(ValueError) as err:
        make()
    assert err.type is ValueError
    assert fragment in str(err.value)
