"""Circuit text format, lowering fidelity and the Euler rewrite."""

import math

import numpy as np
import pytest

from phasefold import circuits as ci
from phasefold.circuits import (
    GateCircuit,
    ParseError,
    cnot_count,
    cnot_depth,
    euler_xzx_to_zxz,
    lower_to_basis,
    parse,
    serialize,
    wrap_angle,
)
from phasefold.oracle import equiv_up_to_phase, phase_aligned_error, unitary_of_circuit
from phasefold.transform import parse_normal_form
from gate_matrices import rx_matrix, rz_matrix


def test_parse_simple():
    c = parse("qubits 2\ncnot 0 1\n")
    assert c.n_qubits == 2
    assert c.gates == (ci.cnot(0, 1),)


def test_parse_rz():
    c = parse("qubits 1\nrz 1.5707963267948966 0\n")
    assert c.gates[0].kind == "rz"
    assert math.isclose(c.gates[0].angle, math.pi / 2)


def test_parse_comments_and_case():
    c = parse("# header\nQUBITS 3\nCNOT 0 2  # trailing\n\nRz -0.5 1\n")
    assert c.n_qubits == 3
    assert len(c.gates) == 2


def test_parse_out_of_range():
    with pytest.raises(ParseError) as err:
        parse("qubits 2\ncnot 0 2\n")
    assert "line 2" in str(err.value)


def test_parse_bad_inputs():
    with pytest.raises(ParseError):
        parse("cnot 0 1\n")  # gates before qubits
    with pytest.raises(ParseError):
        parse("qubits 2\nfoo 0\n")
    with pytest.raises(ParseError):
        parse("qubits 2\nrz nan 0\n")
    with pytest.raises(ParseError):
        parse("qubits 2\ncnot 1 1\n")
    with pytest.raises(ParseError):
        parse("qubits 0\n")
    with pytest.raises(ParseError, match="^line 2: rz expects 2 argument"):
        parse("qubits 2\nrz 0.5\n")
    with pytest.raises(ParseError, match="^line 2: cnot expects 2 argument"):
        parse("qubits 2\ncnot 0\n")


def test_roundtrip_all_kinds():
    c = GateCircuit(
        3,
        (
            ci.cnot(0, 1),
            ci.rz(0.25, 2),
            ci.rx(-1.5, 0),
            ci.ry(2.25, 1),
            ci.h(2),
            ci.cz(1, 2),
            ci.crz(0.75, 0, 2),
            ci.crx(1e-3, 2, 1),
            ci.cu1(math.pi / 7, 0, 1),
        ),
    )
    assert parse(serialize(c)) == c


def test_roundtrip_random_angles_bit_exact():
    rng = np.random.default_rng(2)
    gates = tuple(ci.rz(float(rng.standard_normal() * 10), 0) for _ in range(50))
    c = GateCircuit(1, gates)
    assert parse(serialize(c)) == c


LOWER_CASES = [
    ci.h(0),
    ci.ry(0.77, 0),
    ci.ry(-2.1, 1),
    ci.cz(0, 1),
    ci.cz(1, 0),
    ci.crz(1.4, 0, 1),
    ci.crz(-0.6, 1, 0),
    ci.crx(2.3, 0, 1),
    ci.crx(0.2, 1, 0),
    ci.cu1(0.9, 0, 1),
    ci.cu1(-1.8, 1, 0),
]


@pytest.mark.parametrize("gate", LOWER_CASES, ids=lambda g: f"{g.kind}{g.qubits}")
def test_lower_single_gate_oracle(gate):
    n = max(gate.qubits) + 1
    original = GateCircuit(n, (gate,))
    lowered = lower_to_basis(original)
    assert all(g.kind in ("cnot", "rz", "rx") for g in lowered.gates)
    assert equiv_up_to_phase(
        unitary_of_circuit(original), unitary_of_circuit(lowered)
    )


def test_lower_crz_printed_matrix():
    theta = 0.7
    lowered = lower_to_basis(GateCircuit(2, (ci.crz(2 * theta, 0, 1),)))
    expected = np.diag(
        [1, 1, np.exp(-1j * theta), np.exp(1j * theta)]
    )
    assert equiv_up_to_phase(unitary_of_circuit(lowered), expected)


def test_lower_leaves_basis_circuit_unchanged():
    c = GateCircuit(2, (ci.cnot(0, 1), ci.rz(0.3, 0), ci.rx(0.1, 1)))
    assert lower_to_basis(c) == c


def test_lower_keeps_in_range_angles_bit_identical():
    # Only angles outside (-pi, pi] are reduced; the ends, signed zeros and
    # subnormals pass through as the same float.
    edges = [math.pi, math.nextafter(-math.pi, 0.0), -0.0, 0.0, 5e-324, -5e-324]
    angles = edges + np.random.default_rng(14).uniform(-math.pi, math.pi, 200).tolist()
    c = GateCircuit(1, tuple((ci.rz, ci.rx)[k % 2](a, 0) for k, a in enumerate(angles)))
    assert [g.angle.hex() for g in lower_to_basis(c).gates] == [a.hex() for a in angles]


def test_lower_random_mixed_circuits_oracle():
    rng = np.random.default_rng(12)
    kinds = ["h", "ry", "cz", "crz", "crx", "cu1", "cnot", "rz", "rx"]
    for _ in range(30):
        n = int(rng.integers(2, 5))
        gates = []
        for _ in range(12):
            kind = kinds[int(rng.integers(len(kinds)))]
            qs = rng.permutation(n)[:2]
            a, b = int(qs[0]), int(qs[1])
            angle = float(rng.uniform(-math.pi, math.pi))
            if kind == "h":
                gates.append(ci.h(a))
            elif kind == "ry":
                gates.append(ci.ry(angle, a))
            elif kind == "cz":
                gates.append(ci.cz(a, b))
            elif kind == "cnot":
                gates.append(ci.cnot(a, b))
            elif kind == "rz":
                gates.append(ci.rz(angle, a))
            elif kind == "rx":
                gates.append(ci.rx(angle, a))
            else:
                gates.append(ci.Gate(kind, (a, b), angle))
        c = GateCircuit(n, tuple(gates))
        lowered = lower_to_basis(c)
        assert equiv_up_to_phase(
            unitary_of_circuit(c), unitary_of_circuit(lowered)
        )


def _zxz_unitary(b1, b2, b3):
    return rz_matrix(b3) @ rx_matrix(b2) @ rz_matrix(b1)


def _xzx_unitary(a1, a2, a3):
    return rx_matrix(a3) @ rz_matrix(a2) @ rx_matrix(a1)


def test_euler_middle_zero_collapses():
    b1, b2, b3 = euler_xzx_to_zxz(0.4, 0.0, 0.9)
    assert equiv_up_to_phase(_zxz_unitary(b1, b2, b3), rx_matrix(1.3))


def test_euler_specific_triple():
    a = (0.3, 0.8, -0.4)
    b1, b2, b3 = euler_xzx_to_zxz(*a)
    assert equiv_up_to_phase(_zxz_unitary(b1, b2, b3), _xzx_unitary(*a))


def test_euler_hadamard_like():
    b1, b2, b3 = euler_xzx_to_zxz(math.pi / 2, math.pi / 2, math.pi / 2)
    assert equiv_up_to_phase(
        _zxz_unitary(b1, b2, b3), _xzx_unitary(math.pi / 2, math.pi / 2, math.pi / 2)
    )


def test_euler_thousand_random_triples():
    rng = np.random.default_rng(55)
    for _ in range(1000):
        a1, a2, a3 = rng.uniform(-math.pi, math.pi, size=3)
        b1, b2, b3 = euler_xzx_to_zxz(a1, a2, a3)
        for b in (b1, b2, b3):
            assert -math.pi < b <= math.pi
        assert equiv_up_to_phase(_zxz_unitary(b1, b2, b3), _xzx_unitary(a1, a2, a3))


def test_euler_degenerate_cases():
    # |z2| = 0: pure Z rotation comes back with b2 = 0.
    b1, b2, b3 = euler_xzx_to_zxz(0.0, 1.1, 0.0)
    assert b2 == 0.0
    assert phase_aligned_error(_zxz_unitary(b1, b2, b3), rz_matrix(1.1)) < 1e-12
    # |z1| = 0: b2 = pi.
    b1, b2, b3 = euler_xzx_to_zxz(math.pi, 0.0, 0.0)
    assert math.isclose(b2, math.pi)


def test_euler_colour_swapped_dual():
    rng = np.random.default_rng(56)
    for _ in range(200):
        a1, a2, a3 = rng.uniform(-math.pi, math.pi, size=3)
        b1, b2, b3 = euler_xzx_to_zxz(a1, a2, a3)  # the docstring's colour swap
        got = rx_matrix(b3) @ rz_matrix(b2) @ rx_matrix(b1)
        want = rz_matrix(a3) @ rx_matrix(a2) @ rz_matrix(a1)
        assert equiv_up_to_phase(got, want)


def test_wrap_angle_interval():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert abs(wrap_angle(2 * math.pi)) < 1e-15
    assert math.isclose(wrap_angle(3 * math.pi / 2), -math.pi / 2)


@pytest.mark.parametrize("angle", [64.5, -1e8, 1e15, 1e300])
def test_wrap_angle_reduces_huge_angles_exactly(angle):
    # Past |a| = 64 the reduction is atan2(sin a, cos a), which libm
    # computes from the exact argument; fmod by a rounded 2*pi would drift.
    got = wrap_angle(angle)
    assert -math.pi < got <= math.pi
    assert abs(got - math.atan2(math.sin(angle), math.cos(angle))) < 1e-15


def test_cnot_metrics_examples():
    empty = GateCircuit(4, ())
    assert cnot_count(empty) == 0 and cnot_depth(empty) == 0
    disjoint = GateCircuit(4, (ci.cnot(0, 1), ci.cnot(2, 3)))
    assert cnot_count(disjoint) == 2 and cnot_depth(disjoint) == 1
    chained = GateCircuit(3, (ci.cnot(0, 1), ci.cnot(1, 2)))
    assert cnot_count(chained) == 2 and cnot_depth(chained) == 2


def test_cnot_depth_blocked_by_rotation():
    c = GateCircuit(2, (ci.cnot(0, 1), ci.rz(0.1, 1), ci.cnot(0, 1)))
    assert cnot_depth(c) == 2


def test_depth_at_most_count():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        gates = []
        for _ in range(int(rng.integers(0, 20))):
            a, b = rng.permutation(n)[:2]
            gates.append(ci.cnot(int(a), int(b)))
        c = GateCircuit(n, tuple(gates))
        assert cnot_depth(c) <= cnot_count(c)


def test_depth_equals_count_when_sharing_a_qubit():
    c = GateCircuit(3, (ci.cnot(0, 1), ci.cnot(0, 2), ci.cnot(1, 0)))
    assert cnot_depth(c) == cnot_count(c) == 3


BAD_QUBITS_LINES = [
    "qubits ²",
    "qubits +2",
    "qubits -2",
    "qubits 0",
    "qubits 2 3",
    "qubits",
    f"qubits {ci.QUBIT_LIMIT + 1}",
    "qubits 100000",
    "qubits " + "9" * 5000,  # longer than int()'s digit limit
]


@pytest.mark.parametrize("parser", [parse, parse_normal_form])
@pytest.mark.parametrize("line", BAD_QUBITS_LINES)
def test_one_qubits_rule_for_every_file_kind(parser, line):
    # One declaration rule: a single ASCII decimal integer >= 1, else a
    # line-numbered ParseError, whichever parser reads the file.
    with pytest.raises(ParseError, match="^line 1: "):
        parser(f"{line}\nzgadget 0.5 11\n")


@pytest.mark.parametrize("parser", [parse, lambda text: parse_normal_form(text).gadgets])
def test_qubits_limit_is_inclusive(parser):
    # Parsing alone: nothing of size n^2 is built at the limit.
    assert parser(f"qubits {ci.QUBIT_LIMIT}\n").n_qubits == ci.QUBIT_LIMIT
    assert parser("qubits 0003\n").n_qubits == 3


@pytest.mark.parametrize("token", ["+0", "1_0", "١", "²", "-1", "0x1", "11"])
@pytest.mark.parametrize("line", ["cnot 0 {}", "cnot {} 0", "rz 0.5 {}"])
def test_qubit_index_plain_ascii_in_range(line, token):
    # int() would read "+0" as 0, "1_0" as 10 and "١" (Arabic-Indic one) as 1.
    text = "qubits 11\n" + line.format(token) + "\n"
    with pytest.raises(ParseError, match="^line 2: qubit indices must be plain integers"):
        parse(text)
    with pytest.raises(ParseError, match="^line 2: "):
        parse_normal_form(text)


@pytest.mark.parametrize("parser", [parse, parse_normal_form])
def test_shared_grammar_comments_case_and_order(parser):
    parser("# header\n\nQUBITS 2  # two\n")
    with pytest.raises(ParseError, match="^line 2: duplicate"):
        parser("qubits 2\nqubits 2\n")
    with pytest.raises(ParseError, match="^line 1: "):
        parser("cnot 0 1\nqubits 2\n")
    with pytest.raises(ParseError, match="^line 1: missing"):
        parser("# nothing\n")


@pytest.mark.parametrize("token", ["1_0.5", "١.٥", "inf", "nan"])
@pytest.mark.parametrize(
    "parser, line",
    [
        (parse, "rz {} 0"),
        (parse, "crx {} 0 1"),
        (parse_normal_form, "zgadget {} 11"),
        (parse_normal_form, "xgadget {} 11"),
    ],
)
def test_angle_plain_ascii_and_finite(parser, line, token):
    # float() would read "1_0.5" as 10.5 and "١.٥" (Arabic-Indic digits) as 1.5.
    text = "qubits 2\n# angle\n" + line.format(token) + "\n"
    with pytest.raises(ParseError, match="^line 3: angle must be a finite ASCII decimal"):
        parser(text)


@pytest.mark.parametrize("token, value", [("+1.5", 1.5), ("-.5", -0.5), ("1E-3", 1e-3), ("7", 7.0)])
def test_angle_accepts_plain_float_syntax(token, value):
    assert parse(f"qubits 1\nrz {token} 0\n").gates[0].angle == value
    assert parse_normal_form(f"qubits 1\nzgadget {token} 1\n").gadgets.entries[0].angle == value


NAN, INF = float("nan"), float("inf")

# (constructor call, message fragment): what Gate and GateCircuit reject.
# Rows that break two rules pin which check comes first.
REJECTED = [
    (lambda: ci.Gate("swap", (0, 1)), "unknown gate kind 'swap'"),
    (lambda: ci.Gate("cnot", (0,)), "cnot takes 2 qubit(s)"),
    (lambda: ci.Gate("rz", (0, 1), 0.5), "rz takes 1 qubit(s)"),
    (lambda: ci.Gate("h", ()), "h takes 1 qubit(s)"),
    (lambda: ci.Gate("cnot", (1, 1)), "cnot qubits must be distinct"),
    (lambda: ci.Gate("crz", (-1, -1), 0.5), "crz qubits must be distinct"),
    (lambda: ci.Gate("cnot", (0, -1)), "negative qubit index"),
    (lambda: ci.Gate("rx", (-2,), 0.5), "negative qubit index"),
    (lambda: ci.Gate("rz", (-1,)), "negative qubit index"),
    (lambda: ci.Gate("rz", (0,)), "rz needs a finite angle"),
    (lambda: ci.Gate("cu1", (0, 1), NAN), "cu1 needs a finite angle"),
    (lambda: ci.Gate("rx", (0,), -INF), "rx needs a finite angle"),
    (lambda: ci.Gate("cnot", (0, 1), 0.5), "cnot takes no angle"),
    (lambda: ci.Gate("h", (0,), 0.0), "h takes no angle"),
    (lambda: GateCircuit(0, ()), "circuits need at least one qubit"),
    (lambda: GateCircuit(-3, (ci.h(0),)), "circuits need at least one qubit"),
    (lambda: GateCircuit(1, (ci.cnot(0, 1),)), "out of range for 1 qubits"),
    (
        lambda: GateCircuit(3, (ci.rz(0.1, 2), ci.cnot(4, 0), ci.h(3))),
        "gate Gate(kind='cnot', qubits=(4, 0), angle=None) out of range for 3 qubits",
    ),
]


@pytest.mark.parametrize("make, fragment", REJECTED)
def test_constructor_rejections(make, fragment):
    with pytest.raises(ValueError) as err:
        make()
    assert err.type is ValueError
    assert fragment in str(err.value)
