"""End-to-end optimisation, peephole, ansatz generators and periodicity."""

import math

import numpy as np
import pytest

from phasefold import circuits as ci
from phasefold.annealing import AnnealParams
from phasefold.circuits import GateCircuit, cnot_count, serialize
from phasefold.gf2 import BitMatrix
from phasefold.oracle import VERIFY_TOL, equiv_up_to_phase, product_error, unitary_of_circuit
from phasefold.ansatz import AnsatzSpec, NonMonotonicError, generate, mppp_period
from phasefold.pipeline import cancel_cnots, euler_peephole, metrics_of, optimize
from phasefold.transform import (
    CnotCircuit,
    detect_layers,
    extract,
    h_z,
    synth_gadget_circuit,
)

FAST = AnnealParams(iterations=400, attempts=3, seed=0)


def test_optimize_single_rz_noop():
    c = GateCircuit(2, (ci.rz(0.4, 1),))
    out, report = optimize(c, FAST)
    assert report.verified == "yes"
    assert out.gates == c.gates
    assert report.energy_before == report.energy_after == 1


def test_optimize_worked_example():
    gadgets = [
        ("Z", 0.11, "110"),
        ("X", 0.22, "111"),
        ("X", 0.33, "110"),
        ("Z", 0.44, "100"),
        ("Z", 0.55, "110"),
    ]
    from phasefold.gadgets import gadget_circuit

    g = gadget_circuit(3, gadgets)
    before = synth_gadget_circuit(g, "ladder")
    out, report = optimize(before, AnnealParams(iterations=2000, attempts=5, seed=0))
    assert report.verified == "yes"
    assert report.energy_before == 10
    assert report.energy_after <= 6  # printed example solution scores 6
    assert equiv_up_to_phase(unitary_of_circuit(out), unitary_of_circuit(g))


def test_optimize_preserves_semantics_random():
    rng = np.random.default_rng(70)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        gates = []
        for _ in range(int(rng.integers(1, 30))):
            k = int(rng.integers(3))
            if k == 0:
                a, b = rng.permutation(n)[:2]
                gates.append(ci.cnot(int(a), int(b)))
            elif k == 1:
                gates.append(ci.rz(float(rng.uniform(-3, 3)), int(rng.integers(n))))
            else:
                gates.append(ci.rx(float(rng.uniform(-3, 3)), int(rng.integers(n))))
        c = GateCircuit(n, tuple(gates))
        out, report = optimize(c, FAST)
        assert report.verified == "yes"  # VerificationError otherwise


def test_optimize_lowers_rich_gates_first():
    c = GateCircuit(
        3,
        (
            ci.h(0),
            ci.crz(0.8, 0, 1),
            ci.ry(1.2, 2),
            ci.cu1(0.5, 1, 2),
            ci.cz(0, 2),
            ci.crx(-0.9, 2, 0),
        ),
    )
    out, report = optimize(c, FAST)
    assert report.verified == "yes"
    assert all(g.kind in ("cnot", "rz", "rx") for g in out.gates)


def test_optimize_never_worsens_energy():
    rng = np.random.default_rng(71)
    for seed in range(5):
        spec = AnsatzSpec("random_gadget", 4, layers=3, gadgets_per_layer=3, seed=seed)
        before = synth_gadget_circuit(generate(spec), "ladder")
        out, report = optimize(before, FAST)
        assert report.energy_after <= report.energy_before
        assert report.verified == "yes"


def test_optimize_layered_ansatz_amortizes_blocks():
    # CNOT count grows linearly in the layer count: the C blocks are paid once.
    counts = {}
    for layers in (2, 4, 6):
        spec = AnsatzSpec("random_gadget", 5, layers=layers, gadgets_per_layer=4, seed=3)
        before = synth_gadget_circuit(generate(spec), "ladder")
        out, report = optimize(before, AnnealParams(iterations=600, attempts=3, seed=1))
        assert report.layers_detected == layers
        counts[layers] = metrics_of(out).cnot_count
    assert counts[6] - counts[4] == counts[4] - counts[2]


def test_optimize_pure_cnot_circuit():
    c = GateCircuit(3, (ci.cnot(0, 1), ci.cnot(1, 2), ci.cnot(0, 1)))
    out, report = optimize(c, FAST)
    assert report.verified == "yes"
    assert cnot_count(out) <= 9


@pytest.mark.parametrize(
    "gates, text, after, side",
    [
        ((ci.cnot(0, 1), ci.cnot(1, 2), ci.cnot(0, 1), ci.cnot(2, 0)),
         "qubits 3\ncnot 0 1\ncnot 1 2\ncnot 0 1\ncnot 2 0\n",
         (4, 4, 4, 4, 4, 4), "input"),
        ((), "qubits 3\n", (0, 0, 0, 0, 0, 0), "optimized"),
    ],
    ids=["pure-cnot", "empty"],
)
def test_optimize_without_gadgets_is_pinned(gates, text, after, side):
    # No gadgets: the optimized side is the re-synthesised tail alone, 6
    # CNOTs for the 4 given, so the bound returns the input side unannealed.
    # An empty circuit goes through the same path as any other: the anneal
    # stops at its floor, C = I, and the empty optimized side is returned.
    out, report = optimize(GateCircuit(3, gates), FAST)
    assert serialize(out) == text
    names = ("before_cnot_count", "before_cnot_depth", "before_gate_count",
             "after_cnot_count", "after_cnot_depth", "after_gate_count")
    pairs = list(zip(names, after)) + [
        ("energy_before", 0), ("energy_after", 0), ("energy_chosen", 0),
        ("layers_detected", 1), ("output", side), ("verified", "yes"),
    ]
    assert report.to_kv() == "\n".join(f"{k}={v}" for k, v in pairs)


def test_optimize_report_formats():
    c = GateCircuit(2, (ci.rz(0.4, 1),))
    _, report = optimize(c, FAST)
    kv = report.to_kv()
    assert "verified=yes" in kv and "energy_before=1" in kv
    text = report.to_text()
    assert "cnot count" in text and "verified" in text


def test_peephole_fuses_same_basis():
    c = GateCircuit(1, (ci.rz(0.3, 0), ci.rz(0.4, 0)))
    out = euler_peephole(c)
    assert len(out.gates) == 1
    assert math.isclose(out.gates[0].angle, 0.7)


def test_peephole_cancels_inverse_rotations():
    c = GateCircuit(1, (ci.rx(0.9, 0), ci.rx(-0.9, 0)))
    assert euler_peephole(c).gates == ()


def test_peephole_collapses_long_run():
    gates = (ci.rx(0.5, 0), ci.rz(1.1, 0), ci.rx(-0.7, 0), ci.rz(0.4, 0))
    c = GateCircuit(1, gates)
    out = euler_peephole(c)
    assert len(out.gates) <= 3
    assert equiv_up_to_phase(unitary_of_circuit(c), unitary_of_circuit(out))


def test_peephole_collapses_a_long_run_in_linear_time():
    # 40,000 alternating rotations on one wire collapse in about 0.1 s; a
    # collapse that re-fused the rest of the run after each rewrite took
    # 1.6 s at 4,000 and would take minutes here.
    import time

    rng = np.random.default_rng(73)
    gates = tuple(
        (ci.rz if k % 2 else ci.rx)(float(a), 0) for k, a in enumerate(rng.uniform(-3, 3, 40_000))
    )
    start = time.perf_counter()
    out = euler_peephole(GateCircuit(1, gates))
    assert time.perf_counter() - start < 2.0
    assert len(out.gates) <= 3


def test_peephole_no_adjacent_rotations_unchanged():
    c = GateCircuit(2, (ci.rz(0.3, 0), ci.cnot(0, 1), ci.rz(0.4, 0)))
    assert euler_peephole(c) == c


def test_peephole_respects_cnot_boundaries():
    rng = np.random.default_rng(72)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        gates = []
        for _ in range(int(rng.integers(0, 25))):
            k = int(rng.integers(4))
            if k == 0 and n > 1:
                a, b = rng.permutation(n)[:2]
                gates.append(ci.cnot(int(a), int(b)))
            elif k % 2:
                gates.append(ci.rz(float(rng.uniform(-3, 3)), int(rng.integers(n))))
            else:
                gates.append(ci.rx(float(rng.uniform(-3, 3)), int(rng.integers(n))))
        c = GateCircuit(n, tuple(gates))
        out = euler_peephole(c)
        assert equiv_up_to_phase(unitary_of_circuit(c), unitary_of_circuit(out))
        # never more than three consecutive rotations per wire remain
        run = {q: 0 for q in range(n)}
        for g in out.gates:
            if g.kind == "cnot":
                run[g.qubits[0]] = run[g.qubits[1]] = 0
            else:
                run[g.qubits[0]] += 1
                assert run[g.qubits[0]] <= 3


def test_peephole_reduces_huge_angles_before_fusing():
    # 1e17 + 0.3 in floating point loses the 0.3; reducing each angle first
    # keeps it.
    c = ci.parse("qubits 1\nrz 1e17 0\nrz 0.3 0\n")
    out = euler_peephole(c)
    assert len(out.gates) == 1
    assert product_error(c, out) < VERIFY_TOL


@pytest.mark.parametrize("angle", [1e8, 1e15, -1e17, 1e300])
def test_peephole_collapses_huge_angle_runs_exactly(angle):
    gates = (ci.rz(angle, 0), ci.rx(angle, 0), ci.rz(0.3, 0), ci.rx(-angle, 0))
    c = GateCircuit(1, gates)
    out = euler_peephole(c)
    assert len(out.gates) <= 3
    assert product_error(c, out) < VERIFY_TOL


@pytest.mark.parametrize(
    "between",
    [ci.rz(0.3, 0), ci.rx(0.3, 1), ci.rx(0.3, 2), ci.cnot(2, 3), ci.cnot(0, 2), ci.cnot(2, 1)],
    ids=["rz-on-control", "rx-on-target", "other-wire", "other-cnot", "shared-control",
         "shared-target"],
)
def test_cancel_cnots_passes_commuting_gates(between):
    c = GateCircuit(4, (ci.cnot(0, 1), between, ci.cnot(0, 1)))
    assert cancel_cnots(c) == GateCircuit(4, (between,))


@pytest.mark.parametrize(
    "between",
    [ci.rx(0.3, 0), ci.rz(0.3, 1), ci.cnot(2, 0), ci.cnot(1, 2), ci.cnot(1, 0)],
    ids=["rx-on-control", "rz-on-target", "cnot-onto-control", "cnot-from-target", "reversed"],
)
def test_cancel_cnots_stops_at_blockers(between):
    c = GateCircuit(4, (ci.cnot(0, 1), between, ci.cnot(0, 1)))
    assert cancel_cnots(c) is c


def test_cancel_cnots_rescans_after_the_peephole():
    # The inner pair cancels first; the RZs on the outer pair's target then
    # fuse to zero, and the outer pair meets in the next scan.
    c = GateCircuit(3, (ci.cnot(0, 1), ci.rz(0.5, 1), ci.cnot(1, 2), ci.cnot(1, 2),
                        ci.rz(-0.5, 1), ci.cnot(0, 1)))
    assert cancel_cnots(c) == GateCircuit(3, ())


def test_cancel_cnots_walk_is_bounded():
    # A walk looks at most _CANCEL_WALK gates back, its partner included.
    import phasefold.pipeline as pl

    for between, cancelled in ((pl._CANCEL_WALK - 1, True), (pl._CANCEL_WALK, False)):
        gates = (ci.cnot(0, 1),) + (ci.rz(0.001, 0),) * between + (ci.cnot(0, 1),)
        out = cancel_cnots(GateCircuit(2, gates))
        assert cnot_count(out) == (0 if cancelled else 2)


def test_peephole_rejects_non_basis():
    with pytest.raises(ValueError):
        euler_peephole(GateCircuit(1, (ci.h(0),)))


def test_generate_staircase_matches_printed_action():
    spec = AnsatzSpec("staircase", 4, layers=1, seed=0)
    circ = generate(spec)
    nf = extract(circ)
    a1 = BitMatrix.from_rows([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
    for q, entry in enumerate(nf.gadgets.entries):
        assert entry.basis == "Z"
        assert entry.legs == a1.col(q)


def test_generate_brickwall_matches_printed_action():
    spec = AnsatzSpec("brickwall", 4, layers=1, seed=0)
    circ = generate(spec)
    layer = CnotCircuit(4, tuple((g.qubits for g in circ.gates if g.kind == "cnot")))
    expected = BitMatrix.from_rows(
        [[1, 1, 0, 0], [0, 1, 1, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
    )
    assert h_z(layer) == expected


def test_generate_random_gadget_deterministic():
    spec = AnsatzSpec("random_gadget", 3, layers=1, gadgets_per_layer=5, seed=9)
    a = generate(spec)
    b = generate(spec)
    assert a == b
    assert len(a) == 5


def test_generate_random_gadget_layers_repeat_structure():
    spec = AnsatzSpec("random_gadget", 4, layers=3, gadgets_per_layer=4, seed=5)
    g = generate(spec)
    assert len(g) == 12
    info = detect_layers(g)
    assert info.unit_length * info.repeats + info.offset == 12
    assert info.repeats >= 3


def test_generate_with_rx_walls():
    spec = AnsatzSpec("staircase", 3, layers=2, seed=1, with_rx=True)
    circ = generate(spec)
    kinds = [g.kind for g in circ.gates]
    assert kinds.count("rx") == 6
    assert kinds.count("rz") == 6


def test_generate_validation():
    with pytest.raises(ValueError):
        AnsatzSpec("ring", 3, layers=1)
    with pytest.raises(ValueError):
        AnsatzSpec("staircase", 3, layers=0)
    with pytest.raises(ValueError):
        AnsatzSpec("random_gadget", 3, layers=1, gadgets_per_layer=0)


def test_mppp_period_staircase4():
    layer = CnotCircuit(4, tuple((q, q + 1) for q in range(2, -1, -1)))
    assert mppp_period(layer) == 4


def test_mppp_period_empty_layer():
    assert mppp_period(CnotCircuit(3, ())) == 1


def test_mppp_period_staircase5_hits_bound():
    layer = CnotCircuit(5, tuple((q, q + 1) for q in range(3, -1, -1)))
    assert mppp_period(layer) == 8


def test_mppp_period_non_monotonic_rejected():
    with pytest.raises(NonMonotonicError):
        mppp_period(CnotCircuit(3, ((0, 1), (2, 1))))


def test_mppp_period_is_power_of_two_dividing_bound():
    rng = np.random.default_rng(73)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        pairs = []
        for _ in range(int(rng.integers(1, 8))):
            a = int(rng.integers(n - 1))
            b = int(rng.integers(a + 1, n))
            pairs.append((a, b))
        period = mppp_period(CnotCircuit(n, tuple(pairs)))
        bound = 1 << (n - 1).bit_length()
        assert bound % period == 0
        assert period & (period - 1) == 0


def test_mppp_parameter_bound():
    # Layered monotonic ansatz: the number of distinct (basis, legs)
    # gadget shapes is capped by n * 2^ceil(log2 n).
    for n in (3, 4, 5):
        spec = AnsatzSpec("staircase", n, layers=20, seed=2)
        nf = extract(generate(spec))
        shapes = {(e.basis, e.legs) for e in nf.gadgets.entries}
        assert len(shapes) <= n * (1 << (n - 1).bit_length())


def test_optimize_verify_skipped_above_limit():
    c = GateCircuit(12, (ci.rz(0.4, 11),))
    out, report = optimize(c, FAST)
    assert report.verified == "skipped"


LARGE_ANGLE_CASES = {
    **{
        f"rz_cnot_rz_rx_{a:.0e}": (ci.rz(a, 0), ci.cnot(0, 1), ci.rz(a, 1), ci.rx(a, 0))
        for a in (1e8, 1e10, 1e15)
    },
    "fused_1e17_and_0.3": (ci.rz(1e17, 0), ci.rz(0.3, 0), ci.cnot(0, 1), ci.rx(0.2, 1)),
}


@pytest.mark.parametrize("name", sorted(LARGE_ANGLE_CASES))
def test_optimize_verifies_large_angles(name):
    # Lowering reduces each angle exactly, so neither a float 2*pi nor a
    # fused sum such as 1e17 + 0.3 loses what the oracle still sees.
    c = GateCircuit(2, LARGE_ANGLE_CASES[name])
    assert optimize(c, FAST)[1].verified == "yes"


def test_optimize_large_angles_correct_past_the_check(monkeypatch):
    # At 11 qubits optimize skips its check, so an inexact reduction would
    # return a wrong circuit silently; the dense error shows it is right.
    from phasefold import oracle
    from phasefold.oracle import VERIFY_TOL, product_error

    a = 1e10
    c = GateCircuit(11, (ci.rz(a, 0), ci.cnot(0, 1), ci.rz(a, 1), ci.rx(a, 0), ci.rx(0.3, 10)))
    out, report = optimize(c, FAST)
    assert report.verified == "skipped"
    monkeypatch.setattr(oracle, "MAX_QUBITS", 12)
    assert product_error(c, out) < VERIFY_TOL


def test_optimize_raises_when_its_output_fails_the_oracle(monkeypatch):
    import phasefold.pipeline as pl
    from phasefold.pipeline import VerificationError

    def drop_first_rotation(c):
        out = euler_peephole(c)
        i = next(i for i, g in enumerate(out.gates) if g.kind in ("rz", "rx"))
        return GateCircuit(out.n_qubits, out.gates[:i] + out.gates[i + 1 :])

    monkeypatch.setattr(pl, "euler_peephole", drop_first_rotation)
    c = GateCircuit(2, (ci.cnot(0, 1), ci.rz(0.4, 1), ci.rx(0.3, 0), ci.cnot(0, 1)))
    result = None
    with pytest.raises(VerificationError, match="not equivalent"):
        result = optimize(c, FAST)
    assert result is None


def _kernel_sizes(monkeypatch) -> list:
    """From now on, the qubit count of each dense kernel the oracle builds."""
    from phasefold import oracle

    sizes = []

    class Recorded(oracle._Pending):
        def __init__(self, n):
            sizes.append(n)
            super().__init__(n)

    monkeypatch.setattr(oracle, "_Pending", Recorded)
    return sizes


@pytest.mark.parametrize("n", [3, 9])
def test_optimize_never_returns_a_wrong_circuit(n, monkeypatch):
    # A peephole that moves one rotation by 0.5 makes every output wrong,
    # and optimize raises. The check merges the two sides' rotations and
    # evaluates what is left on its logical qubits: at n = 9 it builds no
    # 2^9 x 2^9 matrix, for the right output or the wrong one.
    import phasefold.pipeline as pl
    from phasefold.pipeline import VerificationError

    rng = np.random.default_rng(4000 + n)
    gates = []
    for _ in range(8 * n):
        q = int(rng.integers(n))
        if rng.integers(3) == 0:
            gates.append(ci.cnot(q, (q + 1 + int(rng.integers(n - 1))) % n))
        else:
            rot = ci.rz if rng.integers(2) else ci.rx
            gates.append(rot(float(rng.uniform(-3, 3)), q))
    c = GateCircuit(n, tuple(gates))
    sizes = _kernel_sizes(monkeypatch)
    assert optimize(c, FAST)[1].verified == "yes"

    def shift_one_rotation(c):
        out = euler_peephole(c)
        i = next(i for i, g in enumerate(out.gates) if g.kind in ("rz", "rx"))
        g = out.gates[i]
        bent = ci.Gate(g.kind, g.qubits, g.angle + 0.5)
        return GateCircuit(out.n_qubits, out.gates[:i] + (bent,) + out.gates[i + 1 :])

    monkeypatch.setattr(pl, "euler_peephole", shift_one_rotation)
    with pytest.raises(VerificationError, match="not equivalent"):
        optimize(c, FAST)
    assert sizes and all(k < 9 for k in sizes)


def test_optimize_raises_at_nine_qubits_when_no_group_is_applied(monkeypatch):
    # RX on qubits 0-3 and CNOTs among 4-8. The Z strings on qubits 4-8
    # commute with every rotation and merge away, and the X strings sit on
    # qubits 0-3: what the merge leaves lives on at most four logical
    # qubits. So the check builds no 2^9 x 2^9 matrix, and a wrong output
    # is still an error.
    import phasefold.pipeline as pl
    from phasefold.pipeline import VerificationError

    n = 9
    rng = np.random.default_rng(4100)
    gates = []
    for _ in range(30):
        gates.append(ci.rx(float(rng.uniform(-3, 3)), int(rng.integers(4))))
        gates.append(ci.rz(float(rng.uniform(-3, 3)), int(rng.integers(n))))
        gates.append(ci.cnot(*(int(q) for q in rng.choice(range(4, n), size=2, replace=False))))
    c = GateCircuit(n, tuple(gates))
    sizes = _kernel_sizes(monkeypatch)
    assert optimize(c, FAST)[1].verified == "yes"
    assert all(k <= 4 for k in sizes)

    def shift_one_rotation(c):
        out = euler_peephole(c)
        i = next(i for i, g in enumerate(out.gates) if g.kind == "rx")
        g = out.gates[i]
        bent = ci.Gate(g.kind, g.qubits, g.angle + 0.5)
        return GateCircuit(out.n_qubits, out.gates[:i] + (bent,) + out.gates[i + 1 :])

    monkeypatch.setattr(pl, "euler_peephole", shift_one_rotation)
    with pytest.raises(VerificationError, match="not equivalent"):
        optimize(c, FAST)
    assert sizes and all(k <= 4 for k in sizes)


def _random_basis_circuit(seed: int, n: int, n_gates: int) -> GateCircuit:
    rng = np.random.default_rng(seed)
    gates = []
    for _ in range(n_gates):
        k = int(rng.integers(3))
        if k == 0:
            a, b = rng.permutation(n)[:2]
            gates.append(ci.cnot(int(a), int(b)))
        else:
            rot = ci.rz if k == 1 else ci.rx
            gates.append(rot(float(rng.uniform(-math.pi, math.pi)), int(rng.integers(n))))
    return GateCircuit(n, tuple(gates))


def _fused_angle_zero_once() -> GateCircuit:
    # Each layer is Z(t) 1100 ; X(0.7) 1111 ; Z(s) 1100; the Z gadgets fuse,
    # and s = -t in layer 1 only, so one occurrence drops the fused gadget.
    from phasefold.gadgets import gadget_circuit

    specs = []
    for t, s in ((0.4, 0.2), (0.9, -0.9), (1.3, 0.5)):
        specs += [("Z", t, "1100"), ("X", 0.7, "1111"), ("Z", s, "1100")]
    return synth_gadget_circuit(gadget_circuit(4, specs), "ladder")


def _zero_angle_prefix() -> GateCircuit:
    # Z(0) 110 comes before two repeats of X 011 ; Z 110, so it is the
    # non-repeating prefix (offset 1) and emits no CNOTs.
    from phasefold.gadgets import gadget_circuit

    specs = [("Z", 0.0, "110"), ("X", 0.3, "011"), ("Z", 0.5, "110"), ("X", 0.7, "011"),
             ("Z", 0.9, "110")]
    return synth_gadget_circuit(gadget_circuit(3, specs), "ladder")


CHOICE_CASES = {
    "ansatz_n6": lambda: synth_gadget_circuit(
        generate(AnsatzSpec("random_gadget", 6, layers=3, gadgets_per_layer=8, seed=21)), "ladder"
    ),
    "ansatz_n5_tree": lambda: synth_gadget_circuit(
        generate(AnsatzSpec("random_gadget", 5, layers=2, gadgets_per_layer=6, seed=22)), "tree"
    ),
    "staircase_rx": lambda: generate(AnsatzSpec("staircase", 4, layers=4, seed=23, with_rx=True)),
    "brickwall_rx": lambda: generate(AnsatzSpec("brickwall", 5, layers=3, seed=24, with_rx=True)),
    "gate_level_a": lambda: _random_basis_circuit(25, 3, 20),
    "gate_level_b": lambda: _random_basis_circuit(26, 5, 40),
    "gate_level_c": lambda: _random_basis_circuit(27, 6, 60),
    "fused_angle_zero_once": _fused_angle_zero_once,
    "zero_angle_prefix": _zero_angle_prefix,
}


@pytest.mark.parametrize("name", sorted(CHOICE_CASES))
def test_output_cnots_is_the_synthesised_count(name):
    # For I and every candidate, the optimized side built with that C passes
    # the oracle, the exact cost equals its CNOTs less the prefix and the
    # tail, and the CNOT bound is no more than those CNOTs. Its first block,
    # right after the prefix's CNOTs, is synth_cnot(C) reversed, and its
    # closing block, right before the tail's, is synth_cnot(C); the peephole
    # moves no CNOT, so both read off the circuit. Like a layer's, a
    # zero-angle prefix gadget emits nothing.
    import phasefold.pipeline as pl
    from phasefold.annealing import anneal
    from phasefold.circuits import cnot_depth
    from phasefold.gadgets import is_zero_angle, leg_matrices
    from phasefold.transform import synth_cnot, synth_gadget

    c = CHOICE_CASES[name]()
    p = AnnealParams(iterations=300, attempts=6, seed=5)
    lowered = ci.lower_to_basis(c)
    nf = extract(lowered)
    info = detect_layers(nf.gadgets)
    prefix = nf.gadgets.entries[: info.offset]
    head = sum(cnot_count(synth_gadget(e)) for e in prefix if not is_zero_angle(e.angle))
    fixed = head + len(synth_cnot(h_z(nf.tail)))
    parts = pl._split(lowered)
    result = anneal(*leg_matrices(parts.unit), p)
    assert parts.identity.c == BitMatrix.identity(c.n_qubits)
    blocks = (parts.identity,) + tuple(
        pl._score(m, e, parts.legs)
        for m, e in zip(result.candidates, result.per_attempt_energies)
    )
    pool = tuple(b.c for b in blocks)
    costs = [b.cnots for b in blocks]
    floor = pl._cnot_floor(parts)
    for m, scored, cost in zip(pool, blocks, costs):
        side = pl._synthesize(parts, scored, "tree")
        assert product_error(c, side) < VERIFY_TOL
        count = cnot_count(side)
        assert count - fixed == cost
        assert floor <= count
        block = synth_cnot(m).cnots
        cnots = [g.qubits for g in side.gates if g.kind == "cnot"]
        closing = count - len(parts.tail) - len(block)
        assert tuple(cnots[head : head + len(block)]) == block[::-1]
        assert tuple(cnots[closing : closing + len(block)]) == block
    # optimize chooses the first of the cheapest, and returns the input side
    # only when it has fewer CNOTs, or as many and a lower CNOT depth; it
    # cancels CNOT pairs in the side it returns, after that comparison.
    chosen = pool[costs.index(min(costs))]
    chosen_block = pl._choose(result, parts)
    assert chosen_block.c == chosen
    optimized = pl._synthesize(parts, chosen_block, "tree")
    input_side = euler_peephole(lowered)
    out, report = optimize(c, p)
    assert out == pl.cancel_cnots({"optimized": optimized, "input": input_side}[report.output])
    cost_in, cost_opt = ((cnot_count(d), cnot_depth(d)) for d in (input_side, optimized))
    assert (cost_in < cost_opt) == (report.output == "input")
    if name == "fused_angle_zero_once":
        assert sorted(live for *_, live in parts.legs) == [2, 3]
    if name == "zero_angle_prefix":
        assert [e.angle for e in prefix] == [0.0]
        # C's block has 2 CNOTs and is paid twice.
        assert cnot_count(optimized) == 4
        assert optimized.gates[:2] != (ci.cnot(1, 0), ci.cnot(1, 0))
    if name.startswith("ansatz"):
        assert len(set(costs)) > 1  # the choice matters here


def test_choice_reports_the_chosen_energy():
    c = CHOICE_CASES["ansatz_n6"]()
    _, report = optimize(c, AnnealParams(iterations=300, attempts=6, seed=5))
    assert report.energy_after <= report.energy_chosen
    assert f"energy_chosen={report.energy_chosen}" in report.to_kv().splitlines()
    assert f"(chosen {report.energy_chosen})" in report.to_text()


def test_choose_ties_go_to_identity_then_earliest():
    # Of I and the candidates, _choose takes the fewest output CNOTs; on a
    # tie, I wins, then the earlier candidate. On this unit a brute-force
    # search over GL(3,2) finds two Cs that tie below I, and one that ties
    # with I at a lower energy than I's.
    import itertools

    import phasefold.pipeline as pl
    from phasefold.annealing import AnnealResult, energy
    from phasefold.gadgets import gadget_circuit, leg_matrices
    from phasefold.gf2 import rank

    unit = gadget_circuit(3, [("Z", 0.3, "110"), ("Z", 0.5, "011"), ("X", 0.7, "111")])
    angles = [[0.3, 0.5, 0.7], [0.2, 0.4, 0.6]]
    layers = gadget_circuit(3, [(e.basis, a, e.legs) for occ in angles
                                for e, a in zip(unit.entries, occ)])
    parts = pl._split(ci.lower_to_basis(synth_gadget_circuit(layers, "tree")))
    assert (parts.unit, parts.angles) == (unit, angles)
    lz, lx = leg_matrices(unit)
    identity = BitMatrix.identity(3)
    initial = energy(identity, lz, lx)
    cost_i = parts.identity.cnots
    cost = {}
    for bits in itertools.product((0, 1), repeat=9):
        m = BitMatrix.from_rows([bits[i : i + 3] for i in range(0, 9, 3)])
        if rank(m) == 3 and m != identity:
            cost.setdefault(pl._score(m, 0, parts.legs).cnots, []).append(m)
    a, b = next(ms for k, ms in sorted(cost.items()) if len(ms) > 1 and k < cost_i)[:2]
    d = next(m for m in cost[cost_i] if energy(m, lz, lx) < initial)

    def choose(*cs):
        es = tuple(energy(m, lz, lx) for m in cs)
        return pl._choose(AnnealResult(min((initial, *es)), initial, es, cs), parts)[:2]

    assert choose() == (identity, initial)
    assert choose(a, b) == (a, energy(a, lz, lx))
    assert choose(b, a) == (b, energy(b, lz, lx))
    assert choose(d) == (identity, initial)
    assert choose(d, b, a) == (b, energy(b, lz, lx))
