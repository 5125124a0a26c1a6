"""End-to-end optimisation, peephole, ansatz generators and periodicity."""

import math

import numpy as np
import pytest

from phasefold import circuits as ci
from phasefold.annealing import AnnealParams
from phasefold.circuits import GateCircuit, cnot_count
from phasefold.gf2 import BitMatrix
from phasefold.oracle import equiv_up_to_phase, unitary_of_circuit, unitary_of_gadgets
from phasefold.ansatz import AnsatzSpec, NonMonotonicError, generate, mppp_period
from phasefold.pipeline import euler_peephole, metrics_of, optimize
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
    assert equiv_up_to_phase(unitary_of_circuit(out), unitary_of_gadgets(g))


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


@pytest.mark.parametrize("n", [3, 9])
def test_optimize_never_returns_a_wrong_circuit(n, monkeypatch):
    # A peephole that moves one rotation by 0.5 makes every output wrong:
    # optimize raises on the per-gate kernel (n = 3) and the grouped one (n = 9).
    import phasefold.pipeline as pl
    from phasefold import oracle
    from phasefold.pipeline import VerificationError

    assert (n >= oracle.GROUP_MIN_QUBITS) == (n == 9)
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


def test_optimize_raises_at_nine_qubits_when_no_group_is_applied(monkeypatch):
    # RX on qubits 0-3 and CNOTs among 4-8: the product U_out^dag U_c stays
    # in one group, so the check reads its error without building a matrix,
    # and a wrong output is still an error.
    import phasefold.pipeline as pl
    from phasefold import oracle
    from phasefold.pipeline import VerificationError

    n = 9
    rng = np.random.default_rng(4100)
    gates = []
    for _ in range(30):
        gates.append(ci.rx(float(rng.uniform(-3, 3)), int(rng.integers(4))))
        gates.append(ci.rz(float(rng.uniform(-3, 3)), int(rng.integers(n))))
        gates.append(ci.cnot(*(int(q) for q in rng.choice(range(4, n), size=2, replace=False))))
    c = GateCircuit(n, tuple(gates))
    applied = []
    apply_group = oracle._Grouped._apply_group
    monkeypatch.setattr(
        oracle._Grouped, "_apply_group", lambda acc: applied.append(acc) or apply_group(acc)
    )
    assert optimize(c, FAST)[1].verified == "yes"
    assert applied == []

    def shift_one_rotation(c):
        out = euler_peephole(c)
        i = next(i for i, g in enumerate(out.gates) if g.kind == "rx")
        g = out.gates[i]
        bent = ci.Gate(g.kind, g.qubits, g.angle + 0.5)
        return GateCircuit(out.n_qubits, out.gates[:i] + (bent,) + out.gates[i + 1 :])

    monkeypatch.setattr(pl, "euler_peephole", shift_one_rotation)
    with pytest.raises(VerificationError, match="not equivalent"):
        optimize(c, FAST)
    assert applied == []


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
}


def _optimize_choosing(monkeypatch, c, p, pick):
    """optimize with C picked by ``pick(result)``; returns (output, (result, unit, angles))."""
    import phasefold.pipeline as pl

    seen = []

    def choose(result, unit, angles):
        seen.append((result, unit, angles))
        return pick(result), 0

    with monkeypatch.context() as m:
        m.setattr(pl, "_choose", choose)
        out, report = optimize(c, p)
    assert report.verified == "yes"
    return out, seen[0]


@pytest.mark.parametrize("name", sorted(CHOICE_CASES))
def test_output_cnots_is_the_synthesised_count(name, monkeypatch):
    # For I and every candidate, the exact cost equals the CNOTs of the
    # output optimize builds with that C, less the prefix and the tail.
    import phasefold.pipeline as pl
    from phasefold.transform import synth_cnot, synth_gadget

    c = CHOICE_CASES[name]()
    p = AnnealParams(iterations=300, attempts=6, seed=5)
    nf = extract(ci.lower_to_basis(c))
    info = detect_layers(nf.gadgets)
    fixed = len(synth_cnot(h_z(nf.tail))) + sum(
        cnot_count(synth_gadget(e)) for e in nf.gadgets.entries[: info.offset]
    )
    identity = BitMatrix.identity(c.n_qubits)
    _, (result, unit, angles) = _optimize_choosing(monkeypatch, c, p, lambda r: identity)
    legs = pl._live_legs(unit, angles)
    pool = (identity,) + result.candidates
    costs = [pl._output_cnots(m._r, legs) for m in pool]
    for m, cost in zip(pool, costs):
        out, _ = _optimize_choosing(monkeypatch, c, p, lambda r: m)
        assert cnot_count(out) - fixed == cost
    # optimize itself takes the first of the cheapest.
    out, report = optimize(c, p)
    assert cnot_count(out) - fixed == min(costs)
    chosen = pool[costs.index(min(costs))]
    assert out == _optimize_choosing(monkeypatch, c, p, lambda r: chosen)[0]
    if name == "fused_angle_zero_once":
        assert sorted(live for _, _, live in legs) == [2, 3]
    if name.startswith("ansatz"):
        assert len(set(costs)) > 1  # the choice matters here


def test_choice_reports_the_chosen_energy():
    c = CHOICE_CASES["ansatz_n6"]()
    _, report = optimize(c, AnnealParams(iterations=300, attempts=6, seed=5))
    assert report.energy_after <= report.energy_chosen
    assert f"energy_chosen={report.energy_chosen}" in report.to_kv().splitlines()
    assert f"(chosen {report.energy_chosen})" in report.to_text()
