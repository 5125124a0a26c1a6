"""Golden output pins: byte-exact optimize output on fixed-seed inputs.

Each case hashes ``serialize(out) + report.to_kv()``. Every case but one
anneals 3 x 300, one chain at a time; ``random_gadget_default_budget``
takes the default budget (``annealing.DEFAULT_ATTEMPTS`` x
``DEFAULT_ITERATIONS``), so the packed loop and the choice of C among
its 20 candidates are pinned end to end. A refactor must leave every hash unchanged; a change that alters
behaviour on purpose updates the pins and says why in CHANGES.md.
"""

import hashlib
import math

import numpy as np
import pytest

from phasefold import annealing
from phasefold import circuits as ci
from phasefold.annealing import AnnealParams
from phasefold.circuits import GateCircuit, serialize
from phasefold.gadgets import gadget_circuit
from phasefold.ansatz import AnsatzSpec, generate
from phasefold.pipeline import optimize
from phasefold.transform import synth_gadget_circuit

PARAMS = AnnealParams(iterations=300, attempts=3, seed=7)


def _random_basis(seed: int, n: int, n_gates: int) -> GateCircuit:
    rng = np.random.default_rng(seed)
    gates = []
    for _ in range(n_gates):
        k = int(rng.integers(3))
        if k == 0 and n > 1:
            a, b = rng.permutation(n)[:2]
            gates.append(ci.cnot(int(a), int(b)))
        elif k == 1:
            gates.append(ci.rz(float(rng.uniform(-math.pi, math.pi)), int(rng.integers(n))))
        else:
            gates.append(ci.rx(float(rng.uniform(-math.pi, math.pi)), int(rng.integers(n))))
    return GateCircuit(n, tuple(gates))


def _cancelling_unit() -> GateCircuit:
    # Each layer is Z(t) 1100 ; X(0.7) 1111 ; Z(s) 1100. The two Z gadgets
    # commute past the X one and fuse; in layers 0 and 2, s = -t, so the
    # fused angle is zero and the gadget drops from that layer only.
    specs = []
    for t, s in ((0.4, -0.4), (0.9, 0.3), (1.3, -1.3)):
        specs += [("Z", t, "1100"), ("X", 0.7, "1111"), ("Z", s, "1100")]
    return synth_gadget_circuit(gadget_circuit(4, specs), "ladder")


CASES = {
    "random_gadget_ansatz": lambda: synth_gadget_circuit(
        generate(AnsatzSpec("random_gadget", 5, layers=3, gadgets_per_layer=6, seed=11)),
        "ladder",
    ),
    # Its angles are drawn from [0, 2*pi), so lowering reduces those above pi.
    "staircase_rx": lambda: generate(AnsatzSpec("staircase", 4, layers=8, seed=5, with_rx=True)),
    "fusion_to_zero": _cancelling_unit,
    "random_basis_a": lambda: _random_basis(1, 3, 20),
    "random_basis_b": lambda: _random_basis(2, 4, 30),
    "random_basis_c": lambda: _random_basis(3, 5, 40),
    "random_gadget_default_budget": lambda: synth_gadget_circuit(
        generate(AnsatzSpec("random_gadget", 6, layers=3, gadgets_per_layer=8, seed=13)),
        "ladder",
    ),
}
CASE_PARAMS = {"random_gadget_default_budget": AnnealParams(seed=7)}

PINS = {
    "random_gadget_ansatz": "fd6cb8a0e9a053346b47071b00230db3352c4d3e88cdeb77c86d2559a5a76f09",
    "staircase_rx": "f1a7aa903248330ffec3e35a70968c92b07c1423846a05a31940fe5ec4035fbd",
    "fusion_to_zero": "60aff4e0b72691ab94b33683a730d6d76a0826da96cafcac91b8c7373c15ed62",
    "random_basis_a": "153556a8aebe7fac46ede756bc5028562aad730adb43c3be336b48e4deaa05b7",
    "random_basis_b": "afeb4179987d1e0359847ed4055cb31e28373ed529204393c1ebf66219ebe685",
    "random_basis_c": "5c94278672ef82aac3ce5e8630047838b7642552cb8192afb347421262665daa",
    "random_gadget_default_budget": "46757a6738638856474c66e8f0cb8476bf6e9b785b46393931a23ae4ce10be8f",
}


def _digest(name: str) -> tuple[str, object]:
    out, report = optimize(CASES[name](), CASE_PARAMS.get(name, PARAMS))
    text = serialize(out) + report.to_kv()
    return hashlib.sha256(text.encode()).hexdigest(), report


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    digest, report = _digest(name)
    assert report.verified == "yes"
    assert digest == PINS[name]


def test_golden_cases_cover_their_shapes():
    _, report = _digest("random_gadget_ansatz")
    assert report.layers_detected >= 2
    # Fusion cannot lower the leg count of this unit, so a lower chosen
    # energy means the output left the identity and both C blocks are emitted.
    assert report.energy_chosen < report.energy_before
    # Here the anneal keeps C = I, the case whose C blocks are empty.
    _, report = _digest("staircase_rx")
    assert report.layers_detected == 2
    assert report.energy_after == report.energy_before
    _, report = _digest("fusion_to_zero")
    assert report.layers_detected == 3
    _, report = _digest("random_gadget_default_budget")
    assert AnnealParams().attempts >= annealing.PACK_MIN_ATTEMPTS  # the packed loop ran
    assert report.layers_detected == 3
    assert report.energy_chosen < report.energy_before
