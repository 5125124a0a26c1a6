"""Golden output pins: byte-exact optimize output on fixed-seed inputs.

Each case hashes ``serialize(out) + report.to_kv()``. A refactor must
leave every hash unchanged; a change that alters behaviour on purpose
updates the pins and says why in CHANGES.md.
"""

import hashlib
import math

import numpy as np
import pytest

from phasefold import circuits as ci
from phasefold.anneal import AnnealParams
from phasefold.circuits import GateCircuit, serialize
from phasefold.gadgets import gadget_circuit
from phasefold.pipeline import AnsatzSpec, generate, optimize
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
    "staircase_rx": lambda: generate(AnsatzSpec("staircase", 4, layers=8, seed=5, with_rx=True)),
    "fusion_to_zero": _cancelling_unit,
    "random_basis_a": lambda: _random_basis(1, 3, 20),
    "random_basis_b": lambda: _random_basis(2, 4, 30),
    "random_basis_c": lambda: _random_basis(3, 5, 40),
}

PINS = {
    "random_gadget_ansatz": "98338092239ec7a301b7fd418d625c017bd2fe16cab3d10bd88e350e0966ebaf",
    "staircase_rx": "fe4734538155648b70bcff9e5b16addca9db049e8b2aa5de1ae26db7eeef8844",
    "fusion_to_zero": "ad765b50b367ca6374879bfbe5bf1309a42fc25962c0b9fb073776a5878ac820",
    "random_basis_a": "c6ed039b25402ff235a5aa5511266019a575c4b3520cca9d436d669d6c1513a0",
    "random_basis_b": "d3170bd5f2484a0e56ac2bac249bb92b47b0a4aca3334b5f48a2b79d367f13eb",
    "random_basis_c": "738f07744b83dfb4c86c8aa576efc503a1388bfaca209e8f4b07ea8910a1bfe7",
}


def _digest(name: str) -> tuple[str, object]:
    out, report = optimize(CASES[name](), PARAMS)
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
    # Fusion cannot lower the leg count of this unit, so a lower energy
    # means the annealer left the identity and both C blocks are emitted.
    assert report.energy_after < report.energy_before
    # Here the anneal keeps C = I, the case whose C blocks are empty.
    _, report = _digest("staircase_rx")
    assert report.layers_detected == 2
    assert report.energy_after == report.energy_before
    _, report = _digest("fusion_to_zero")
    assert report.layers_detected == 3
