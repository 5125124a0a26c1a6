"""Golden output pins: byte-exact optimize output on fixed-seed inputs.

Each case hashes ``serialize(out) + report.to_kv()``. Every case but one
anneals 3 x 300, one chain at a time; ``random_gadget_default_budget``
takes the default 20 x 5000 budget, so the packed loop is pinned end to
end. A refactor must leave every hash unchanged; a change that alters
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
    "random_gadget_ansatz": "6b739206190dc5d576ee4260b56ced87df3dbfe0341bdcac9276fda5a9a69589",
    "staircase_rx": "fe4734538155648b70bcff9e5b16addca9db049e8b2aa5de1ae26db7eeef8844",
    "fusion_to_zero": "df83d8ce3b6e2e522e3c708107fa87116b594d5507da4a9e11384a351169c3a7",
    "random_basis_a": "4e0818f4e7382972ed4f67220cb4ab93439f68c2841e0b5c7c095e3832372ae3",
    "random_basis_b": "2a0a81326e733f5117c3eb9b5985380ce4947064b33088c2177154102b2dd4fa",
    "random_basis_c": "64bef79ed067cbe436ebf505cb2127f20ff33454998d0a505fe4a2fde765daf7",
    "random_gadget_default_budget": "14134af837d4ebfa18546d3a90dc7709ef7f4e52ad96d5021c2cbbeee4244167",
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
    # Fusion cannot lower the leg count of this unit, so a lower energy
    # means the annealer left the identity and both C blocks are emitted.
    assert report.energy_after < report.energy_before
    # Here the anneal keeps C = I, the case whose C blocks are empty.
    _, report = _digest("staircase_rx")
    assert report.layers_detected == 2
    assert report.energy_after == report.energy_before
    _, report = _digest("fusion_to_zero")
    assert report.layers_detected == 3
    _, report = _digest("random_gadget_default_budget")
    assert AnnealParams().attempts >= annealing.PACK_MIN_ATTEMPTS  # the packed loop ran
    assert report.layers_detected == 3
    assert report.energy_after < report.energy_before
