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
    "random_gadget_ansatz": "713cc071ce029fcc8e7a78396da73a6319f0106daabfff21b5195c8a08c5cd32",
    "staircase_rx": "af45d8e446c18f085a8222fcca2f6cd3645d372be320ac99718b8aaedddb8e9c",
    "fusion_to_zero": "6d4bc4e208c35d1c1d0e3418691f40ff76f4dff33921b1cb909c27201cecc3bc",
    "random_basis_a": "dbdadd5acf89eca3d0825d8222f9c4d1e20fb01b4d4c6949bd1a43efb3f982b2",
    "random_basis_b": "371fd5afa7596a44d73f2ad520c572ec921b00a5698c86d36a419933f8653dad",
    "random_basis_c": "8d586b6363b1a06cc0bf581ac7a1c2f4342cf8713df901b65cc67b467c7ab494",
    "random_gadget_default_budget": "b9d5eac62388a1c9dad1e480d088c2339f47f90ca803bf588ea08ab7cd4a611f",
}
# No C gives the random basis circuits or the staircase fewer CNOTs than
# their own lowered, peepholed gates, so optimize returns those; in each
# random basis circuit, cancel_cnots then deletes CNOT pairs.
INPUT_SIDE = ("random_basis_a", "random_basis_b", "random_basis_c", "staircase_rx")


def _digest(name: str) -> tuple[str, object]:
    out, report = optimize(CASES[name](), CASE_PARAMS.get(name, PARAMS))
    text = serialize(out) + report.to_kv()
    return hashlib.sha256(text.encode()).hexdigest(), report


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    digest, report = _digest(name)
    assert report.verified == "yes"
    assert report.output == ("input" if name in INPUT_SIDE else "optimized")
    assert digest == PINS[name]


def test_golden_cases_cover_their_shapes():
    _, report = _digest("random_gadget_ansatz")
    assert report.layers_detected >= 2
    # Fusion cannot lower the leg count of this unit, so a lower chosen
    # energy means the output left the identity and both C blocks are emitted.
    assert report.energy_chosen < report.energy_before
    # Here the CNOT bound shows that no C beats the input side, so the anneal
    # is skipped; its energies read the unit's leg count, as nothing fuses.
    _, report = _digest("staircase_rx")
    assert report.layers_detected == 2
    assert report.energy_after == report.energy_before
    _, report = _digest("fusion_to_zero")
    assert report.layers_detected == 3
    # The returned side loses CNOT pairs that meet across commuting gates.
    for name in ("random_basis_a", "random_basis_b", "random_basis_c"):
        _, report = _digest(name)
        assert report.after.cnot_count < report.before.cnot_count
    _, report = _digest("random_gadget_default_budget")
    assert AnnealParams().attempts >= annealing.PACK_MIN_ATTEMPTS  # the packed loop ran
    assert report.layers_detected == 3
    assert report.energy_chosen < report.energy_before
