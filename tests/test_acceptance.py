"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
PASS lines and timings.
"""

import functools
import itertools
import math
import time

import numpy as np

from phasefold import circuits as ci
from phasefold.annealing import AnnealParams, anneal, energy
from phasefold.circuits import GateCircuit, euler_xzx_to_zxz, lower_to_basis
from phasefold.gadgets import GadgetCircuit, GadgetEntry, gadget_circuit, leg_matrices
from phasefold.gf2 import (
    BitMatrix,
    BitVec,
    inverse_transpose,
    mat_mul,
    rank,
)
from phasefold.oracle import equiv_up_to_phase, unitary_of_circuit
from phasefold.ansatz import AnsatzSpec, generate, mppp_period
from phasefold.pipeline import VERIFY_TOL, metrics_of, optimize
from phasefold.transform import CnotCircuit, h_x, h_z, synth_gadget_circuit
from gate_matrices import rx_matrix, rz_matrix


def _report(k: int, started: float, detail: str) -> None:
    print(f"criterion {k}: PASS ({time.perf_counter() - started:.2f}s) {detail}")


def test_criterion_1_worked_example():
    started = time.perf_counter()
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
    lz, lx = leg_matrices(g)
    assert lz == BitMatrix.from_rows([[1, 1, 1], [1, 0, 1], [0, 0, 0]])
    assert lx == BitMatrix.from_rows([[1, 1], [1, 1], [1, 0]])
    assert energy(BitMatrix.identity(3), lz, lx) == 10

    # Brute-force oracle: exhaustive minimum over all of GL(3,2).
    count = 0
    optimum = None
    for bits in itertools.product((0, 1), repeat=9):
        m = BitMatrix.from_rows([bits[0:3], bits[3:6], bits[6:9]])
        if rank(m) == 3:
            count += 1
            e = energy(m, lz, lx)
            optimum = e if optimum is None else min(optimum, e)
    assert count == 168

    res = anneal(lz, lx, AnnealParams())  # default parameters
    assert res.best_energy <= 6  # the printed example solution's score
    assert res.best_energy == optimum
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 1 exceeded 1 s ({elapsed:.2f}s)"
    _report(1, started, f"energy 10 -> {res.best_energy} == GL(3,2) optimum {optimum}")


def test_criterion_2_inverse_transpose_property():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        pairs = []
        for _ in range(int(rng.integers(0, 30))):
            a, b = rng.permutation(n)[:2]
            pairs.append((int(a), int(b)))
        c = CnotCircuit(n, tuple(pairs))
        assert h_x(c) == inverse_transpose(h_z(c))
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"criterion 2 exceeded 5 s ({elapsed:.2f}s)"
    _report(2, started, "h_x == inverse_transpose(h_z) on 1000 random CNOT circuits")


def test_criterion_3_semantic_preservation():
    started = time.perf_counter()
    rng = np.random.default_rng(2025)
    params = AnnealParams(iterations=250, attempts=2, seed=17)
    assert VERIFY_TOL == 1e-9  # optimize's own oracle check runs at 1e-9
    for trial in range(200):
        n = int(rng.integers(1, 7))
        gates = []
        for _ in range(int(rng.integers(1, 41))):
            k = int(rng.integers(3))
            if k == 0 and n > 1:
                a, b = rng.permutation(n)[:2]
                gates.append(ci.cnot(int(a), int(b)))
            elif k == 1:
                gates.append(ci.rz(float(rng.uniform(-math.pi, math.pi)), int(rng.integers(n))))
            else:
                gates.append(ci.rx(float(rng.uniform(-math.pi, math.pi)), int(rng.integers(n))))
        c = GateCircuit(n, tuple(gates))
        out, report = optimize(c, params)
        assert report.verified == "yes", f"trial {trial} failed verification"
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"criterion 3 exceeded 2 min ({elapsed:.2f}s)"
    _report(3, started, "200 random circuits optimised and oracle-verified at 1e-9")


def test_criterion_4_commutation_theorem():
    started = time.perf_counter()
    rng = np.random.default_rng(2026)
    from phasefold.gadgets import commutes

    for _ in range(500):
        n = int(rng.integers(1, 5))
        a = GadgetEntry(
            "Z" if rng.integers(2) else "X",
            float(rng.uniform(0.4, 2.7)),
            BitVec(n, int(rng.integers(1, 1 << n))),
        )
        b = GadgetEntry(
            "Z" if rng.integers(2) else "X",
            float(rng.uniform(0.4, 2.7)),
            BitVec(n, int(rng.integers(1, 1 << n))),
        )
        ua = unitary_of_circuit(GadgetCircuit(n, (a,)))
        ub = unitary_of_circuit(GadgetCircuit(n, (b,)))
        norm = float(np.max(np.abs(ua @ ub - ub @ ua)))
        if commutes(a, b):
            assert norm < 1e-9
        else:
            assert norm > 1e-3
    _report(4, started, "predicate matches commutator norm on 500 gadget pairs")


def test_criterion_5_periodicity():
    started = time.perf_counter()
    layer = CnotCircuit(4, tuple((q, q + 1) for q in range(2, -1, -1)))
    a = h_z(layer)
    printed = {
        1: [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]],
        2: [[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]],
        3: [[1, 1, 1, 1], [0, 1, 1, 1], [0, 0, 1, 1], [0, 0, 0, 1]],
    }
    for k, grid in printed.items():
        assert functools.reduce(mat_mul, [a] * k) == BitMatrix.from_rows(grid)
    assert mppp_period(layer) == 4

    rng = np.random.default_rng(2027)
    for _ in range(200):
        n = int(rng.integers(1, 17))
        grid = [[0] * n for _ in range(n)]
        for i in range(n):
            grid[i][i] = 1
            for j in range(i + 1, n):
                grid[i][j] = int(rng.integers(2))
        b = BitMatrix.from_rows(grid)
        m = 1 << max(0, (n - 1).bit_length())
        assert functools.reduce(mat_mul, [b] * m) == BitMatrix.identity(n)
    _report(5, started, "staircase powers match print; triangular order bound holds")


def test_criterion_6_euler_reconstruction():
    started = time.perf_counter()
    rng = np.random.default_rng(2028)
    for _ in range(1000):
        a1, a2, a3 = rng.uniform(-math.pi, math.pi, size=3)
        b1, b2, b3 = euler_xzx_to_zxz(a1, a2, a3)
        got = rz_matrix(b3) @ rx_matrix(b2) @ rz_matrix(b1)
        want = rx_matrix(a3) @ rz_matrix(a2) @ rx_matrix(a1)
        assert equiv_up_to_phase(got, want)
    _report(6, started, "1000 random triples reconstruct within 1e-9")


def test_criterion_7_benchmark_trend():
    started = time.perf_counter()
    layer_counts = (1, 2, 5, 10)
    samples = 10
    savings = {}
    for layers in layer_counts:
        deltas = []
        for s in range(samples):
            # Same per-sample unit across layer counts: paired comparison.
            spec = AnsatzSpec("random_gadget", 8, layers=layers, gadgets_per_layer=10, seed=9000 + s)
            before = synth_gadget_circuit(generate(spec), "ladder")
            out, _ = optimize(before, AnnealParams(seed=s), verify=False)
            b, a = metrics_of(before).cnot_depth, metrics_of(out).cnot_depth
            deltas.append(100.0 * (b - a) / b)
        savings[layers] = sum(deltas) / len(deltas)
    trend = [savings[l] for l in layer_counts]
    assert all(trend[i] <= trend[i + 1] + 1e-9 for i in range(len(trend) - 1)), trend
    assert trend[-1] >= 40.0, trend
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0, f"criterion 7 exceeded 10 min ({elapsed:.2f}s)"
    detail = ", ".join(f"{l}L {savings[l]:.0f}%" for l in layer_counts)
    _report(7, started, f"mean depth savings {detail}")


def test_criterion_8_gate_conversion_fidelity():
    started = time.perf_counter()
    rng = np.random.default_rng(2029)

    def printed_cu1(theta):
        return np.diag([1, 1, 1, np.exp(1j * theta)])

    def printed_crz(theta):
        return np.diag([1, 1, np.exp(-0.5j * theta), np.exp(0.5j * theta)])

    def printed_crx(theta):
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        m = np.eye(4, dtype=complex)
        m[2:, 2:] = [[c, -1j * s], [-1j * s, c]]
        return m

    for maker, printed in (
        (ci.cu1, printed_cu1),
        (ci.crz, printed_crz),
        (ci.crx, printed_crx),
    ):
        for _ in range(50):
            theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            lowered = lower_to_basis(GateCircuit(2, (maker(theta, 0, 1),)))
            assert all(g.kind in ("cnot", "rz", "rx") for g in lowered.gates)
            assert equiv_up_to_phase(
                unitary_of_circuit(lowered), printed(theta)
            )
    _report(8, started, "CU1/CRZ/CRX lowerings match printed matrices at 1e-9")
