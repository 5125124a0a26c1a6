"""Self-test of the harness: ``python3 perfbench/run.py --self-test``.

Checks the independent simulator on known facts, that a deliberately
corrupted output is counted as failed, that inputs and outputs repeat for
a fixed seed, and that tracing restores the program's names on exit.
"""

from __future__ import annotations

import numpy as np

import reference
import run
from tracing import LAYERS, Tracer, resolve
from workloads import WORKLOADS


def _check(name: str, ok: bool, failures: list[str]) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}")
    if not ok:
        failures.append(name)


def _drop_last_rotation(case, text: str) -> str:
    lines = text.splitlines()
    keep = [i for i, line in enumerate(lines) if line.startswith(("rz", "rx"))]
    if keep:
        del lines[keep[-1]]
    else:
        lines.append(f"rx 0.5 {case.n_qubits - 1}")
    return "\n".join(lines) + "\n"


def main() -> int:
    failures: list[str] = []
    rng = np.random.default_rng(0)

    basis10 = np.zeros((4, 1), complex)
    basis10[2, 0] = 1  # |10>: qubit 0 is the most significant bit
    out = reference.simulate(2, [("cnot", 0, 1)], basis10)
    _check("cnot 0 1 maps |10> to |11>", abs(out[3, 0] - 1) < 1e-12, failures)
    psi = reference.probe_states(1, rng)
    rz = reference.simulate(1, [("rz", 0.7, 0)], psi)
    want = np.diag([np.exp(-0.35j), np.exp(0.35j)]) @ psi
    _check("rz matches diag(e^-it/2, e^it/2)", np.allclose(rz, want), failures)
    eq = reference.equivalent
    _check("cnot pair equals identity", eq("qubits 2\ncnot 0 1\ncnot 0 1\n", "qubits 2\n", rng), failures)
    _check("different angles are told apart",
           not eq("qubits 1\nrx 3.14159 0\n", "qubits 1\nrx 1.0 0\n", rng), failures)
    _check("global phase is ignored: rz(2pi) equals identity",
           eq("qubits 1\nrz 6.283185307179586 0\n", "qubits 1\n", rng), failures)

    wl = WORKLOADS["gate_level"]
    _check("inputs repeat for a fixed seed", wl.case(5, 7) == wl.case(5, 7), failures)
    _check("inputs change with the seed", wl.case(5, 7).text != wl.case(6, 7).text, failures)

    prog = run.import_program()
    calls = (prog.ci.parse, prog.pipeline.optimize, prog.ci.serialize)
    cases = [wl.case(3, i) for i in range(6)]
    clean = [run.run_one(prog, wl, c, 3, calls) for c in cases]
    _check("clean outputs pass every check", all(r.failure is None for r in clean), failures)

    def corrupt_one(case, text):
        return _drop_last_rotation(case, text) if case.index == 2 else text

    bad = [run.run_one(prog, wl, c, 3, calls, corrupt_one) for c in cases]
    flagged = [r.index for r in bad if r.failure is not None]
    _check("a corrupted output is counted as failed", flagged == [2], failures)
    again = [run.run_one(prog, wl, c, 3, calls) for c in cases]
    _check("outputs repeat for a fixed seed",
           [r.out_text for r in again] == [r.out_text for r in clean], failures)

    def current():
        return [getattr(*resolve(prog.pipeline, attr)) for _, attr, _ in LAYERS]

    before = current()
    tracer = Tracer()
    with tracer.installed(prog.pipeline):
        run.run_one(prog, wl, cases[0], 3, calls)
    _check("tracing records spans", len(tracer.spans) > 0, failures)
    _check("tracing restores the program's names", before == current(), failures)

    print("self-test " + ("passed" if not failures else f"FAILED: {failures}"))
    return 0 if not failures else 1
