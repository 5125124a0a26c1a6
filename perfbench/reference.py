"""Independent output check: its own circuit reader, state-vector simulator and metrics.

Nothing here imports phasefold, so a defect in the program's parser,
oracle or metrics cannot hide a wrong output. Only {CNOT, RZ, RX} text is
accepted, which is all the benchmark's inputs and phasefold's outputs use.
Qubit 0 is the most significant bit of a basis index; equivalence is
checked up to one global phase shared by every probe state.
"""

from __future__ import annotations

import math

import numpy as np

PROBE_STATES = 2
TOLERANCE = 1e-7


class CheckError(ValueError):
    """Circuit text outside the {CNOT, RZ, RX} format this module reads."""


def read(text: str) -> tuple[int, list[tuple]]:
    """(n_qubits, gates) with gates as ("cnot", c, t) or ("rz"|"rx", angle, q)."""
    n = None
    gates: list[tuple] = []
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].lower().split()
        if not parts:
            continue
        if parts[0] == "qubits" and n is None and len(parts) == 2:
            n = int(parts[1])
        elif parts[0] == "cnot" and len(parts) == 3:
            gates.append(("cnot", int(parts[1]), int(parts[2])))
        elif parts[0] in ("rz", "rx") and len(parts) == 3:
            gates.append((parts[0], float(parts[1]), int(parts[2])))
        else:
            raise CheckError(f"unexpected line {raw!r}")
    if n is None:
        raise CheckError("missing qubits declaration")
    return n, gates


def cnot_count(gates: list[tuple]) -> int:
    return sum(1 for g in gates if g[0] == "cnot")


def cnot_depth(n: int, gates: list[tuple]) -> int:
    """Layers holding a CNOT when every gate packs into the earliest free layer."""
    busy = [0] * n
    cnot_layers = set()
    for g in gates:
        qubits = (g[1], g[2]) if g[0] == "cnot" else (g[2],)
        layer = 1 + max(busy[q] for q in qubits)
        for q in qubits:
            busy[q] = layer
        if g[0] == "cnot":
            cnot_layers.add(layer)
    return len(cnot_layers)


def _at(n: int, fixed: dict[int, int]) -> tuple:
    return tuple(fixed.get(axis, slice(None)) for axis in range(n))


def simulate(n: int, gates: list[tuple], states: np.ndarray) -> np.ndarray:
    """Apply the gates, in order, to each column of ``states`` (shape 2^n x k)."""
    psi = states.reshape((2,) * n + (states.shape[1],)).copy()
    for g in gates:
        if g[0] == "cnot":
            _, c, t = g
            lo, hi = _at(n, {c: 1, t: 0}), _at(n, {c: 1, t: 1})
            swap = psi[lo].copy()
            psi[lo] = psi[hi]
            psi[hi] = swap
            continue
        kind, theta, q = g
        zero, one = _at(n, {q: 0}), _at(n, {q: 1})
        if kind == "rz":
            psi[zero] *= complex(math.cos(theta / 2), -math.sin(theta / 2))
            psi[one] *= complex(math.cos(theta / 2), math.sin(theta / 2))
        else:
            c, s = math.cos(theta / 2), math.sin(theta / 2)
            a0, a1 = psi[zero].copy(), psi[one].copy()
            psi[zero] = c * a0 - 1j * s * a1
            psi[one] = -1j * s * a0 + c * a1
    return psi.reshape(states.shape)


def probe_states(n: int, rng: np.random.Generator) -> np.ndarray:
    """PROBE_STATES Haar-like random states as the columns of a 2^n x k matrix."""
    raw = rng.normal(size=(1 << n, PROBE_STATES)) + 1j * rng.normal(size=(1 << n, PROBE_STATES))
    return raw / np.linalg.norm(raw, axis=0)


def equivalent(text_a: str, text_b: str, rng: np.random.Generator) -> bool:
    """True when both circuits map the probe states alike, up to one global phase."""
    n_a, gates_a = read(text_a)
    n_b, gates_b = read(text_b)
    if n_a != n_b:
        return False
    states = probe_states(n_a, rng)
    u = simulate(n_a, gates_a, states)
    v = simulate(n_b, gates_b, states)
    overlap = np.vdot(v[:, 0], u[:, 0])
    if abs(overlap) < 0.5:
        return False
    phase = overlap / abs(overlap)
    return float(np.max(np.abs(u - phase * v))) < TOLERANCE
