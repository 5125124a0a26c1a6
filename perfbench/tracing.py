"""Spans and counters recorded around calls into phasefold's layers.

``Tracer.installed(pipeline)`` replaces, for the duration of a ``with``
block, the names ``phasefold.pipeline`` imported from the other modules
with timing wrappers, and restores them afterwards. No file of the
program changes. Each span is (name, start, end, parent span, circuit id);
spans stay in memory until ``write`` dumps them at the end of the run.
Counters are attributed to the circuit being optimised.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


def _anneal_counts(args, kwargs, result):
    params = args[2] if len(args) > 2 else kwargs["p"]
    iterations = params.iterations
    per_attempt = result.per_attempt_energies
    best = min(per_attempt) if per_attempt else None
    return {
        "iterations": len(per_attempt) * iterations,
        "attempts": len(per_attempt),
        "best_attempts": sum(1 for e in per_attempt if e == best),
        "energy_best": result.best_energy,
        "energy_initial": result.initial_energy,
    }


def _cnots(gates) -> int:
    return sum(1 for g in gates if g.kind == "cnot")


# (span name, attribute of phasefold.pipeline or of its ``ci`` module, counter function)
LAYERS = (
    ("circuits.lower_to_basis", "ci.lower_to_basis", lambda a, k, r: {"gates_out": len(r.gates)}),
    ("transform.extract", "extract", lambda a, k, r: {"gadgets_out": len(r.gadgets.entries)}),
    ("transform.detect_layers", "detect_layers", lambda a, k, r: {"repeats": r.repeats}),
    ("transform.synth_gadget", "synth_gadget", lambda a, k, r: {"cnots_out": _cnots(r.gates)}),
    ("transform.synth_cnot", "synth_cnot", lambda a, k, r: {"cnots_out": len(r.cnots)}),
    (
        "gadgets.leg_matrices",
        "leg_matrices",
        lambda a, k, r: {"legs": sum(w.bit_count() for m in r for w in m._r)},
    ),
    ("anneal.anneal", "anneal", _anneal_counts),
    (
        "pipeline.euler_peephole",
        "euler_peephole",
        lambda a, k, r: {"gates_removed": len(a[0].gates) - len(r.gates)},
    ),
    (
        "oracle.unitary_of_circuit",
        "unitary_of_circuit",
        lambda a, k, r: {
            "gates": len(a[0].gates),
            "bytes_computed": len(a[0].gates) * 16 * 4 ** a[0].n_qubits,
        },
    ),
    ("oracle.equiv_up_to_phase", "equiv_up_to_phase", None),
)


def resolve(pipeline, attr: str):
    """(owner module, name) for a LAYERS attribute of ``phasefold.pipeline``."""
    if attr.startswith("ci."):
        return pipeline.ci, attr.removeprefix("ci.")
    return pipeline, attr


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.circuit = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.circuit)
            if counter is not None:
                bucket = self.counts[self.circuit]
                for key, value in counter(args, kwargs, result).items():
                    bucket[f"{name}.{key}"] += value
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, pipeline):
        saved = []
        try:
            for name, attr, counter in LAYERS:
                owner, attr = resolve(pipeline, attr)
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def busy_and_self(self, circuits: set[int]) -> tuple[dict, dict, dict]:
        """Per-layer busy seconds, self seconds and call counts over the given circuits."""
        busy: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, start, end, parent, circuit in self.spans:
            if circuit in circuits:
                busy[name] += end - start
                calls[name] += 1
                if parent >= 0:
                    child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, circuit) in enumerate(self.spans):
            if circuit in circuits:
                own[name] += end - start - child[idx]
        return busy, own, calls

    def counters(self, circuits) -> dict[str, float]:
        total: dict[str, float] = defaultdict(float)
        for c in circuits:
            for key, value in self.counts.get(c, {}).items():
                total[key] += value
        return total

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent span, circuit id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
