"""phasefold benchmark: closed-loop `parse -> optimize -> serialize` over seeded workloads.

    python3 perfbench/run.py --workload ansatz_anneal --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30   # every workload, both modes
    python3 perfbench/run.py --self-test

Run from the repository root; the program is imported from ``src/``. One
caller sends the next circuit only after the previous one returns. The
last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``). See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 2  # extra set-ups in fresh processes; setup_s is the median with the run's own
PROBE_TIMEOUT_S = 150
TAIL_GRID = (99, 95, 90, 75)
TAIL_BEYOND = 10
TRACE_LAYERS = (
    "circuits.parse",
    "circuits.serialize",
    "circuits.lower_to_basis",
    "transform.extract",
    "transform.detect_layers",
    "transform.synth_gadget",
    "transform.synth_cnot",
    "gadgets.leg_matrices",
    "anneal.anneal",
    "pipeline.euler_peephole",
    "oracle.unitary_of_circuit",
    "oracle.equiv_up_to_phase",
)
TRACE_COUNTS = (
    ("circuits.parse.gates_out", "count/circuit"),
    ("circuits.serialize.gates_out", "count/circuit"),
    ("circuits.lower_to_basis.gates_out", "count/circuit"),
    ("transform.extract.gadgets_out", "count/circuit"),
    ("transform.detect_layers.repeats", "count/circuit"),
    ("transform.synth_gadget.cnots_out", "count/circuit"),
    ("transform.synth_cnot.cnots_out", "count/circuit"),
    ("gadgets.leg_matrices.legs", "count/circuit"),
    ("anneal.anneal.iterations", "count/circuit"),
    ("pipeline.euler_peephole.gates_removed", "count/circuit"),
    ("oracle.unitary_of_circuit.gates", "count/circuit"),
    ("oracle.unitary_of_circuit.bytes_computed", "B/circuit"),
)


class HarnessError(RuntimeError):
    """The benchmark cannot run: program missing, or a set-up probe failed."""


@dataclass
class Program:
    ci: object
    pipeline: object
    AnnealParams: type


@dataclass
class Record:
    index: int
    latency: float
    failure: str | None
    in_cnots: int = 0
    in_depth: int = 0
    out_cnots: int = 0
    out_depth: int = 0
    layers_detected: int = 0
    out_text: str = ""


def import_program() -> Program:
    """Import phasefold from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "phasefold" / "__init__.py").is_file():
        raise HarnessError(f"no phasefold sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import phasefold
    from phasefold import circuits, pipeline

    if Path(phasefold.__file__).resolve().parent != SRC / "phasefold":
        raise HarnessError(f"imported phasefold from {phasefold.__file__}, not from {SRC}")
    return Program(circuits, pipeline, phasefold.AnnealParams)


def anneal_params(prog: Program, wl, case):
    if wl.attempts is None:
        return prog.AnnealParams(seed=case.anneal_seed)
    return prog.AnnealParams(attempts=wl.attempts, iterations=wl.iterations, seed=case.anneal_seed)


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def setup(wl, seed: int, start: float):
    """Import, generate the quality set and warm up on its first circuit.

    Returns the time since ``start``, which the caller takes before its
    first import of numpy, so that set-up is charged for it.
    """
    prog = import_program()
    cases = [wl.case(seed, i) for i in range(wl.quality_len)]
    p = anneal_params(prog, wl, cases[0])
    out, _ = prog.pipeline.optimize(prog.ci.parse(cases[0].text), p)
    warm_text = prog.ci.serialize(out)
    return prog, cases, warm_text, time.perf_counter() - start


def run_one(prog, wl, case, seed, calls, corrupt=None) -> Record:
    """One timed parse -> optimize -> serialize, then the untimed independent check."""
    import numpy as np  # not at the top: numpy's import belongs inside the set-up clock

    import reference

    parse, optimize, serialize = calls
    start = time.perf_counter()
    try:
        out, report = optimize(parse(case.text), anneal_params(prog, wl, case))
        out_text = serialize(out)
    except Exception as exc:  # a failed request is counted, never fatal
        return Record(case.index, time.perf_counter() - start, f"{type(exc).__name__}: {exc}")
    latency = time.perf_counter() - start
    if corrupt is not None:
        out_text = corrupt(case, out_text)
    failure = None
    if case.n_qubits <= 10 and report.verified != "yes":
        failure = f"verified={report.verified}"
    try:
        n_in, gates_in = reference.read(case.text)
        n_out, gates_out = reference.read(out_text)
        rng = np.random.default_rng(np.random.SeedSequence((seed, case.index, 2)))
        if failure is None and not reference.equivalent(case.text, out_text, rng):
            failure = "independent check: output differs from input"
    except (reference.CheckError, ValueError, IndexError) as exc:
        return Record(case.index, latency, f"independent check: {exc}")
    return Record(
        case.index,
        latency,
        failure,
        reference.cnot_count(gates_in),
        reference.cnot_depth(n_in, gates_in),
        reference.cnot_count(gates_out),
        reference.cnot_depth(n_out, gates_out),
        report.layers_detected,
        out_text,
    )


def timed_loop(prog, wl, seed, seconds, cases, calls, tracer=None):
    """Closed loop until ``seconds`` have passed and the quality set is done."""
    records: list[Record] = []
    start = time.perf_counter()
    i = 0
    while i < wl.quality_len or time.perf_counter() - start < seconds:
        case = cases[i] if i < len(cases) else wl.case(seed, i)
        if tracer is not None:
            tracer.circuit = i
        rec = run_one(prog, wl, case, seed, calls)
        if i >= wl.quality_len:
            rec.out_text = ""  # only quality-set outputs are kept, for the digest
        records.append(rec)
        i += 1
    return records


def tail(latencies: list[float]) -> tuple[int, float, int]:
    """(percentile, value, samples beyond): the highest grid percentile with TAIL_BEYOND beyond.

    Nearest rank. A run too short for any falls back to the lowest grid
    percentile; the provenance records how many samples lie beyond it.
    """
    n = len(latencies)
    for q in TAIL_GRID:
        rank = math.ceil(q / 100 * n)
        if n - rank >= TAIL_BEYOND:
            break
    return q, latencies[rank - 1], n - rank


def position_means(whole: list[Record], round_len: int) -> list[float]:
    """Per round position, the mean latency over the whole rounds of the run.

    Every round repeats one size schedule with fresh inputs, so a position's
    latencies differ by input and by host noise only. The shared host
    switches between speed levels every few seconds; a mean over rounds
    spread across the run weighs each level by the time spent in it, where
    a median or minimum jumps from one level to another.
    """
    rounds = len(whole) // round_len
    return [
        statistics.fmean(whole[r * round_len + p].latency for r in range(rounds))
        for p in range(round_len)
    ]


def openblas_info() -> dict:
    """OpenBLAS build string and thread count of the library numpy loaded (read-only)."""
    info = {"config": "unknown", "threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return info
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    return {"config": get_config().decode(), "threads": get_threads()}
    return info


def environment() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas_info(),
    }


def provenance(wl, seed, records, cases) -> dict:
    quality = records[: wl.quality_len]
    gates = sorted(c.gates for c in cases)
    return {
        "workload": wl.name,
        "why": wl.why,
        "seed": seed,
        "round_len": wl.round_len,
        "quality_circuits": len(quality),
        "n_qubits": dict(sorted(Counter(c.n_qubits for c in cases).items())),
        "layers": dict(sorted(Counter(c.layers for c in cases).items())),
        "kinds": dict(sorted(Counter(c.kind for c in cases).items())),
        "input_gates": {"min": gates[0], "median": statistics.median(gates), "max": gates[-1]},
        "layers_detected_ge2_share": sum(r.layers_detected >= 2 for r in quality) / len(quality),
        "output_digest": digest(r.out_text for r in quality),
        "environment": environment(),
    }


def probe_setups(wl_name: str, seed: int) -> list[tuple[float, str]]:
    """Set up SETUP_PROBES more times, each in a fresh interpreter, one after another."""
    results = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", wl_name,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise HarnessError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append((probe["setup_s"], probe["warm_digest"]))
    return results


def check_determinism(records, warm_text, probes) -> None:
    """Circuit 0 is optimised in set-up, in every probe and in the loop: all outputs must agree."""
    first = records[0]
    if first.failure is None and any(
        d != digest([first.out_text]) for d in [digest([warm_text])] + [p[1] for p in probes]
    ):
        first.failure = "nondeterministic: circuit 0 output differs between set-ups and the loop"


def run_workload(wl, seed: int, seconds: float, trace: bool, start: float) -> tuple[dict, dict]:
    prog, cases, warm_text, setup_s = setup(wl, seed, start)
    probes = probe_setups(wl.name, seed)
    plain = (prog.ci.parse, prog.pipeline.optimize, prog.ci.serialize)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        with tracer.installed(prog.pipeline):
            calls = (
                tracer.wrap("circuits.parse", plain[0], lambda a, k, r: {"gates_out": len(r.gates)}),
                tracer.wrap("pipeline.optimize", plain[1]),
                tracer.wrap(
                    "circuits.serialize", plain[2], lambda a, k, r: {"gates_out": len(a[0].gates)}
                ),
            )
            records = timed_loop(prog, wl, seed, seconds, cases, calls, tracer)
    else:
        records = timed_loop(prog, wl, seed, seconds, cases, plain)
    check_determinism(records, warm_text, probes)

    whole = records[: len(records) // wl.round_len * wl.round_len]
    quality = records[: wl.quality_len]
    means = sorted(position_means(whole, wl.round_len))
    failed = sum(r.failure is not None for r in records)
    tail_pct, tail_s, beyond = tail(means)
    prov = provenance(wl, seed, records, cases)
    prov.update(
        attempted=len(records),
        circuits_in_whole_rounds=len(whole),
        tail_percentile=tail_pct,
        tail_samples_beyond=beyond,
        raw_latency_p50_s=statistics.median(r.latency for r in whole),
        failures=[f"circuit {r.index}: {r.failure}" for r in records if r.failure][:10],
        cnot_in=sum(r.in_cnots for r in quality),
        cnot_out=sum(r.out_cnots for r in quality),
        depth_in=sum(r.in_depth for r in quality),
        depth_out=sum(r.out_depth for r in quality),
    )
    if tracer is None:
        metrics = {
            "circuits_per_s": (wl.round_len / sum(means), "1/s"),
            "optimize_s_p50": (statistics.median(means), "s"),
            "optimize_s_tail": (tail_s, "s"),
            "cnot_ratio": (prov["cnot_out"] / prov["cnot_in"], "ratio"),
            "depth_ratio": (prov["depth_out"] / prov["depth_in"], "ratio"),
            "ok_share": ((len(records) - failed) / len(records), "ratio"),
            "setup_s": (statistics.median([setup_s] + [p[0] for p in probes]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        prov["setup_s_samples"] = [setup_s] + [p[0] for p in probes]
    else:
        metrics = layer_metrics(tracer, whole, quality, wl.round_len)
        spans_path = OUT_DIR / f"spans-{wl.name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        prov["spans_file"] = str(spans_path.relative_to(ROOT))
        prov["spans"] = len(tracer.spans)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, prov


def layer_metrics(tracer, whole, quality, round_len) -> dict:
    """Times per circuit over whole rounds; counts per circuit over the quality set (exact per seed)."""
    w_ids = {r.index for r in whole}
    q_ids = {r.index for r in quality}
    busy, own, _ = tracer.busy_and_self(w_ids)
    _, _, q_calls = tracer.busy_and_self(q_ids)
    w_counts = tracer.counters(w_ids)
    q_counts = tracer.counters(q_ids)
    nw, nq = len(w_ids), len(q_ids)
    metrics = {}
    for layer in TRACE_LAYERS:
        metrics[f"{layer}.busy_s"] = (busy[layer] / nw, "s/circuit")
        metrics[f"{layer}.calls"] = (q_calls[layer] / nq, "count/circuit")
    metrics["pipeline.optimize.busy_s"] = (busy["pipeline.optimize"] / nw, "s/circuit")
    metrics["pipeline.optimize.self_s"] = (own["pipeline.optimize"] / nw, "s/circuit")
    for name, unit in TRACE_COUNTS:
        metrics[name] = (q_counts[name] / nq, unit)
    metrics["anneal.anneal.us_per_iteration"] = (
        1e6 * busy["anneal.anneal"] / max(1, w_counts["anneal.anneal.iterations"]), "us"
    )
    metrics["anneal.anneal.energy_ratio"] = (
        q_counts["anneal.anneal.energy_best"] / max(1, q_counts["anneal.anneal.energy_initial"]),
        "ratio",
    )
    metrics["anneal.anneal.best_attempt_share"] = (
        q_counts["anneal.anneal.best_attempts"] / max(1, q_counts["anneal.anneal.attempts"]),
        "ratio",
    )
    metrics["trace.circuits_per_s"] = (round_len / sum(position_means(whole, round_len)), "1/s")
    return metrics


def print_single(result: dict, prov: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{prov['workload']:<14} {name:<44} {m['value']:>14.6g} {m['unit']}")
    print("provenance " + json.dumps(prov, sort_keys=True))


def run_child(wl_name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", wl_name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{wl_name} --trace {trace} failed:\n{proc.stderr}")
    prov = next(json.loads(l[len("provenance "):]) for l in lines if l.startswith("provenance "))
    return json.loads(lines[-1]), prov


def run_all(seed: int, seconds: float) -> dict:
    """Every workload untraced then traced, each run in a process of its own."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        plain, prov = run_child(name, seed, seconds, 0)
        traced, tprov = run_child(name, seed, seconds, 1)
        print(f"== {name}: {prov['why']}")
        print(f"   {prov['attempted']} circuits, tail at p{prov['tail_percentile']}, "
              f"layers_detected>=2 share {prov['layers_detected_ge2_share']:.2f}")
        ok = plain["metrics"]["ok_share"]["value"]
        rows = dict(plain["metrics"])
        rows["failed_share"] = {"value": 1.0 - ok, "unit": "ratio"}
        for metric, m in rows.items():
            print(f"   {metric:<40} {m['value']:>14.6g} {m['unit']}")
        same = all(prov[k] == tprov[k] for k in ("output_digest", "cnot_out", "depth_out"))
        if not same:
            print("   DETERMINISM FAILURE: the traced run's outputs differ from the untraced run's")
        overhead = rows["circuits_per_s"]["value"] - traced["metrics"]["trace.circuits_per_s"]["value"]
        print(f"   tracing overhead: {overhead:.4g} circuits/s "
              f"({100 * overhead / rows['circuits_per_s']['value']:.1f}% of untraced)")
        opt = traced["metrics"]["pipeline.optimize.busy_s"]["value"]
        for layer in TRACE_LAYERS + ("pipeline.optimize",):
            busy = traced["metrics"][f"{layer}.busy_s"]["value"]
            print(f"   {layer + '.busy_s':<40} {busy:>14.6g} s/circuit {100 * busy / opt:5.1f}%")
        print(f"   {'pipeline.optimize.self_s':<40} "
              f"{traced['metrics']['pipeline.optimize.self_s']['value']:>14.6g} s/circuit")
        for metric, m in traced["metrics"].items():
            if not metric.endswith(("busy_s", "self_s")):
                print(f"   {metric:<40} {m['value']:>14.6g} {m['unit']}")
        combined["correct"] &= plain["correct"] and traced["correct"] and same
        combined["attempted"] += plain["attempted"] + traced["attempted"]
        combined["failed"] += plain["failed"] + traced["failed"] + (0 if same else 1)
        for metric, m in plain["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    return combined


def main(argv=None) -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH_DIR))
    try:
        if args.self_test:
            import selftest

            return selftest.main()
        if args.workload == "all":
            result = run_all(args.seed, args.seconds)
        else:
            from workloads import WORKLOADS

            if args.workload not in WORKLOADS:
                parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
            wl = WORKLOADS[args.workload]
            if args.setup_probe:
                _, _, warm_text, setup_s = setup(wl, args.seed, start)
                print(json.dumps({"setup_s": setup_s, "warm_digest": digest([warm_text])}))
                return 0
            result, prov = run_workload(wl, args.seed, args.seconds, bool(args.trace), start)
            print_single(result, prov)
    except (HarnessError, ImportError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
