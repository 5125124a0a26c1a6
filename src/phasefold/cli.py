"""Command-line surface: extract, optimize, verify and the bench harness.

Exit codes are stable: 0 success, 1 input error, 2 verification failure.
All commands are deterministic for a fixed ``--seed``.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace

import numpy as np

from .annealing import DEFAULT_ATTEMPTS, DEFAULT_ITERATIONS, AnnealParams, anneal
from .ansatz import AnsatzSpec, generate
from .circuits import QUBIT_LIMIT, lex, parse, serialize
from .gf2 import random_matrix
from .oracle import VERIFY_TOL, product_error
from .pipeline import VerificationError, metrics_of, optimize
from .transform import (
    extract as extract_nf,
    parse_normal_form,
    serialize_normal_form,
    synth_gadget_circuit,
)
from . import circuits as ci


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _anneal_params(args) -> AnnealParams:
    return AnnealParams(
        t0=args.t0,
        iterations=args.iterations,
        attempts=args.attempts,
        seed=args.seed,
    )


def cmd_extract(args) -> int:
    circuit = parse(_read(args.input))
    nf = extract_nf(ci.lower_to_basis(circuit))
    _write(args.output, serialize_normal_form(nf))
    return 0


def cmd_optimize(args) -> int:
    _check_budget(args.attempts, args.iterations)
    circuit = parse(_read(args.input))
    out, report = optimize(
        circuit,
        _anneal_params(args),
        shape=args.shape,
        verify=not args.no_verify,
    )
    text = serialize(out)
    report_text = report.to_kv() if args.report == "kv" else report.to_text()
    if args.output is None:
        sys.stdout.write(text)
        sys.stderr.write(report_text + "\n")
    else:
        _write(args.output, text)
        sys.stdout.write(report_text + "\n")
    return 0


def _load(path: str):
    text = _read(path)
    if any(head in ("zgadget", "xgadget") for _, head, _ in lex(text)):
        return parse_normal_form(text)
    return parse(text)


def cmd_verify(args) -> int:
    err = product_error(_load(args.a), _load(args.b))
    if err < VERIFY_TOL:
        print(f"equal error={err:.3e}")
        return 0
    print(f"different error={err:.3e}")
    return 2


def _bench_cells(args):
    """Per-cell results: {(gadgets, layers): [(before, after metrics), ...]}."""
    anneal_params = _anneal_params(args)
    # Every cell's specs are built, and so checked, before the first optimize.
    specs = {
        (g, layers): [
            AnsatzSpec(
                "random_gadget", args.qubits, layers, g,
                seed=int(np.random.SeedSequence((args.seed, g, layers, s)).generate_state(1)[0]),
            )
            for s in range(args.samples)
        ]
        for g in args.gadgets
        for layers in args.layers
    }
    results: dict[tuple[int, int], list[tuple]] = {}
    for cell, cell_specs in specs.items():
        results[cell] = []
        for spec in cell_specs:
            before = synth_gadget_circuit(generate(spec), "ladder")
            params = replace(anneal_params, seed=spec.seed)
            out, _ = optimize(before, params, shape=args.shape, verify=False)
            results[cell].append((metrics_of(before), metrics_of(out)))
    return results


def _delta(before: float, after: float) -> str:
    if before <= 0:
        return "-"
    pct = round(100.0 * (before - after) / before)
    return f"{pct}%" if pct >= 0 else "worse"


def _bench_table(args, results) -> str:
    lines = []
    for metric, attr in (("CNOT depth", "cnot_depth"), ("CNOT count", "cnot_count")):
        lines.append(f"== {metric} ==")
        header = f"{'gadgets':>8} |"
        for layers in args.layers:
            header += f" {layers:>3} layer(s): before after delta |"
        lines.append(header)
        for g in args.gadgets:
            row = f"{g:>8} |"
            for layers in args.layers:
                cell = results[(g, layers)]
                before = round(sum(getattr(b, attr) for b, _ in cell) / len(cell))
                after = round(sum(getattr(a, attr) for _, a in cell) / len(cell))
                row += f" {before:>17} {after:>5} {_delta(before, after):>5} |"
            lines.append(row)
        lines.append("")
    return "\n".join(lines)


def _bench_csv(args, results) -> str:
    lines = ["kind,n,gadgets,layers,sample,metric,before,after"]
    for (g, layers), cell in results.items():
        for s, (before, after) in enumerate(cell):
            for metric, attr in (("cnot_count", "cnot_count"), ("cnot_depth", "cnot_depth")):
                lines.append(
                    f"random_gadget,{args.qubits},{g},{layers},{s},"
                    f"{metric},{getattr(before, attr)},{getattr(after, attr)}"
                )
    return "\n".join(lines) + "\n"


SWEEP_AXES = ("attempts", "iterations", "width", "height")
WIDTH_LIMIT = 4096  # most gadgets per ansatz layer, or leg-matrix columns, a bench run draws
ANSATZ_LIMIT = 65536  # most gadgets per layer times layers in one bench table's ansatz
ITERATION_LIMIT = 1_000_000  # most anneal steps per attempt a run asks for
ATTEMPT_LIMIT = 4096  # most anneal attempts a run asks for


def _check_budget(attempts: int, iterations: int) -> None:
    """Reject an anneal budget above its limits before anything is drawn."""
    for name, value, limit in (
        ("attempts", attempts, ATTEMPT_LIMIT),
        ("iterations", iterations, ITERATION_LIMIT),
    ):
        if value > limit:
            raise ValueError(f"{name} expects at most {limit}, got {value}")


def _sweep_csv(args) -> str:
    """Univariate annealing study on uniformly random leg matrices.

    A height is a qubit count, so past ``QUBIT_LIMIT`` it is rejected, as
    in a file, before any matrix is drawn.
    """
    values = args.sweep_values
    height = max(values) if args.sweep == "height" else args.qubits
    if height > QUBIT_LIMIT:
        raise ValueError(f"height expects at most {QUBIT_LIMIT} qubits, got {height}")
    lines = ["axis,value,sample,energy_before,energy_after"]
    for value in values:
        # The swept axis comes last, so its value overrides the flag's.
        setting = {"attempts": args.attempts, "iterations": args.iterations,
                   "width": args.gadgets[0], "height": args.qubits, args.sweep: value}
        params = AnnealParams(
            t0=args.t0, iterations=setting["iterations"], attempts=setting["attempts"]
        )
        # A budget sweep anneals the same instances at every value; a shape
        # sweep needs instances of each value's shape.
        key = (value,) if args.sweep in ("width", "height") else ()
        for s in range(args.samples):
            rng = np.random.default_rng(
                np.random.SeedSequence((args.seed, SWEEP_AXES.index(args.sweep), *key, s))
            )
            lz = random_matrix(setting["height"], setting["width"], rng)
            lx = random_matrix(setting["height"], setting["width"], rng)
            res = anneal(lz, lx, replace(params, seed=s))
            lines.append(
                f"{args.sweep},{value},{s},{res.initial_energy},{res.best_energy}"
            )
    return "\n".join(lines) + "\n"


def cmd_bench(args) -> int:
    if args.samples < 1:
        print("error: --samples must be >= 1", file=sys.stderr)
        return 1
    if args.sweep is None and args.sweep_values is not None:
        print("error: --sweep-values needs --sweep", file=sys.stderr)
        return 1
    if args.sweep is not None and not args.sweep_values:
        print("error: --sweep needs --sweep-values", file=sys.stderr)
        return 1
    # A width, a budget and an ansatz are checked, as a height is, before
    # anything is drawn; a swept value stands in for its flag.
    swept = {} if args.sweep is None else {args.sweep: max(args.sweep_values)}
    width = swept.get("width", max(args.gadgets))
    if width > WIDTH_LIMIT:
        print(f"error: width expects at most {WIDTH_LIMIT} gadgets, got {width}", file=sys.stderr)
        return 1
    _check_budget(swept.get("attempts", args.attempts), swept.get("iterations", args.iterations))
    gadgets = max(args.gadgets) * max(args.layers)
    if args.sweep is None and gadgets > ANSATZ_LIMIT:
        raise ValueError(f"a bench ansatz expects at most {ANSATZ_LIMIT} gadgets, got {gadgets}")
    if args.sweep is not None:
        _write(args.csv, _sweep_csv(args))
        return 0
    results = _bench_cells(args)
    sys.stdout.write(_bench_table(args, results))
    csv = _bench_csv(args, results)
    if args.csv is not None:
        _write(args.csv, csv)
    else:
        sys.stdout.write(csv)
    return 0


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


def _add_anneal_flags(sub) -> None:
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--attempts", type=int, default=DEFAULT_ATTEMPTS)
    sub.add_argument("--iterations", type=int, default=DEFAULT_ITERATIONS)
    sub.add_argument("--t0", type=float, default=None)


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors are input errors, so they exit 1; argparse's own 2 means verification failed."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="phasefold",
        description="Phase-gadget circuit optimizer over GF(2)",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="circuit file -> gadget normal form")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("optimize", help="optimise a circuit file")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None)
    _add_anneal_flags(p)
    p.add_argument("--shape", choices=("ladder", "tree"), default="tree")
    p.add_argument("--no-verify", action="store_true")
    p.add_argument("--report", choices=("text", "kv"), default="text")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("verify", help="compare two circuit/gadget files up to phase")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="random-ansatz benchmark table / sweeps")
    p.add_argument("--qubits", type=int, default=8)
    p.add_argument("--gadgets", type=_int_list, default=[10])
    p.add_argument("--layers", type=_int_list, default=[1, 2, 5, 10])
    p.add_argument("--samples", type=int, default=10)
    _add_anneal_flags(p)
    p.add_argument("--shape", choices=("ladder", "tree"), default="tree")
    p.add_argument("--csv", default=None, help="write raw per-cell CSV to this path")
    p.add_argument("--sweep", choices=SWEEP_AXES, default=None)
    p.add_argument("--sweep-values", type=_int_list, default=None)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
