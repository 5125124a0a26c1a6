"""CLI surface: exit codes, file round trips, determinism of reports."""

import math

import numpy as np
import pytest

from phasefold.cli import main
from phasefold.circuits import parse
from phasefold.oracle import MAX_QUBITS, equiv_up_to_phase, unitary_of_circuit


EXAMPLE = """\
qubits 3
cnot 0 1
rz 0.7 1
rx 0.25 2
cnot 1 2
"""


def _five_gadget_circuit_text() -> str:
    from phasefold.circuits import serialize
    from phasefold.gadgets import gadget_circuit
    from phasefold.transform import synth_gadget_circuit

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
    return serialize(synth_gadget_circuit(g, "ladder"))


FIVE_GADGET_CIRCUIT = _five_gadget_circuit_text()


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_extract_command(tmp_path, capsys):
    src = _write(tmp_path, "c.pf", "qubits 2\ncnot 0 1\nrz 0.7 1\n")
    assert main(["extract", src]) == 0
    out = capsys.readouterr().out
    assert "zgadget 0.7 11" in out
    assert "cnot 0 1" in out


def test_extract_bad_file_exits_1(tmp_path, capsys):
    src = _write(tmp_path, "bad.pf", "qubits 2\ncnot 0 5\n")
    assert main(["extract", src]) == 1
    assert "line 2" in capsys.readouterr().err


def test_optimize_bad_angle_exits_1(tmp_path, capsys):
    src = _write(tmp_path, "bad.pf", "qubits 1\nrz 0.5 0\nrz 1_0.5 0\n")
    assert main(["optimize", src]) == 1
    err = capsys.readouterr().err
    assert "line 3: angle must be a finite ASCII decimal" in err
    assert "Traceback" not in err


def test_extract_missing_file_exits_1(capsys):
    assert main(["extract", "/nonexistent/file.pf"]) == 1


def test_extract_roundtrips_through_verify(tmp_path, capsys):
    src = _write(tmp_path, "c.pf", EXAMPLE)
    out_path = str(tmp_path / "c.gadgets")
    assert main(["extract", src, "-o", out_path]) == 0
    assert main(["verify", src, out_path]) == 0
    assert "equal" in capsys.readouterr().out


def test_extract_tail_at_eight_qubits_verifies(tmp_path, capsys):
    # The normal form's CNOT tail is applied as a row gather: a non-empty
    # tail at n = 8 must verify against the circuit, and changing one tail
    # CNOT must be caught.
    lines = ["qubits 8"]
    for k in range(24):
        lines.append(f"cnot {k % 8} {(3 * k + 1) % 8}" if k % 3 else f"rz {0.1 * k + 0.3} {k % 8}")
        lines.append(f"rx {0.2 * k - 1.1} {(5 * k) % 8}")
    lines += ["cnot 0 7", "cnot 7 3", "cnot 2 5"]
    src = _write(tmp_path, "c.pf", "\n".join(lines) + "\n")
    out_path = tmp_path / "c.gadgets"
    assert main(["extract", src, "-o", str(out_path)]) == 0
    text = out_path.read_text()
    tail = [l for l in text.splitlines() if l.startswith("cnot")]
    assert tail
    assert main(["verify", src, str(out_path)]) == 0
    assert "equal" in capsys.readouterr().out
    _, control, target = tail[-1].split()
    head, _, rest = text.rpartition(tail[-1])
    bent = head + f"cnot {target} {control}" + rest
    bent_path = _write(tmp_path, "bent.gadgets", bent)
    assert main(["verify", src, bent_path]) == 2
    assert "different" in capsys.readouterr().out


def test_optimize_command_writes_equivalent_circuit(tmp_path, capsys):
    src = _write(tmp_path, "c.pf", FIVE_GADGET_CIRCUIT)
    out_path = str(tmp_path / "opt.pf")
    code = main(
        ["optimize", src, "-o", out_path, "--iterations", "1500",
         "--attempts", "4", "--seed", "0", "--report", "kv"]
    )
    assert code == 0
    report = capsys.readouterr().out
    assert "verified=yes" in report
    assert "energy_before=10" in report
    after = int(next(l for l in report.splitlines() if l.startswith("energy_after=")).split("=")[1])
    assert after <= 6
    original = parse(FIVE_GADGET_CIRCUIT)
    optimized = parse((tmp_path / "opt.pf").read_text())
    assert equiv_up_to_phase(
        unitary_of_circuit(original), unitary_of_circuit(optimized)
    )


def test_optimize_single_gate_noop(tmp_path, capsys):
    src = _write(tmp_path, "one.pf", "qubits 1\nrz 0.4 0\n")
    assert main(["optimize", src, "--iterations", "50", "--attempts", "1"]) == 0
    captured = capsys.readouterr()
    assert "rz 0.4 0" in captured.out


def test_optimize_large_circuit_skips_verification(tmp_path, capsys):
    lines = ["qubits 12"] + [f"rz 0.1 {q}" for q in range(12)]
    src = _write(tmp_path, "big.pf", "\n".join(lines) + "\n")
    assert main(["optimize", src, "--iterations", "50", "--attempts", "1",
                 "--report", "kv", "-o", str(tmp_path / "o.pf")]) == 0
    assert "verified=skipped" in capsys.readouterr().out


def test_optimize_report_deterministic(tmp_path, capsys):
    src = _write(tmp_path, "c.pf", FIVE_GADGET_CIRCUIT)
    runs = []
    for _ in range(2):
        main(["optimize", src, "-o", str(tmp_path / "o.pf"), "--seed", "5",
              "--iterations", "300", "--attempts", "2", "--report", "kv"])
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


def test_verify_identical_files(tmp_path, capsys):
    a = _write(tmp_path, "a.pf", EXAMPLE)
    assert main(["verify", a, a]) == 0
    assert "equal" in capsys.readouterr().out


def test_verify_cnot_vs_cz(tmp_path, capsys):
    a = _write(tmp_path, "a.pf", "qubits 2\ncnot 0 1\n")
    b = _write(tmp_path, "b.pf", "qubits 2\ncz 0 1\n")
    assert main(["verify", a, b]) == 2
    assert "different" in capsys.readouterr().out


def test_verify_global_phase_equal(tmp_path, capsys):
    a = _write(tmp_path, "a.pf", "qubits 1\nrz 3.141592653589793 0\n")
    b = _write(tmp_path, "b.pf", f"qubits 1\nrz {3 * math.pi} 0\n")
    assert main(["verify", a, b]) == 0


def test_verify_dimension_mismatch(tmp_path, capsys):
    a = _write(tmp_path, "a.pf", "qubits 1\nrz 0.5 0\n")
    b = _write(tmp_path, "b.pf", "qubits 2\nrz 0.5 0\n")
    assert main(["verify", a, b]) == 1


def test_verify_at_max_qubits_holds_under_two_matrices(tmp_path, capsys, peak_bytes):
    # verify runs optimize's one product, gadget file on either side: the
    # product is applied in place and read into the error block by block,
    # so the peak stays below two 2^n x 2^n matrices.
    n = MAX_QUBITS
    rng = np.random.default_rng(2020)
    lines = [f"qubits {n}"]
    for _ in range(60):
        kind = ("cnot", "rz", "rx")[int(rng.integers(3))]
        if kind == "cnot":
            control, target = rng.choice(n, size=2, replace=False)
            lines.append(f"cnot {control} {target}")
        else:
            lines.append(f"{kind} {rng.uniform(-3, 3):.6f} {rng.integers(n)}")
    src = _write(tmp_path, "in.pf", "\n".join(lines) + "\n")
    nf, out = str(tmp_path / "in.nf"), str(tmp_path / "out.pf")
    assert main(["extract", src, "-o", nf]) == 0
    assert main(["optimize", src, "-o", out, "--attempts", "1", "--iterations", "100"]) == 0
    capsys.readouterr()
    matrix_bytes = 16 << (2 * n)
    for a, b in ((nf, out), (out, nf)):
        codes = []
        peak = peak_bytes(lambda: codes.append(main(["verify", a, b])))
        assert codes == [0]
        assert peak < 2 * matrix_bytes, peak / matrix_bytes
    assert capsys.readouterr().out.count("equal") == 2


def test_bench_zero_layer_rejected(capsys):
    assert main(["bench", "--layers", "0", "--samples", "1"]) == 1


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--gadgets", "10,0"], "random_gadget needs gadgets_per_layer >= 1"),
        (["--layers", "2,0"], "dimensions must be positive"),
        (["--qubits", "64"], "random_gadget draws legs on at most 63 qubits, got 64"),
    ],
    ids=["gadgets", "layers", "qubits"],
)
def test_bench_bad_cell_rejected_before_any_optimize(flags, message, monkeypatch, capsys):
    # A bad value late in a list fails before the earlier cells do any work.
    import phasefold.cli as cli

    def no_optimize(*args, **kwargs):
        raise AssertionError("optimize ran before the bad cell was rejected")

    monkeypatch.setattr(cli, "optimize", no_optimize)
    assert main(["bench", "--qubits", "3", "--samples", "1", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_bench_small_run(tmp_path, capsys):
    csv_path = str(tmp_path / "bench.csv")
    code = main(
        ["bench", "--qubits", "3", "--gadgets", "2", "--layers", "1,2",
         "--samples", "2", "--iterations", "100", "--attempts", "2",
         "--seed", "1", "--csv", csv_path]
    )
    assert code == 0
    table = capsys.readouterr().out
    assert "CNOT depth" in table and "CNOT count" in table
    csv = (tmp_path / "bench.csv").read_text()
    header, *rows = csv.strip().splitlines()
    assert header == "kind,n,gadgets,layers,sample,metric,before,after"
    assert len(rows) == 2 * 2 * 2  # cells x samples x metrics


def test_bench_deterministic(tmp_path, capsys):
    args = ["bench", "--qubits", "3", "--gadgets", "2", "--layers", "1",
            "--samples", "1", "--iterations", "60", "--attempts", "1", "--seed", "3"]
    outs = []
    for _ in range(2):
        assert main(args) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("axis", ["attempts", "iterations", "width", "height"])
def test_bench_sweep_mode(axis, capsys):
    code = main(
        ["bench", "--sweep", axis, "--sweep-values", "1,2",
         "--qubits", "3", "--gadgets", "4", "--samples", "2",
         "--iterations", "80", "--seed", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "axis,value,sample,energy_before,energy_after"
    assert [line.split(",")[:3] for line in lines[1:]] == [
        [axis, value, sample] for value in "12" for sample in "01"
    ]
    # Identity energy counts the legs of two height x width matrices.
    height, width = 3, 4
    for line in lines[1:]:
        _, value, _, before, after = line.split(",")
        h = int(value) if axis == "height" else height
        w = int(value) if axis == "width" else width
        assert int(after) <= int(before) <= 2 * h * w


@pytest.mark.parametrize("sweep", [[], ["--sweep", "width", "--sweep-values", "1"]],
                         ids=["table", "sweep"])
def test_bench_samples_below_one_exit_1(sweep, capsys):
    assert main(["bench", "--samples", "0", *sweep]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --samples must be >= 1\n"


@pytest.mark.parametrize(
    "flags",
    [["--sweep", "height", "--sweep-values", "2,100000"],
     ["--sweep", "width", "--sweep-values", "2", "--qubits", "100000"]],
    ids=["swept", "fixed"],
)
def test_bench_sweep_height_over_limit_exits_1(flags, monkeypatch, capsys):
    # A height is a qubit count: past QUBIT_LIMIT it is rejected before
    # any leg matrix is drawn, so a 100000 x 100000 one never is.
    import phasefold.cli as cli

    def no_draw(*args, **kwargs):
        raise AssertionError("a leg matrix was drawn before the height was rejected")

    monkeypatch.setattr(cli, "random_matrix", no_draw)
    assert main(["bench", "--samples", "1", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: height expects at most 256 qubits, got 100000\n"


@pytest.mark.parametrize(
    "flags",
    [["--sweep", "width", "--sweep-values", "2,100000"],
     ["--sweep", "attempts", "--sweep-values", "1", "--gadgets", "100000"],
     ["--gadgets", "2,100000", "--layers", "1"]],
    ids=["swept", "fixed", "table"],
)
def test_bench_width_over_limit_exits_1(flags, monkeypatch, capsys):
    # A width past WIDTH_LIMIT is rejected before any leg matrix or ansatz
    # is drawn, so a 100000-column one never is.
    import phasefold.cli as cli

    def no_draw(*args, **kwargs):
        raise AssertionError("a leg matrix or an ansatz was drawn before the width was rejected")

    monkeypatch.setattr(cli, "random_matrix", no_draw)
    monkeypatch.setattr(cli, "generate", no_draw)
    assert main(["bench", "--qubits", "3", "--samples", "1", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: width expects at most {cli.WIDTH_LIMIT} gadgets, got 100000\n"


def test_bench_width_at_limit_is_accepted(monkeypatch, capsys):
    # The limit itself is a width: one sample at 1 x 1 budget runs.
    import phasefold.cli as cli

    width = str(cli.WIDTH_LIMIT)
    flags = ["--sweep", "width", "--sweep-values", width, "--qubits", "2"]
    assert main(["bench", "--samples", "1", "--attempts", "1", "--iterations", "1", *flags]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith(f"width,{width},0,")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["optimize", "IN", "--iterations", "1000001"], "iterations expects at most 1000000, got 1000001"),
        (["optimize", "IN", "--attempts", "4097"], "attempts expects at most 4096, got 4097"),
        (["bench", "--iterations", "1000001"], "iterations expects at most 1000000, got 1000001"),
        (["bench", "--attempts", "4097"], "attempts expects at most 4096, got 4097"),
        (["bench", "--sweep", "iterations", "--sweep-values", "5,1000001"],
         "iterations expects at most 1000000, got 1000001"),
        (["bench", "--sweep", "attempts", "--sweep-values", "5,4097"],
         "attempts expects at most 4096, got 4097"),
        (["bench", "--sweep", "width", "--sweep-values", "2", "--attempts", "4097"],
         "attempts expects at most 4096, got 4097"),
        (["bench", "--layers", "1,100000000"],
         "a bench ansatz expects at most 65536 gadgets, got 1000000000"),
        (["bench", "--gadgets", "17", "--layers", "4096"],
         "a bench ansatz expects at most 65536 gadgets, got 69632"),
    ],
    ids=["optimize-iterations", "optimize-attempts", "bench-iterations", "bench-attempts",
         "swept-iterations", "swept-attempts", "sweep-flag-attempts", "layers", "gadgets-by-layers"],
)
def test_over_limit_budget_exits_1(argv, message, tmp_path, monkeypatch, capsys):
    # An anneal budget or a bench ansatz past its limit is rejected before
    # any anneal runs or anything is drawn, so no move stream is allocated.
    import phasefold.cli as cli
    import phasefold.pipeline as pipeline

    def no_draw(*args, **kwargs):
        raise AssertionError("an anneal ran or something was drawn before the limit was checked")

    for module, name in ((cli, "anneal"), (pipeline, "anneal"), (cli, "generate"), (cli, "random_matrix")):
        monkeypatch.setattr(module, name, no_draw)
    path = _write(tmp_path, "in.pf", FIVE_GADGET_CIRCUIT)
    assert main([path if a == "IN" else a for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


class _Reached(Exception):
    """Raised by a patched step: the limits let the run through to it."""


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "IN", "--iterations", "1000000", "--attempts", "4096"],
        ["bench", "--iterations", "1000000", "--attempts", "4096", "--gadgets", "16", "--layers", "4096"],
        ["bench", "--sweep", "iterations", "--sweep-values", "1000000"],
        ["bench", "--sweep", "attempts", "--sweep-values", "4096"],
    ],
    ids=["optimize", "bench", "swept-iterations", "swept-attempts"],
)
def test_budget_at_limit_is_accepted(argv, tmp_path, monkeypatch):
    # Each limit is itself accepted: the run gets as far as its first step.
    import phasefold.cli as cli

    def reached(*args, **kwargs):
        raise _Reached

    for name in ("optimize", "generate", "random_matrix"):
        monkeypatch.setattr(cli, name, reached)
    path = _write(tmp_path, "in.pf", FIVE_GADGET_CIRCUIT)
    with pytest.raises(_Reached):
        main([path if a == "IN" else a for a in argv])


def test_bench_budget_sweep_shares_instances(capsys):
    # Every value anneals the same instances, so more attempts never do worse.
    code = main(
        ["bench", "--sweep", "attempts", "--sweep-values", "1,2,5",
         "--qubits", "4", "--gadgets", "6", "--samples", "6",
         "--iterations", "60", "--seed", "3"]
    )
    assert code == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    by_sample = {}
    for _, value, sample, before, after in rows:
        by_sample.setdefault(int(sample), []).append((int(value), int(before), int(after)))
    assert len(by_sample) == 6
    for runs in by_sample.values():
        assert [v for v, _, _ in runs] == [1, 2, 5]
        assert len({before for _, before, _ in runs}) == 1
        afters = [after for _, _, after in runs]
        assert afters == sorted(afters, reverse=True)


def test_negative_seed_is_rejected(tmp_path, capsys):
    # One qubit and CNOT-only circuits never anneal; the seed is checked anyway.
    for name, text in (
        ("one.pf", "qubits 1\nrz 0.5 0\n"),
        ("cnots.pf", "qubits 2\ncnot 0 1\ncnot 1 0\n"),
        ("gadgets.pf", FIVE_GADGET_CIRCUIT),
    ):
        assert main(["optimize", _write(tmp_path, name, text), "--seed", "-1"]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err


def test_bench_sweep_requires_values(capsys):
    assert main(["bench", "--sweep", "width"]) == 1


def test_bench_sweep_values_require_sweep(capsys):
    assert main(["bench", "--sweep-values", "1,2", "--samples", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --sweep-values needs --sweep\n"


@pytest.mark.parametrize("t0", ["inf", "nan", "0", "-1"])
def test_optimize_bad_t0_exits_1(t0, tmp_path, capsys):
    src = _write(tmp_path, "c.pf", FIVE_GADGET_CIRCUIT)
    assert main(["optimize", src, "--t0", t0]) == 1
    assert "error: t0 must be positive and finite" in capsys.readouterr().err


def test_extract_empty_circuit(tmp_path, capsys):
    src = _write(tmp_path, "empty.pf", "qubits 2\n")
    assert main(["extract", src]) == 0
    out = capsys.readouterr().out
    assert "qubits 2" in out
    assert "gadget" not in out


def test_optimize_output_verifies_against_input(tmp_path, capsys):
    src = _write(tmp_path, "c.pf", FIVE_GADGET_CIRCUIT)
    out_path = str(tmp_path / "opt.pf")
    assert main(["optimize", src, "-o", out_path, "--iterations", "400",
                 "--attempts", "2", "--seed", "1"]) == 0
    capsys.readouterr()
    assert main(["verify", src, out_path]) == 0
    assert "equal" in capsys.readouterr().out


def test_optimize_verification_failure_exits_2(tmp_path, capsys, monkeypatch):
    import phasefold.cli as cli_mod
    from phasefold.pipeline import VerificationError

    def boom(*args, **kwargs):
        raise VerificationError("forced failure")

    monkeypatch.setattr(cli_mod, "optimize", boom)
    src = _write(tmp_path, "c.pf", "qubits 1\nrz 0.5 0\n")
    assert main(["optimize", src]) == 2
    assert "verification failed" in capsys.readouterr().err


def test_optimize_qubit_count_over_limit_exits_1(tmp_path, capsys):
    src = _write(tmp_path, "big.pf", "qubits 100000\nrz 0.5 0\n")
    assert main(["optimize", src]) == 1
    assert "error: line 1: qubits expects one positive integer up to 256" in capsys.readouterr().err


def test_verify_non_ascii_qubit_count_exits_1(tmp_path, capsys):
    bad = _write(tmp_path, "bad.pf", "qubits ²\nzgadget 0.5 1\n")
    good = _write(tmp_path, "good.pf", "qubits 1\nzgadget 0.5 1\n")
    assert main(["verify", bad, good]) == 1
    assert "error: line 1: qubits expects one positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--attempts", "abc", "x.pf"],
        ["frobnicate"],
        ["bench", "--gadgets", "a,b"],
        ["bench", "--sweep", "width", "--sweep-values", "1", "--gadgets", ""],
        ["bench", "--layers", ","],
        ["bench", "--sweep", "width", "--sweep-values", ""],
    ],
    ids=["bad-int", "unknown-command", "bad-int-list", "empty-gadgets", "empty-layers",
         "empty-sweep-values"],
)
def test_usage_error_exits_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert any(line.startswith("usage:") for line in err.splitlines())
    assert "Traceback" not in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")
