"""End-to-end runs of the command line interface."""

import json
import subprocess
import sys

from wcflobdd import cli


def run_cli(*args, expect=0):
    out = subprocess.run([sys.executable, "-m", "wcflobdd.cli", *args],
                         capture_output=True, text=True)
    assert out.returncode == expect, (args, out.stdout, out.stderr)
    return out.stdout


def test_bench_separation_sizes():
    rows = run_cli("bench", "separation").strip().split("\n")
    header = rows[0].split(",")
    assert header == ["suite", "bench", "param", "instance", "time_s",
                      "groupings", "vertices", "edges", "total", "status"]
    got = {}
    for line in rows[1:]:
        cells = dict(zip(header, line.split(",")))
        assert cells["status"] == "ok"
        got[(cells["bench"], int(cells["param"]))] = int(cells["total"])
    for l in range(11):
        assert got[("EXP", l)] == 13 * 2 ** l - 7
    for l in range(1, 11):
        assert got[("H", l)] == 8 * l + 22


def test_bench_synthetic_passes_identity_checks():
    rows = run_cli("bench", "synthetic", "--params", "1,2,3").strip()
    lines = rows.split("\n")[1:]
    assert len(lines) == 14  # B2 is undefined at level 1
    assert all(line.endswith(",ok") for line in lines), rows


def test_bench_synthetic_b4_checks_hadamard_value():
    rows = run_cli("bench", "synthetic", "--params", "8",
                   "--instance", "float", "--format", "json")
    b4 = [row for row in json.loads(rows) if row["bench"] == "B4"]
    # The float key rounds H_8's factor 2^-64 to zero, so H drops out of
    # the sum and the value check fails. This row turns "ok" once weight
    # keys keep significant digits (ROADMAP item 2).
    assert [row["status"] for row in b4] == ["error"]


def test_bench_quantum_runs_past_the_old_caps():
    rows = json.loads(run_cli("bench", "quantum", "--params", "32",
                              "--format", "json"))
    assert [(row["bench"], row["status"]) for row in rows] == [
        ("GHZ", "ok"), ("BV", "ok"), ("DJ", "ok"), ("QFT", "ok")]


def test_bench_quantum_checks_the_hidden_amplitude(capsys):
    # BV-2148's state factor sticks at a subnormal (ROADMAP item 1): the
    # amplitude at the hidden string reads about 1e-323, not 2^-1/2,
    # though a measurement still draws the hidden string.
    for n, status in ((64, "ok"), (2148, "error")):
        units = [u for u in cli._quantum_units([n], 0) if u[0] == "BV"]
        assert [row["status"] for row in cli._run_units(
            "quantum", units, 900.0)] == [status], n
    assert "not +-2^-1/2" in capsys.readouterr().err


def test_zero_denominator_dumps_are_errors(tmp_path):
    # A ZeroDivisionError traceback and exit code 1 before.
    for i, text in enumerate(("g 0 fork 1 1/0\nd 1 0 1 0\n",
                              "g 0 fork 1 1/2\nd 1/0 0 1 0\n")):
        path = tmp_path / f"bad{i}.dump"
        path.write_text("wcflobdd 1 rational\n" + text)
        for argv in (("validate", path), ("eval", path, "1"),
                     ("export", path), ("op", "mul", path, "ONE_1"),
                     ("sample", path, "--seed", "1")):
            out = subprocess.run(
                [sys.executable, "-m", "wcflobdd.cli", *map(str, argv)],
                capture_output=True, text=True)
            assert out.returncode == 2, (argv, out.stderr)
            assert out.stderr.startswith("error: dump line"), out.stderr
            assert "zero denominator" in out.stderr, out.stderr


def test_bench_json_agrees_with_csv():
    csv_rows = run_cli("bench", "separation", "--params", "0,1").strip()
    json_rows = json.loads(run_cli("bench", "separation", "--params", "0,1",
                                   "--format", "json"))
    header = csv_rows.split("\n")[0].split(",")
    for line, obj in zip(csv_rows.split("\n")[1:], json_rows):
        cells = dict(zip(header, line.split(",")))
        for field in ("suite", "bench", "param", "total", "status"):
            assert cells[field] == str(obj[field])


def test_bench_timeout_rows_skip_but_continue():
    rows = run_cli("bench", "separation", "--params", "4,5",
                   "--timeout", "0.000001").strip().split("\n")[1:]
    statuses = [line.split(",")[-1] for line in rows]
    assert statuses == ["timeout"] * 4
    # the later EXP row was skipped without being run
    assert rows[1].split(",")[4] == ""


def test_eval_worked_values():
    assert run_cli("eval", "H_2", "11").strip() == "-0.7071067812"
    assert run_cli("eval", "EXP_4", "1011").strip() == "2048"
    assert run_cli("eval", "ZERO_4", "0011").strip() == "0"
    run_cli("eval", "H_2", "111", expect=2)


def test_float_exp_overflow_is_an_error():
    out = subprocess.run([sys.executable, "-m", "wcflobdd.cli", "eval",
                          "EXP_16", "0" * 16, "--instance", "float"],
                         capture_output=True, text=True)
    assert out.returncode == 2, out.stderr
    assert out.stderr == "error: 2**32768 is out of float range\n"


def test_validate_ok():
    out = run_cli("validate", "W_4")
    assert out.strip() == "ok"


def test_export_dot_and_dump(tmp_path):
    dot = run_cli("export", "H_2")
    assert dot.count("subgraph cluster_") == 4
    dump = tmp_path / "exp.dump"
    run_cli("export", "EXP_4", "--dump", "--out", str(dump))
    assert run_cli("eval", str(dump), "1011").strip() == "2048"


def test_op_matmul_round_trips_to_identity(tmp_path):
    product = tmp_path / "hh.dump"
    run_cli("op", "matmul", "H_4", "H_4", "--out", str(product))
    ident = tmp_path / "ident.dump"
    run_cli("export", "I_4", "--dump", "--instance", "float",
            "--out", str(ident))
    assert product.read_text() == ident.read_text()


def test_run_circuit_histogram(tmp_path):
    circuit = tmp_path / "bell.qc"
    circuit.write_text("H 0\nCNOT 0 1\n")
    payload = json.loads(run_cli("run", str(circuit), "--shots", "400",
                                 "--seed", "7"))
    assert payload["qubits"] == 2
    assert set(payload["counts"]) <= {"00", "11"}
    assert sum(payload["counts"].values()) == 400
    again = json.loads(run_cli("run", str(circuit), "--shots", "400",
                               "--seed", "7"))
    assert again == payload


def test_sample_is_seed_deterministic():
    a = run_cli("sample", "W_4", "--seed", "3", "--count", "5", "--measure")
    b = run_cli("sample", "W_4", "--seed", "3", "--count", "5", "--measure")
    assert a == b
    assert len(a.strip().split("\n")) == 5
    assert all(set(line) <= {"0", "1"} and len(line) == 4
               for line in a.strip().split("\n"))


def test_unknown_family_is_an_error():
    run_cli("eval", "NOPE_3", "001", expect=2)


def test_one_variable_families():
    for family in ("W_1", "H_1", "I_1", "X_1"):
        out = subprocess.run([sys.executable, "-m", "wcflobdd.cli", "eval",
                              family, "0"], capture_output=True, text=True)
        assert out.returncode == 2, (family, out.stderr)
        assert "tower starts at level 1" in out.stderr, (family, out.stderr)
    assert run_cli("eval", "ONE_1", "1").strip() == "1"


def test_negative_shot_and_sample_counts_are_errors(tmp_path):
    circuit = tmp_path / "bell.qc"
    circuit.write_text("H 0\nCNOT 0 1\n")
    run_cli("run", str(circuit), "--shots", "-3", expect=2)
    run_cli("sample", "W_4", "--seed", "3", "--count", "-2", expect=2)


def test_sampling_huge_rational_totals_is_an_error():
    # EXP_32's weights are symbolic powers of two, which the sampler's
    # sign check used to compare with 0: a TypeError traceback.
    for family in ("EXP_16", "EXP_32"):
        out = subprocess.run([sys.executable, "-m", "wcflobdd.cli", "sample",
                              family, "--seed", "1"],
                             capture_output=True, text=True)
        assert out.returncode == 2, (family, out.stderr)
        assert out.stderr.startswith("error:"), (family, out.stderr)
        assert "Traceback" not in out.stderr
