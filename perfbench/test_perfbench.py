"""Tests of the benchmark itself: every check catches a wrong answer.

Run from the root of the repository with ``python3 -m pytest perfbench``.
Each comparison is first shown to accept the program's real output, then
to reject the same output with one fault injected: a negated cell, a
dropped term, a swapped sample label, a changed byte.
"""

import cmath
import json
import math
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import wcflobdd as wc  # noqa: E402

import circuits  # noqa: E402
import dense_ops  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import sampling  # noqa: E402
from harness import Fields, NullTracer, Op, Tracer, run_rounds  # noqa: E402

TRACER = NullTracer()


def run_op(op):
    return op.run(TRACER)[1]


# -- dense operations --------------------------------------------------------


def dense_op(kind, opname, level, seed=3):
    rng = random.Random(seed)
    a = reference.random_table(rng, 1 << level, kind)
    b = reference.random_table(rng, 1 << level, kind)
    layer = dict(dense_ops.OPERATIONS)[opname]
    state = dense_ops.State(wc, Fields(wc))
    return dense_ops._binary_op(state, kind, opname, layer, level, a, b), a, b


@pytest.mark.parametrize("kind", dense_ops.KINDS)
@pytest.mark.parametrize("opname", [name for name, _ in dense_ops.OPERATIONS])
def test_dense_check_catches_a_negated_cell(kind, opname):
    op, _, _ = dense_op(kind, opname, 2)
    flat = run_op(op)
    assert op.check(flat)
    i = next(i for i, v in enumerate(flat) if v != 0)
    wrong = list(flat)
    wrong[i] = -wrong[i]
    assert not op.check(wrong)


@pytest.mark.parametrize("kind", dense_ops.KINDS)
def test_matrix_check_catches_a_dropped_term(kind):
    op, a, b = dense_op(kind, "matrix_multiply", 2)
    flat = run_op(op)
    ma, mb = reference.flat_to_matrix(a), reference.flat_to_matrix(b)
    side = len(ma)
    r, c, k = next((r, c, k) for r in range(side) for c in range(side)
                   for k in range(side) if ma[r][k] * mb[k][c] != 0)
    wrong = reference.flat_to_matrix(flat)
    wrong[r][c] -= ma[r][k] * mb[k][c]
    assert not op.check(reference.matrix_to_flat(wrong))


def hadamard_ops(kind, level):
    forest = Fields(wc).forest(kind)
    return forest, dense_ops._hadamard_ops(wc, forest, kind, level,
                                           random.Random(5))


@pytest.mark.parametrize("kind", dense_ops.HADAMARD_KINDS)
def test_hadamard_checks_catch_wrong_diagrams(kind):
    level = 3
    forest, (square, minus, plus) = hadamard_ops(kind, level)
    m = 1 << (level - 1)
    cells = dense_ops.hadamard_cells(random.Random(5), m)
    h = wc.hadamard_family(forest, level)
    assert square.check(run_op(square)) and not square.check(h)
    assert minus.check(run_op(minus)) and not minus.check(h)
    values = run_op(plus)
    assert plus.check(values)
    # H + X with the H term dropped: what the key-rounding fault returns
    # at levels 8 and up.
    x = wc.not_matrix(forest, level)
    dropped = [wc.evaluate(x, reference.matrix_assignment(r, c, m))
               for r, c in cells]
    assert not plus.check(dropped)
    negated = list(values)
    negated[0] = -negated[0]
    assert not plus.check(negated)


@pytest.mark.parametrize("kind", dense_ops.HADAMARD_KINDS)
def test_hadamard_faults_fail_from_level_8(kind):
    for level in (7, 8):
        _, ops = hadamard_ops(kind, level)
        verdicts = [op.check(run_op(op)) for op in ops]
        assert verdicts == [True, level < 8, level < 8]
        assert [op.known_fault for op in ops] == [False, level >= 8,
                                                  level >= 8]


# -- circuits ---------------------------------------------------------------


def circuit_op(family, n, seed=11):
    state = circuits.State(wc, Fields(wc))
    return circuits._circuit_op(state, random.Random(seed), family, n)


@pytest.mark.parametrize("family,n", [("ghz", 8), ("bv", 7), ("dj", 7),
                                      ("qft", 8)])
def test_circuit_checks_catch_wrong_amplitudes_and_dumps(family, n):
    op = circuit_op(family, n)
    amplitudes, text, again = run_op(op)
    assert op.check((amplitudes, text, again))
    i = next(i for i, a in enumerate(amplitudes) if abs(a) > 1e-3)
    negated = list(amplitudes)
    negated[i] = -negated[i]
    assert not op.check((negated, text, again))
    changed = again.replace("1", "2", 1)
    assert not op.check((amplitudes, text, changed))


def test_qft_reference_reduces_in_integers():
    # At 48 qubits b*y exceeds 2^53; a float reduction drifts in phase.
    n, basis, y = 48, 0xB5E39A1C4D77, 0x9F1D2E6B3C85
    label = format(y, "048b")
    exact = reference.qft_amplitude(label, basis)
    drifted = cmath.exp(2j * math.pi * (basis * y / (1 << n) % 1)) / math.sqrt(
        2.0 ** n)
    assert not reference.close(drifted, exact)


def test_circuit_replay_matches_run_circuit():
    op = circuit_op("qft", 4)
    tracer = Tracer(wc)
    observed = op.run(tracer)[1]
    assert op.after(tracer, observed)
    assert not op.after(tracer, (observed[0], observed[1] + " ", observed[2]))
    names = {span[0] for span in tracer.spans}
    assert {"quantum.build_gate", "matrix.apply_matrix_to_vector"} <= names


# -- sampling ---------------------------------------------------------------


def sampling_op(kind, shots, dist, **inputs):
    inp = sampling.Input(kind, shots, dist, **inputs)
    make = sampling._measure_op if "state" in inputs else \
        sampling._assignment_op
    return make(wc, inp, 17)


def test_sampling_check_catches_a_swapped_label():
    hidden = "1011001"
    state = wc.run_circuit(wc.quantum.bernstein_vazirani(7, hidden))
    dist = reference.point_distribution({hidden + "0": 0.5,
                                         hidden + "1": 0.5})
    op = sampling_op("BV", 64, dist, state=state,
                     view=wc.measure_view(state.diagram))
    counts = run_op(op)
    assert op.check(counts)
    wrong = dict(counts)
    label = next(iter(wrong))
    wrong[label] -= 1
    wrong["0" * 8] = 1
    assert not op.check(wrong)


def test_sampling_check_catches_swapped_outcomes():
    table = [Fraction(0)] * 16
    table[3], table[12] = Fraction(9), Fraction(1)
    diagram = wc.fold(wc.Forest(wc.rational_field()), table)
    op = sampling_op("skewed", 400, reference.table_distribution(table, 4),
                     diagram=diagram)
    counts = run_op(op)
    assert op.check(counts)
    swapped = {"0011": counts.get("1100", 0), "1100": counts.get("0011", 0)}
    assert not op.check(swapped)
    short = dict(counts)
    short["0011"] -= 1
    assert not op.check(short)


def test_ghz_1024_measure_fails_and_512_passes():
    for n, ok in ((512, True), (1024, False)):
        state = wc.run_circuit(wc.quantum.ghz(n))
        dist = reference.point_distribution({"0" * n: 0.5, "1" * n: 0.5})
        op = sampling_op(f"GHZ-{n}", 64, dist, state=state,
                         view=wc.measure_view(state.diagram))
        assert op.check(run_op(op)) is ok


def test_chi_square_tail_matches_known_values():
    # df = 1: Q(1/2, x/2) = erfc(sqrt(x/2)).
    for stat in (0.5, 3.0, 20.0, 64.0):
        want = math.erfc(math.sqrt(stat / 2))
        got = reference.upper_gamma_regularized(0.5, stat / 2)
        assert abs(got - want) <= 1e-9 * want
    # df = 2: Q(1, x/2) = exp(-x/2).
    for stat in (0.1, 4.0, 80.0):
        want = math.exp(-stat / 2)
        assert abs(reference.upper_gamma_regularized(1.0, stat / 2) - want) \
            <= 1e-9 * want


# -- the operation loop ------------------------------------------------------


class OneRound:
    NAME = "fake"
    COLLECT_AFTER_OP = False

    def __init__(self, ops):
        self.ops = ops

    def make_round(self, state, seed, index):
        return self.ops, []


def test_wrong_output_counts_as_failed_operation():
    op, _, _ = dense_op("rational", "add", 1)
    inner = op.run

    def negated(tr):
        diagram, flat = inner(tr)
        return diagram, [-flat[0]] + flat[1:]

    wrong = Op(op.kind, negated, op.check)
    known = Op("known", negated, op.check, known_fault=True)
    tally = run_rounds(OneRound([op, wrong, known]), None, 1, 2, NullTracer())
    assert (tally.attempted, tally.failed) == (6, 4)
    assert tally.unexpected == [op.kind, op.kind]


def test_crashing_operation_counts_as_failed():
    def crash(tr):
        raise ZeroDivisionError("boom")

    tally = run_rounds(OneRound([Op("crash", crash, bool)]), None, 1, 1,
                       NullTracer())
    assert tally.failed == 1 and "boom" in tally.unexpected[0]


# -- the command and its declared metrics -------------------------------------


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)


def test_exits_without_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sampling",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
