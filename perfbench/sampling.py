"""Workload ``sampling``: seeded draws from states and tables built in set-up.

Set-up builds the inputs (their cost is part of ``setup_s``):

* GHZ-1024 and GHZ-256 states, a BV-127 state with a seeded hidden
  string, a uniform superposition (H on qubits 0-5 of 64), and a QFT-16
  state on a seeded basis label, each through ``run_circuit`` with its
  measurement view built by ``measure_view``;
* nonnegative, zero-rich rational and float tables over 8 variables,
  seeded and folded.

The timed phase only reads: each operation draws a batch of seeded shots
with ``measure`` (states) or ``sample_assignment`` (tables). BV must
return the hidden string on every shot; every other batch must lie in
the exact support and pass a chi-square test against the exact
distribution. The GHZ-1024 batch fails on every run (known fault: its
path-weight total overflows to inf, so every shot takes the last
middle vertex).
"""

import random

from harness import Op
import reference

NAME = "sampling"
NOMINAL_ROUND_S = 0.6
TRACE_ROUNDS = 4
# Draws leave no cyclic garbage behind.
COLLECT_AFTER_OP = False

UNIFORM_QUBITS = 64
UNIFORM_WIDTH = 6
QFT_QUBITS = 16
TABLE_VARIABLES = 8
# Tables and the QFT state have too many labels for a per-label test;
# their draws are bucketed by this many leading bits.
BUCKET_BITS = 4


class State:
    def __init__(self, wc, inputs):
        self.wc = wc
        self.inputs = inputs


class Input:
    """One thing to sample from, with its exact distribution."""

    def __init__(self, kind, shots, dist, state=None, diagram=None,
                 view=None, known_fault=False):
        self.kind = kind
        self.shots = shots
        self.dist = dist
        self.state = state
        self.diagram = diagram
        self.view = view
        self.known_fault = known_fault


def _quantum_input(wc, fields, kind, circuit, shots, dist, known_fault=False):
    state = wc.run_circuit(circuit, fields.forest("complex"))
    view = wc.measure_view(state.diagram)
    return Input(kind, shots, dist, state=state, view=view,
                 known_fault=known_fault)


def _table_input(wc, fields, kind, instance, rng, shots):
    table = reference.nonneg_table(rng, TABLE_VARIABLES, instance)
    diagram = wc.fold(fields.forest(instance), table)
    return Input(kind, shots, reference.table_distribution(table, BUCKET_BITS),
                 diagram=diagram)


def _ghz(wc, fields, n, shots, known_fault=False):
    dist = reference.point_distribution({"0" * n: 0.5, "1" * n: 0.5})
    return _quantum_input(wc, fields, f"GHZ-{n}", wc.quantum.ghz(n), shots,
                          dist, known_fault)


def setup(wc, fields, seed):
    rng = random.Random(f"{NAME}:{seed}:setup")
    q = wc.quantum
    hidden = reference.random_bits(rng, 127)
    bv = reference.point_distribution({hidden + "0": 0.5, hidden + "1": 0.5})

    uniform = q.Circuit(UNIFORM_QUBITS)
    for qubit in range(UNIFORM_WIDTH):
        uniform.h(qubit)
    rest = "0" * (UNIFORM_QUBITS - UNIFORM_WIDTH)
    uniform_dist = reference.point_distribution(
        {format(i, f"0{UNIFORM_WIDTH}b") + rest: 1 / (1 << UNIFORM_WIDTH)
         for i in range(1 << UNIFORM_WIDTH)})

    qft_dist = reference.Distribution(
        lambda label: 1 / (1 << QFT_QUBITS) if len(label) == QFT_QUBITS else 0,
        BUCKET_BITS,
        {format(i, f"0{BUCKET_BITS}b"): 1 / (1 << BUCKET_BITS)
         for i in range(1 << BUCKET_BITS)})
    basis = rng.randrange(1 << QFT_QUBITS)

    # Shot counts give every batch enough draws per category for the
    # chi-square test and spread the batch costs apart, so the median
    # operation (GHZ-256) sits clear of its neighbours.
    return State(wc, [
        _ghz(wc, fields, 1024, 64, known_fault=True),
        _ghz(wc, fields, 256, 64),
        _quantum_input(wc, fields, "BV-127", q.bernstein_vazirani(127, hidden),
                       64, bv),
        _quantum_input(wc, fields, "uniform-6-of-64", uniform, 640,
                       uniform_dist),
        _quantum_input(wc, fields, "QFT-16", q.qft(QFT_QUBITS, basis), 320,
                       qft_dist),
        _table_input(wc, fields, "table/rational", "rational", rng, 640),
        _table_input(wc, fields, "table/float", "float", rng, 320),
    ])


def finish(state):
    return [(i.state.diagram if i.state else i.diagram).forest
            for i in state.inputs]


def make_round(state, seed, index):
    rng = random.Random(f"{NAME}:{seed}:{index}")
    ops = []
    for inp in state.inputs:
        make = _measure_op if inp.state is not None else _assignment_op
        ops.append(make(state.wc, inp, rng.getrandbits(32)))
    return ops, []


def _check(inp):
    def check(counts):
        return (sum(counts.values()) == inp.shots
                and reference.draws_agree(counts, inp.dist))
    return check


def _measure_op(wc, inp, op_seed):
    def measure(tr):
        tr.count("shots", inp.shots)
        return inp.view, tr.call("quantum.measure", wc.measure, inp.state,
                                 inp.shots, op_seed)

    return Op(inp.kind, measure, _check(inp), known_fault=inp.known_fault)


def _assignment_op(wc, inp, op_seed):
    def sample_assignment(tr):
        tr.count("shots", inp.shots)
        ctx = wc.SampleContext(op_seed)
        counts = {}
        for _ in range(inp.shots):
            label = tr.call("sampling.sample_assignment", wc.sample_assignment,
                            inp.diagram, ctx)
            counts[label] = counts.get(label, 0) + 1
        return inp.diagram, counts

    return Op(inp.kind, sample_assignment, _check(inp))
