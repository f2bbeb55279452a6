"""Workload ``circuits``: stock circuits past the CLI's caps.

Highly structured, high-level diagrams with heavy reuse: gate
construction (``kronecker`` plus pointwise ``add``) and gate
application (``matrix_multiply`` up to level 9) do the work, and
fold/unfold barely run. One round runs six circuits, each through
``run_circuit`` on a fresh complex forest:

    BV-63, DJ-63, GHZ-256, GHZ-256, QFT-32, QFT-32

(BV and DJ add one ancilla qubit; the CLI caps QFT at 16 qubits).
Hidden strings and QFT input basis states are seeded. Qubit counts are
fixed so that the cost of a round barely depends on the seed. Two QFT
draws per round average out the basis-dependent cost of the heaviest
circuit, and the two GHZ-256 runs (whose gates do not depend on the
seed) sit in the middle of the cost order, so the median operation
time is the median of six GHZ-256 samples in a three-round run. Each
operation reads amplitudes at seeded labels and compares them with
closed forms, then dumps the state, reloads the dump into a fresh
forest and dumps it again; the two dumps must be byte-identical.

The traced run also replays every circuit gate by gate through
``build_gate`` and ``apply_matrix_to_vector`` on another fresh forest,
to split gate construction from gate application; the replayed state
must dump to the same text.
"""

import random

from harness import Op
import reference

NAME = "circuits"
NOMINAL_ROUND_S = 5.6
TRACE_ROUNDS = 1
# Every operation leaves a whole forest behind, which holds reference
# cycles and so waits for a full collection. Collected between
# operations, it is not charged to whichever later operation happens to
# trigger that collection (GHZ-256 took 0.55-0.80 s without this).
COLLECT_AFTER_OP = True

CIRCUITS = (("bv", 63), ("dj", 63), ("ghz", 256), ("ghz", 256), ("qft", 32),
            ("qft", 32))
RANDOM_LABELS = 6


class State:
    def __init__(self, wc, fields):
        self.wc = wc
        self.fields = fields


def setup(wc, fields, seed):
    return State(wc, fields)


def finish(state):
    return []


def make_round(state, seed, index):
    rng = random.Random(f"{NAME}:{seed}:{index}")
    return [_circuit_op(state, rng, family, n) for family, n in CIRCUITS], []


def _circuit(wc, rng, family, n):
    """(circuit, amplitude closed form, labels to read)."""
    q = wc.quantum
    if family == "ghz":
        labels = ["0" * n, "1" * n]
        return q.ghz(n), reference.ghz_amplitude, labels
    if family == "qft":
        basis = rng.randrange(1 << n)
        return (q.qft(n, basis),
                lambda label: reference.qft_amplitude(label, basis), [])
    hidden = reference.random_bits(rng, n)
    if family == "dj":
        while "1" not in hidden:
            hidden = reference.random_bits(rng, n)
        circuit = q.deutsch_jozsa(n, hidden)
    else:
        circuit = q.bernstein_vazirani(n, hidden)
    labels = [hidden + "0", hidden + "1", "0" * (n + 1)]
    return (circuit,
            lambda label: reference.hidden_string_amplitude(label, hidden),
            labels)


def _circuit_op(state, rng, family, n):
    wc = state.wc
    fields = state.fields
    circuit, closed_form, labels = _circuit(wc, rng, family, n)
    labels += [reference.random_bits(rng, circuit.n)
               for _ in range(RANDOM_LABELS)]

    def run_and_dump(tr):
        result = tr.call("quantum.run_circuit", wc.run_circuit, circuit,
                         fields.forest("complex"))
        tr.count("gates", len(circuit.gates))
        amplitudes = [tr.call("quantum.amplitude", wc.amplitude, result, label)
                      for label in labels]
        text = tr.call("serialize.dump_diagram", wc.dump_diagram,
                       result.diagram)
        reloaded = tr.call("serialize.load_diagram", wc.load_diagram, text,
                           fields.forest("complex"))
        again = tr.call("serialize.dump_diagram", wc.dump_diagram, reloaded)
        tr.forest_done(result.diagram.forest)
        tr.forest_done(reloaded.forest)
        return result.diagram, (amplitudes, text, again)

    def check(observed):
        amplitudes, text, again = observed
        return (len(amplitudes) == len(labels) and text == again
                and all(reference.close_or_zero(a, closed_form(label))
                        for a, label in zip(amplitudes, labels)))

    def replay(tr, observed):
        return tr.call(f"{NAME}.replay_gates", replay_gates, tr) == observed[1]

    def replay_gates(tr):
        # An uncounted forest, left out of the memo tally: the semifield
        # and memo figures describe the operations alone.
        forest = wc.Forest(wc.field_by_name("complex"))
        padded = 1 << (circuit.n - 1).bit_length()
        vector = tr.call("quantum.basis_state", wc.quantum.basis_state,
                         forest, (0,) * padded)
        for gate in circuit.gates:
            matrix = tr.call("quantum.build_gate", wc.quantum.build_gate,
                             forest, gate, circuit.n)
            vector = tr.call("matrix.apply_matrix_to_vector",
                             wc.apply_matrix_to_vector, matrix, vector)
        return wc.dump_diagram(vector)

    return Op(f"{family.upper()}-{n}", run_and_dump, check, after=replay)
