"""Fingerprints of the package's observable behaviour, one line each.

Prints ``label sha256`` for every artefact that a behaviour-preserving
change must leave byte-identical: seeded operation results, their
structure (dump, size, validate) on one line and their read-back
(``unfold``) on another labelled ``unfold/...``, so that a change to
read-back alone leaves every structure line as it was, with the
forest's grouping and diagram counts after each batch, the named
families at levels 1-10 with their DOT export, circuit states, the
``state_vector`` amplitudes of four small padded states, the dump
positions of the groupings flagged canonical under
each family and state, each family and state dump loaded into a fresh
forest and dumped again, every gate on 16 qubits, seeded controlled
gates of each block width on 64 qubits, three gates on 4096 qubits,
the ``gate_blocks`` and grouping counts of three circuits and the
entry count of each memo table after each, seeded sample streams with
their path totals, the generator state after each and error messages,
``measure`` histograms (H on 256 and 1024 qubits among them), the
float and complex canonical keys of edge and seeded values, and CLI
output with ``time_s`` removed from bench rows.  Table counts are read after ``gc.collect()``, so no
line depends on when the cyclic collector ran.  Run it on two checkouts
and ``diff`` the outputs:

    python3 tests/identity_check.py > after.txt
    python3 tests/identity_check.py /path/to/other/checkout/src > before.txt
    diff before.txt after.txt

The optional argument is the ``src`` directory whose ``wcflobdd`` is
checked; it defaults to the one next to this file.  Not collected by
pytest (the name does not start with ``test_``).
"""

import gc
import hashlib
import io
import json
import math
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = sys.argv[1] if len(sys.argv) > 1 else os.path.join(HERE, "..", "src")
sys.path.insert(0, os.path.abspath(SRC))

import wcflobdd as wc  # noqa: E402
from wcflobdd import cli, quantum  # noqa: E402
from wcflobdd.core import reachable_groupings  # noqa: E402
from wcflobdd.sampling import compute_weights  # noqa: E402

INSTANCES = ("rational", "float", "complex")


def emit(label, text):
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    print(f"{label} {digest}", flush=True)


def _outcome(fn, *args):
    """repr of fn(*args), or the exception it raised."""
    try:
        return repr(fn(*args))
    except Exception as e:  # the error is part of the behaviour
        return f"{type(e).__name__}: {e}"


def _leaf(rng, instance):
    if rng.random() < 0.35:
        return 0
    if instance == "rational":
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    if instance == "float":
        return rng.uniform(-2, 2)
    return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))


def _table(rng, instance, level):
    return [_leaf(rng, instance) for _ in range(1 << (1 << level))]


def _describe(d):
    """Structure of ``d``: its dump, size and validate report."""
    return "\n".join([wc.dump_diagram(d), repr(wc.size(d)),
                      repr(wc.validate(d))])


def _emit_pair(label, diagrams):
    """The structure line ``label`` of ``diagrams``, then their read-back
    line ``unfold/label`` (levels 3 and below)."""
    emit(label, "\n".join(map(_describe, diagrams)))
    emit(f"unfold/{label}", "\n".join(
        repr(wc.unfold(d)) for d in diagrams if d.level <= 3))


def _canonical(forest, d):
    """Dump positions of the groupings under ``d`` flagged canonical."""
    out = []
    for i, g in enumerate(reachable_groupings(d.head)[::-1]):
        flag = getattr(g, "canonical", None)
        if flag is None:  # a tree that keeps the flags in a forest table
            flag = forest.is_marked_canonical(g)
        if flag:
            out.append(str(i))
    return " ".join(out)


def _reload(d):
    """The dump of ``d`` loaded back into a fresh forest and dumped again."""
    return wc.dump_diagram(wc.load_diagram(wc.dump_diagram(d)))


def _counts(forest):
    gc.collect()  # counts must not depend on when the collector ran
    stats = forest.stats()
    return f"{stats['groupings']} {stats['diagrams']}"


def operations():
    ops = (("multiply", wc.multiply), ("add", wc.add),
           ("subtract", wc.subtract), ("kronecker", wc.kronecker),
           ("matrix_multiply", wc.matrix_multiply))
    for instance in INSTANCES:
        forest = wc.Forest(wc.field_by_name(instance))
        rng = random.Random(f"ops-{instance}")
        for level in (1, 2, 3):
            pairs = [(wc.fold(forest, _table(rng, instance, level)),
                      wc.fold(forest, _table(rng, instance, level)))
                     for _ in range(9 if level < 3 else 4)]
            _emit_pair(f"fold/{instance}/L{level}",
                       [d for pair in pairs for d in pair])
            emit(f"counts/fold/{instance}/L{level}", _counts(forest))
            for name, op in ops:
                _emit_pair(f"{name}/{instance}/L{level}",
                           [op(a, b) for a, b in pairs])
                emit(f"counts/{name}/{instance}/L{level}", _counts(forest))


def families():
    builders = (("W", wc.walsh_family), ("I", wc.identity_matrix),
                ("X", wc.not_matrix), ("H", wc.hadamard_family))
    for instance in INSTANCES:
        forest = wc.Forest(wc.field_by_name(instance))
        for name, build in builders:
            texts = []
            flags = []
            reloads = []
            for level in range(1, 11):
                try:
                    d = build(forest, level)
                except Exception as e:  # the error is part of the behaviour
                    texts.append(f"{type(e).__name__}: {e}")
                    continue
                texts.append(_describe(d))
                texts.append(wc.export_dot(d))
                flags.append(_canonical(forest, d))
                reloads.append(_reload(d))
            emit(f"family/{name}/{instance}", "\n".join(texts))
            emit(f"canonical/family/{name}/{instance}", "\n".join(flags))
            emit(f"reload/family/{name}/{instance}", "\n".join(reloads))
    rational = wc.Forest(wc.field_by_name("rational"))
    exps = [wc.exp_family(rational, 1 << k) for k in range(0, 9)]
    _emit_pair("family/EXP/rational", exps)
    emit("canonical/family/EXP/rational",
         "\n".join(_canonical(rational, d) for d in exps))
    emit("reload/family/EXP/rational", "\n".join(map(_reload, exps)))


def circuits():
    states = {
        "GHZ-256": quantum.ghz(256),
        "QFT-32": quantum.qft(32, 5),
        "BV-63": quantum.bernstein_vazirani(63, "10" * 31 + "1"),
        "GHZ-1024": quantum.ghz(1024),
        "DJ-63-balanced": quantum.deutsch_jozsa(63, "110" * 21),
        "DJ-63-constant": quantum.deutsch_jozsa(63, None),
        "parsed-mixed": quantum.parse_circuit(
            "# mixed\nX 5\nH 0\nh 3\nCNOT 0 9\nPHASE 0.25 3\n\n"
            "CP 1.25 9 2\ncnot 11 4\nCP -0.5 1 7\nphase 3 11\nH 9\n", 12),
    }
    for label, circuit in states.items():
        state = wc.run_circuit(circuit).diagram
        emit(f"state/{label}", wc.dump_diagram(state))
        emit(f"canonical/state/{label}", _canonical(state.forest, state))
        emit(f"reload/state/{label}", _reload(state))
    state, iterations = quantum.grover(8, "10110010")
    emit("state/Grover-8", f"{iterations}\n" + wc.dump_diagram(state.diagram))
    emit("canonical/state/Grover-8",
         _canonical(state.diagram.forest, state.diagram))
    emit("reload/state/Grover-8", _reload(state.diagram))
    for label, circuit in (("GHZ-5", quantum.ghz(5)),
                           ("QFT-5", quantum.qft(5, 3)),
                           ("BV-3", quantum.bernstein_vazirani(3, "101")),
                           ("QFT-9", quantum.qft(9, 300))):
        emit(f"state_vector/{label}", "\n".join(
            map(repr, quantum.state_vector(wc.run_circuit(circuit)))))


def gates():
    forest = quantum.quantum_forest()
    pairs = [(a, b) for a in range(16) for b in range(16) if a != b]
    for label, make in (("CNOT", lambda a, b: ("CNOT", a, b)),
                        ("CP-pi/3", lambda a, b: ("CP", math.pi / 3, a, b))):
        emit(f"gate/{label}/16", "\n".join(
            wc.dump_diagram(quantum.build_gate(forest, make(a, b), 16))
            for a, b in pairs))
    for label, make in (("H", lambda q: ("H", q)), ("X", lambda q: ("X", q)),
                        ("PHASE-pi/3", lambda q: ("PHASE", math.pi / 3, q))):
        emit(f"gate/{label}/16", "\n".join(
            wc.dump_diagram(quantum.build_gate(forest, make(q), 16))
            for q in range(16)))
    for gate in (("CNOT", 0, 4095), ("CNOT", 2047, 2048),
                 ("CP", math.pi / 5, 4095, 0)):
        emit(f"gate/{'-'.join(map(str, gate))}/4096",
             wc.dump_diagram(quantum.build_gate(forest, gate, 4096)))
    # Seeded controlled gates on 64 qubits, one block of each width from
    # 2 to 64 at a seeded aligned offset, in both orders.
    forest = quantum.quantum_forest()
    rng = random.Random("gates-64")
    for width in (2, 4, 8, 16, 32, 64):
        texts = []
        for _ in range(3):
            base = rng.randrange(0, 64, width)
            a = base + rng.randrange(width // 2)
            b = base + width // 2 + rng.randrange(width // 2)
            theta = rng.uniform(-math.pi, math.pi)
            for gate in (("CNOT", a, b), ("CNOT", b, a),
                         ("CP", theta, a, b), ("CP", theta, b, a)):
                texts.append(wc.dump_diagram(
                    quantum.build_gate(forest, gate, 64)))
        emit(f"gate/seeded/64/width{width}", "\n".join(texts))
    # Table sizes on fresh forests: how many blocks and groupings the
    # gate construction leaves behind, and which memo tables keep what.
    for label, circuit in (("GHZ-256", quantum.ghz(256)),
                           ("QFT-32", quantum.qft(32, 12345)),
                           ("GHZ-4096", quantum.ghz(4096))):
        forest = quantum.quantum_forest()
        wc.run_circuit(circuit, forest)
        gc.collect()
        stats = forest.stats()
        emit(f"gate_blocks/{label}",
             f"{stats['caches'].get('gate_blocks', 0)} {stats['groupings']}")
        for name, entries in stats["caches"].items():
            emit(f"caches/{label}/{name}", str(entries))


def _all_h(n):
    circuit = quantum.Circuit(n)
    for q in range(n):
        circuit.h(q)
    return circuit


def _stream(d, seed, count):
    """``count`` seeded draws from ``d``, and the generator state after."""
    ctx = wc.SampleContext(seed)
    labels = [wc.sample_assignment(d, ctx) for _ in range(count)]
    return " ".join(labels), ctx.source.getstate()


def samples():
    states = {
        "GHZ-5": quantum.ghz(5), "GHZ-256": quantum.ghz(256),
        "GHZ-1024": quantum.ghz(1024), "QFT-5": quantum.qft(5, 3),
        "QFT-16": quantum.qft(16, 11),
        "BV-6": quantum.bernstein_vazirani(6, "101101"),
        "H-256": _all_h(256), "H-1024": _all_h(1024),
    }
    for label, circuit in states.items():
        state = wc.run_circuit(circuit)
        for seed in (1, 2, 3):
            emit(f"measure/{label}/seed{seed}",
                 _outcome(lambda: sorted(quantum.measure(state, 200, seed)
                                         .items())))
        emit(f"sample_view/{label}",
             _outcome(_stream, wc.measure_view(state.diagram), 7, 50))
    for instance in ("rational", "float"):
        forest = wc.Forest(wc.field_by_name(instance))
        rng = random.Random(f"samples-{instance}")
        texts = []
        positions = []
        for n in range(60):
            level = 1 + n % 3
            table = [abs(v) for v in _table(rng, instance, level)]
            if not any(table):
                table[0] = 1
            d = wc.fold(forest, table)
            texts.append(repr(compute_weights(forest, d.head)))
            labels, position = _stream(d, n, 20)
            texts.append(labels)
            positions.append(repr(position))
        emit(f"sample_assignment/{instance}", "\n".join(texts))
        emit(f"sample_state/{instance}", "\n".join(positions))
    rational = wc.Forest(wc.field_by_name("rational"))
    floating = wc.Forest(wc.field_by_name("float"))
    complexes = wc.Forest(wc.field_by_name("complex"))
    errors = {
        "zero": floating.zero_diagram(1),
        "walsh-1": wc.walsh_family(rational, 1),
        "walsh-3": wc.walsh_family(rational, 3),
        "complex": wc.fold(complexes, [0.5j, 0.5, 0.5, 0.5]),
        "negative-factor": wc.scalar_multiply(Fraction(-1),
                                              wc.exp_family(rational, 2)),
    }
    for label, d in errors.items():
        emit(f"sample_error/{label}",
             _outcome(wc.sample_assignment, d, wc.SampleContext(1)))


def keys():
    rng = random.Random("keys")
    values = [0.0, -0.0, 0j, complex(-0.0, -0.0), complex(1, -0.0), 1,
              True, Fraction(0), Fraction(1), 1e-11, 5e-11, 0.99999999999,
              1 + 1e-12j, math.inf, math.nan]
    for _ in range(200):
        scale = 10.0 ** rng.randint(-14, 3)
        x = rng.choice((0.0, 1.0, -1.0, rng.uniform(-2, 2))) + \
            rng.uniform(-scale, scale)
        y = rng.choice((0.0, -0.0, x, rng.uniform(-1, 1)))
        values.append(x if rng.random() < 0.4 else complex(x, y))
    for name in ("float", "complex"):
        field = wc.field_by_name(name)
        emit(f"key/{name}/default",
             "\n".join(_outcome(field.key, v) for v in values))


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return out.getvalue(), err.getvalue(), code


def _bench(*argv):
    out, err, code = _cli("bench", *argv, "--format", "json")
    rows = json.loads(out)
    for row in rows:
        del row["time_s"]
    return f"{json.dumps(rows, indent=1)}\n{err}\n{code}"


def command_line():
    params = ",".join(str(level) for level in range(1, 11))
    for instance in ("float", "complex"):
        emit(f"cli/bench-synthetic/{instance}",
             _bench("synthetic", "--params", params, "--instance", instance))
    emit("cli/bench-separation", _bench("separation"))
    emit("cli/bench-quantum", _bench("quantum", "--params", "8,32"))
    with tempfile.TemporaryDirectory() as tmp:
        for fam in ("EXP_16", "W_8", "H_8", "I_16", "X_16"):
            emit(f"cli/export/{fam}", repr(_cli("export", fam)))
            emit(f"cli/export-dump/{fam}", repr(_cli("export", "--dump", fam)))
        circuits = {
            "ghz8": "\n".join(["H 0"] + [f"CNOT {q} {q + 1}"
                                         for q in range(7)]),
            "qft4": "X 1\nH 0\nCP 1.5707963267948966 1 0\nPHASE 0.5 2\n"
                    "H 1\nCP 0.7853981633974483 2 0\nH 2\nH 3\n",
        }
        for name, text in circuits.items():
            path = os.path.join(tmp, f"{name}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            emit(f"cli/run/{name}",
                 repr(_cli("run", path, "--seed", "7", "--shots", "200")))
        exp4 = os.path.join(tmp, "exp4.dump")
        h2 = os.path.join(tmp, "h2.dump")
        _cli("export", "--dump", "EXP_4", "--out", exp4)
        _cli("export", "--dump", "H_2", "--out", h2)
        emit("cli/sample/EXP_4",
             repr(_cli("sample", exp4, "--seed", "1", "--count", "50")))
        emit("cli/sample/H_2-measure",
             repr(_cli("sample", h2, "--seed", "1", "--count", "50",
                       "--measure")))
        emit("cli/sample/W_2-error",
             repr(_cli("sample", "W_2", "--seed", "1")))
        for argv in (("mul", "EXP_4", "EXP_4"), ("add", "W_4", "I_4"),
                     ("kron", "I_2", "X_2"), ("matmul", "W_4", "X_4"),
                     ("matmul", "H_4", "H_4", "--instance", "float")):
            emit("cli/op/" + "-".join(argv[:3]), repr(_cli("op", *argv)))


def main():
    operations()
    families()
    circuits()
    gates()
    samples()
    keys()
    command_line()


if __name__ == "__main__":
    main()
