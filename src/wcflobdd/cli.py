"""Command-line front end: benchmarks, diagram I/O, evaluation, sampling.

Inputs to eval/validate/export/op/sample are either dump files (see
serialize) or family names, the keys of ``_FAMILIES``: EXP_n, ZERO_n,
ONE_n, W_n (Walsh), H_n (Hadamard), I_n (identity), X_n or NOT_n (NOT).
The parameter n is the variable count, a power of two; the matrices
need n >= 2.  Families pick a sensible instance when --instance is not
given (rational, except float for H).

Benchmark reports use the row schema
suite,bench,param,instance,time_s,groupings,vertices,edges,total,status
in both CSV and JSON.  Sizes and statuses are deterministic; wall times
are not, so byte-identical reruns hold for every command except bench.
"""

import argparse
import functools
import json
import math
import os
import random
import sys
import time

from .core import Forest, evaluate, size, validate
from .construct import (exp_family, hadamard_family, identity_matrix,
                        not_matrix, walsh_family)
from .matrix import kronecker, matrix_multiply
from .pointwise import add, multiply, subtract
from .quantum import (amplitude, bernstein_vazirani, build_gate,
                      deutsch_jozsa, ghz, measure, parse_circuit, qft,
                      run_circuit)
from .sampling import SampleContext, measure_view, sample_assignment
from .serialize import dump_diagram, export_dot, load_diagram
from .semifield import field_by_name

REPORT_FIELDS = ("suite", "bench", "param", "instance", "time_s",
                 "groupings", "vertices", "edges", "total", "status")

_QUANTUM_DEFAULTS = {"GHZ": (16, 256, 4096), "BV": (8, 64, 256),
                     "DJ": (8, 64, 256), "QFT": (4, 8, 16)}


def _on_level(build):
    """A family builder on the level log2(n) of n variables."""
    return lambda forest, nvars: build(forest, nvars.bit_length() - 1)


# Family name -> builder from (forest, variable count).  The builders
# raise ValueError below their lowest level (W_1, say).
_FAMILIES = {
    "EXP": exp_family, "ZERO": _on_level(Forest.zero_diagram),
    "ONE": _on_level(Forest.one_diagram), "W": _on_level(walsh_family),
    "H": _on_level(hadamard_family), "I": _on_level(identity_matrix),
    "X": _on_level(not_matrix), "NOT": _on_level(not_matrix),
}


def _resolve(text, instance, forest=None):
    """Diagram from a dump path or family name, plus its forest."""
    if os.path.exists(text):
        with open(text, "r", encoding="utf-8") as fh:
            content = fh.read()
        d = load_diagram(content, forest)
        return d, d.forest
    head, _, tail = text.rpartition("_")
    name = head.upper()
    if name not in _FAMILIES or not tail.isdigit():
        names = ", ".join(f"{n}_n" for n in _FAMILIES)
        raise ValueError(f"{text!r} is neither a file nor a family name "
                         f"({names}; n = variable count)")
    nvars = int(tail)
    if nvars < 1 or nvars & (nvars - 1):
        raise ValueError(f"variable count {nvars} is not a power of two")
    if forest is None:
        if instance is None:
            instance = "float" if name == "H" else "rational"
        forest = Forest(field_by_name(instance))
    return _FAMILIES[name](forest, nvars), forest


def _write(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- bench -------------------------------------------------------------------


def _report_rows(rows, fmt, out):
    if fmt == "json":
        _write(json.dumps(rows, indent=2) + "\n", out)
        return
    lines = [",".join(REPORT_FIELDS)]
    for row in rows:
        lines.append(",".join(str(row[f]) for f in REPORT_FIELDS))
    _write("\n".join(lines) + "\n", out)


def _row(suite, bench, param, instance, dt, report, status):
    return {
        "suite": suite, "bench": bench, "param": param, "instance": instance,
        "time_s": round(dt, 4) if dt is not None else "",
        "groupings": report.groupings if report else "",
        "vertices": report.vertices if report else "",
        "edges": report.edges if report else "",
        "total": report.total if report else "",
        "status": status,
    }


def _run_units(suite, units, timeout):
    """Execute (bench, param, instance, thunk) units under a shared policy.

    The timeout is cooperative: a unit that overruns is reported as a
    timeout and larger parameters of the same benchmark are skipped,
    but the suite always continues.
    """
    rows = []
    timed_out = set()
    for bench, param, instance, thunk in units:
        if bench in timed_out:
            rows.append(_row(suite, bench, param, instance, None, None,
                             "timeout"))
            continue
        start = time.perf_counter()
        try:
            diagram = thunk()
            dt = time.perf_counter() - start
            status = "ok" if dt <= timeout else "timeout"
        except Exception as e:  # any failure becomes a row, never an abort
            dt = time.perf_counter() - start
            print(f"{bench} param {param}: {e}", file=sys.stderr)
            rows.append(_row(suite, bench, param, instance, dt, None,
                             "error"))
            continue
        if status == "timeout":
            timed_out.add(bench)
        rows.append(_row(suite, bench, param, instance, dt, size(diagram),
                         status))
    return rows


def _synthetic_units(params, instance):
    forest = Forest(field_by_name(instance))

    def b1(l):
        return add(identity_matrix(forest, l), not_matrix(forest, l))

    def b2(l):
        m = 1 << (l - 1)
        return matrix_multiply(
            build_gate(forest, ("CNOT", 0, m - 1), m),
            build_gate(forest, ("CNOT", m // 2 - 1, m // 2), m))

    def b3(l):
        result = matrix_multiply(hadamard_family(forest, l),
                                 hadamard_family(forest, l))
        if result is not identity_matrix(forest, l):
            raise ValueError("H x H is not the identity")
        return result

    def b4(l):
        result = add(
            matrix_multiply(hadamard_family(forest, l),
                            identity_matrix(forest, l)),
            matrix_multiply(identity_matrix(forest, l),
                            not_matrix(forest, l)))
        # X is 0 at the all-zeros cell, so H's 2^(-m/2) is the value.
        want = 2.0 ** -((1 << (l - 1)) / 2)
        got = evaluate(result, [0] * (1 << l))
        if abs(got - want) > 1e-9 * want:
            raise ValueError(f"H*I + I*X is {got} at the all-zeros "
                             f"cell, not {want}")
        return result

    def b5(l):
        result = subtract(hadamard_family(forest, l),
                          hadamard_family(forest, l))
        if result is not forest.zero_diagram(l):
            raise ValueError("H - H is not the zero diagram")
        return result

    benches = [("B1", b1), ("B2", b2), ("B3", b3), ("B4", b4), ("B5", b5)]
    return [(name, l, instance, functools.partial(build, l))
            for l in params for name, build in benches
            if name != "B2" or l >= 2]


def _separation_units(params):
    rational = Forest(field_by_name("rational"))
    floating = Forest(field_by_name("float"))
    return ([("EXP", l, "rational",
              functools.partial(exp_family, rational, 1 << l))
             for l in params]
            + [("H", l, "float",
                functools.partial(hadamard_family, floating, l))
               for l in params if l >= 1])


def _quantum_units(params, seed):
    rng = random.Random(seed)

    def run_ghz(n):
        return lambda: run_circuit(ghz(n)).diagram

    def run_hidden(builder, n):
        hidden = "".join(rng.choice("01") for _ in range(n))
        if hidden == "0" * n:
            hidden = "1" + hidden[1:]

        def go():
            state = run_circuit(builder(n, hidden))
            outcome = next(iter(measure(state, 1, seed)))[:n]
            if builder is bernstein_vazirani and outcome != hidden:
                raise ValueError(f"measured {outcome}, hidden {hidden}")
            if builder is deutsch_jozsa and outcome == "0" * n:
                raise ValueError("balanced oracle measured as constant")
            # |hidden> (x) |->: one path gives 2^-1/2, which a draw misses.
            value = amplitude(state, hidden + "0")
            if not math.isclose(abs(value), 2 ** -0.5, rel_tol=1e-9):
                raise ValueError(f"amplitude {value!r} at the hidden "
                                 "string, not +-2^-1/2")
            return state.diagram
        return go

    def run_qft(n):
        basis = rng.randrange(1 << n)
        return lambda: run_circuit(qft(n, basis)).diagram

    makers = {"GHZ": run_ghz, "QFT": run_qft,
              "BV": lambda n: run_hidden(bernstein_vazirani, n),
              "DJ": lambda n: run_hidden(deutsch_jozsa, n)}
    units = []
    for bench, defaults in _QUANTUM_DEFAULTS.items():
        for n in (params or defaults):
            units.append((bench, n, "complex", makers[bench](n)))
    return units


def cmd_bench(args):
    if args.suite == "synthetic":
        params = args.params or list(range(1, 7))
        units = _synthetic_units(params, args.instance or "float")
    elif args.suite == "separation":
        params = args.params or list(range(0, 11))
        units = _separation_units(params)
    else:
        units = _quantum_units(args.params, args.seed)
    rows = _run_units(args.suite, units, args.timeout)
    _report_rows(rows, args.format, args.out)
    return 0


# -- the small commands -------------------------------------------------------


def cmd_eval(args):
    d, forest = _resolve(args.input, args.instance)
    value = evaluate(d, args.bits.strip())
    print(forest.field.format_rounded(value))
    return 0


def cmd_validate(args):
    d, _forest = _resolve(args.input, args.instance)
    violations = validate(d)
    for v in violations:
        print(v)
    if not violations:
        print("ok")
    return 0 if not violations else 1


def cmd_export(args):
    d, _forest = _resolve(args.input, args.instance)
    text = dump_diagram(d) if args.dump else export_dot(d)
    _write(text, args.out)
    return 0


def cmd_run(args):
    with open(args.circuit, "r", encoding="utf-8") as fh:
        text = fh.read()
    circuit = parse_circuit(text, args.qubits)
    if args.echo:
        for gate in circuit.gates:
            print(" ".join(str(x) for x in gate), file=sys.stderr)
    state = run_circuit(circuit)
    counts = measure(state, args.shots, args.seed)
    payload = {
        "qubits": circuit.n,
        "shots": args.shots,
        "seed": args.seed,
        "counts": {k: counts[k] for k in sorted(counts)},
    }
    _write(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_op(args):
    d1, forest = _resolve(args.a, args.instance)
    d2, _ = _resolve(args.b, args.instance, forest)
    ops = {"mul": multiply, "add": add,
           "kron": kronecker, "matmul": matrix_multiply}
    result = ops[args.kind](d1, d2)
    _write(dump_diagram(result), args.out)
    return 0


def cmd_sample(args):
    if args.count < 0:
        raise ValueError(f"sample count {args.count} is negative")
    d, _forest = _resolve(args.input, args.instance)
    if args.measure:
        d = measure_view(d)
    ctx = SampleContext(args.seed)
    lines = [sample_assignment(d, ctx) for _ in range(args.count)]
    _write("\n".join(lines) + "\n", args.out)
    return 0


# -- argument wiring ----------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="wcflobdd",
        description="Weighted hierarchical decision diagrams: benchmarks "
                    "and diagram tools.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, instance=True, out=True):
        if instance:
            p.add_argument("--instance",
                           choices=("rational", "float", "complex"),
                           default=None,
                           help="scalar domain for family inputs")
        if out:
            p.add_argument("--out", default=None, metavar="FILE",
                           help="write output here instead of stdout")

    p = sub.add_parser("bench", help="run a benchmark suite")
    p.add_argument("suite", choices=("synthetic", "separation", "quantum"))
    p.add_argument("--params", type=lambda s: [int(x) for x in s.split(",")],
                   default=None, metavar="N,N,...",
                   help="levels (synthetic/separation) or qubit counts "
                        "(quantum)")
    p.add_argument("--timeout", type=float, default=900.0,
                   help="per-benchmark budget in seconds (cooperative)")
    p.add_argument("--seed", type=int, default=0,
                   help="hidden-string seed for the quantum suite")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    common(p)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("eval", help="evaluate a diagram on an assignment")
    p.add_argument("input", help="dump file or family name")
    p.add_argument("bits", help="assignment as a 0/1 string")
    common(p, out=False)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("validate", help="check structural invariants")
    p.add_argument("input")
    common(p, out=False)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("export", help="emit DOT (or a dump with --dump)")
    p.add_argument("input")
    p.add_argument("--dump", action="store_true",
                   help="emit the textual dump instead of DOT")
    common(p)
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("run", help="run a circuit file and sample it")
    p.add_argument("circuit")
    p.add_argument("--shots", type=int, default=1024)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--qubits", type=int, default=None,
                   help="override the inferred qubit count")
    p.add_argument("--echo", action="store_true",
                   help="echo the parsed gates to stderr")
    common(p, instance=False)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("op", help="apply a binary operation to two diagrams")
    p.add_argument("kind", choices=("mul", "add", "kron", "matmul"))
    p.add_argument("a")
    p.add_argument("b")
    common(p)
    p.set_defaults(fn=cmd_op)

    p = sub.add_parser("sample", help="sample assignments from a diagram")
    p.add_argument("input")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--measure", action="store_true",
                   help="sample from squared magnitudes (measure_view)")
    common(p)
    p.set_defaults(fn=cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OverflowError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
