"""End-to-end and per-layer benchmark of the wcflobdd package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dense_ops --seed 1 --seconds 15 \
        --trace 0
    python3 perfbench/run.py            # every workload, untraced and traced

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics (setup_s, ops_per_s, op_p50_ms,
peak_rss_mb); with ``--trace 1`` it carries the per-layer metrics of a
separate traced run. An earlier line records the interpreter, CPU
count and seed. Results, and the spans of traced runs, are also
written under ``perfbench/results/``.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import circuits
import dense_ops
import sampling
from harness import (MEMO_TABLES, Counts, Fields, NullTracer, Tracer, clock,
                     median, run_rounds)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

WORKLOADS = {w.NAME: w for w in (dense_ops, circuits, sampling)}
# Set-up runs this many times per untraced run; setup_s is the median.
SETUP_REPS = 3
CHILD_TIMEOUT_S = 900

END_TO_END = (("setup_s", "s"), ("ops_per_s", "op/s"), ("op_p50_ms", "ms"),
              ("peak_rss_mb", "MB"))

# (metric, unit, span names whose time or call count it sums)
SPAN_SECONDS = (
    ("construct.fold_s", ("construct.fold",)),
    ("construct.unfold_s", ("construct.unfold",)),
    ("pointwise.multiply_s", ("pointwise.multiply",)),
    ("pointwise.add_s", ("pointwise.add", "pointwise.subtract")),
    ("matrix.matrix_multiply_s", ("matrix.matrix_multiply",)),
    ("matrix.kronecker_s", ("matrix.kronecker",)),
    ("quantum.run_circuit_s", ("quantum.run_circuit",)),
    ("quantum.build_gate_s", ("quantum.build_gate",)),
    ("matrix.apply_s", ("matrix.apply_matrix_to_vector",)),
    ("sampling.measure_s", ("quantum.measure",)),
    ("sampling.sample_assignment_s", ("sampling.sample_assignment",)),
    ("serialize.dump_s", ("serialize.dump_diagram",)),
    ("serialize.load_s", ("serialize.load_diagram",)),
    ("core.evaluate_s", ("core.evaluate", "quantum.amplitude")),
)
SPAN_CALLS = (
    ("construct.fold_calls", ("construct.fold",)),
    ("construct.unfold_calls", ("construct.unfold",)),
)

PER_LAYER = (
    (("semifield.mul_calls", "calls"), ("semifield.add_calls", "calls"),
     ("semifield.key_calls", "calls"), ("semifield.inv_calls", "calls"),
     ("semifield.mul_trivial_share", "share"))
    + tuple((name, "s") for name, _ in SPAN_SECONDS)
    + tuple((name, "calls") for name, _ in SPAN_CALLS)
    + (("quantum.gates_per_s", "gate/s"), ("sampling.shots_per_s", "shot/s"),
       ("core.memo_entries", "entries"))
    + tuple((f"core.memo_entries.{t}", "entries") for t in MEMO_TABLES)
    + (("core.tracemalloc_peak_mb", "MB"), ("core.result_size_total", "units"),
       ("trace.overhead_s", "s"))
)


def import_program():
    """Import (or import again) wcflobdd from the checkout's src/."""
    for name in [n for n in sys.modules
                 if n == "wcflobdd" or n.startswith("wcflobdd.")]:
        del sys.modules[name]
    wc = importlib.import_module("wcflobdd")
    if Path(wc.__file__).resolve().parent != (SRC / "wcflobdd").resolve():
        raise SystemExit(f"perfbench: imported wcflobdd from {wc.__file__}, "
                         f"not from {SRC}")
    return wc


def untraced(workload, seed, seconds):
    """Set-up SETUP_REPS times, then whole rounds sized from ``seconds``.

    The round count depends on ``seconds`` only, never on how fast the
    rounds ran, so every commit does the same work and peak memory
    compares like with like.
    """
    rounds = max(1, round(seconds / workload.NOMINAL_ROUND_S))
    setup_times = []
    for _ in range(SETUP_REPS):
        state = None
        gc.collect()
        start = clock()
        wc = import_program()
        state = workload.setup(wc, Fields(wc), seed)
        setup_times.append(clock() - start)
    tally = run_rounds(workload, state, seed, rounds, NullTracer())
    busy = sum(tally.times)
    metrics = {
        "setup_s": median(setup_times),
        "ops_per_s": (tally.attempted - tally.failed) / busy,
        "op_p50_ms": median(tally.times) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    return rounds, [tally], metrics, None


def traced(workload, seed):
    """Three passes over TRACE_ROUNDS rounds, each from fresh forests.

    The first runs untraced; the second records spans, semifield counts,
    memo entries and result sizes, and the difference of the two passes'
    operation times is the tracing overhead; the third runs under
    tracemalloc alone, whose cost per allocation would otherwise skew
    the spans towards allocation-heavy layers.
    """
    rounds = workload.TRACE_ROUNDS
    wc = import_program()
    plain = traced_pass(workload, Fields(wc), seed, rounds, NullTracer())
    counts = Counts()
    tracer = Tracer(wc)
    tally = traced_pass(workload, Fields(wc, counts), seed, rounds, tracer)
    tracemalloc.start()
    measured = traced_pass(workload, Fields(wc), seed, rounds, NullTracer())
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    metrics = layer_metrics(tracer, counts, peak)
    metrics["trace.overhead_s"] = sum(tally.times) - sum(plain.times)
    return rounds, [tally, plain, measured], metrics, tracer.spans


def traced_pass(workload, fields, seed, rounds, tracer):
    gc.collect()
    state = workload.setup(fields.wc, fields, seed)
    if fields.counts is not None:
        fields.counts.reset()
    tally = run_rounds(workload, state, seed, rounds, tracer)
    for forest in workload.finish(state):
        tracer.forest_done(forest)
    return tally


def layer_metrics(tracer, counts, tracemalloc_peak):
    totals = tracer.totals()

    def span_sum(names, index):
        return sum(totals.get(n, (0, 0.0))[index] for n in names)

    m = {
        "semifield.mul_calls": counts.mul,
        "semifield.add_calls": counts.add,
        "semifield.key_calls": counts.key,
        "semifield.inv_calls": counts.inv,
        "semifield.mul_trivial_share":
            counts.mul_trivial / counts.mul if counts.mul else 0.0,
    }
    for name, spans in SPAN_SECONDS:
        m[name] = span_sum(spans, 1)
    for name, spans in SPAN_CALLS:
        m[name] = span_sum(spans, 0)
    run_s = m["quantum.run_circuit_s"]
    draw_s = m["sampling.measure_s"] + m["sampling.sample_assignment_s"]
    m["quantum.gates_per_s"] = (tracer.counters.get("gates", 0) / run_s
                                if run_s else 0.0)
    m["sampling.shots_per_s"] = (tracer.counters.get("shots", 0) / draw_s
                                 if draw_s else 0.0)
    m["core.memo_entries"] = sum(tracer.memo.values())
    for table in MEMO_TABLES:
        m[f"core.memo_entries.{table}"] = tracer.memo.get(table, 0)
    m["core.tracemalloc_peak_mb"] = tracemalloc_peak / (1 << 20)
    m["core.result_size_total"] = tracer.result_size
    return m


def environment(args, rounds):
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpus": os.cpu_count(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "rounds": rounds}


def run_one(args):
    workload = WORKLOADS[args.workload]
    if args.trace:
        rounds, tallies, values, spans = traced(workload, args.seed)
        spec = PER_LAYER
    else:
        rounds, tallies, values, spans = untraced(workload, args.seed,
                                                  args.seconds)
        spec = END_TO_END
    # The first tally is the pass the metrics come from; every pass's
    # unexpected failures count against ``correct``.
    reported = tallies[0]
    unexpected = [u for t in tallies for u in t.unexpected]
    result = {
        "correct": not unexpected,
        "attempted": reported.attempted,
        "failed": reported.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in spec},
    }
    env = environment(args, rounds)
    print("env " + json.dumps(env))
    if unexpected:
        print("unexpected failures: " + "; ".join(unexpected[:10]))
    write_results(args, env, result, reported, unexpected, spans)
    print(json.dumps(result))
    return 0


def write_results(args, env, result, tally, unexpected, spans):
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, env=env, unexpected=unexpected[:100],
                  by_kind={k: {"failed": f, "times": t}
                           for k, (t, f) in sorted(tally.kinds.items())})
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        with open(RESULTS / f"{stem}.spans.jsonl", "w") as out:
            for span in spans:
                out.write(json.dumps(span) + "\n")


def run_all(args):
    """Every workload, untraced then traced, each in a fresh interpreter."""
    status = 0
    rows = []
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                sys.stderr.write(proc.stderr)
                print(f"{name} trace={trace}: exit {proc.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for metric, v in result["metrics"].items():
                print(f"  {metric:40s} {v['value']:>16.6g} {v['unit']}")
            rows.append({"workload": name, "trace": trace, **result})
            status |= not result["correct"]
    print(json.dumps(rows))
    return status


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "wcflobdd" / "__init__.py").is_file():
        print(f"perfbench: no wcflobdd source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
