"""Operation loop, span tracer and counting semifields shared by workloads.

A workload is a module with three functions:

* ``setup(wc, fields, seed)`` builds what the timed phase needs from the
  imported ``wcflobdd`` package ``wc`` and returns it;
* ``make_round(state, seed, index)`` draws one round's inputs and
  returns its operations, plus the forests to tally once they are done;
* ``finish(state)`` returns the forests that live for the whole run.

and sets ``COLLECT_AFTER_OP``: whether to run the cyclic garbage
collector after each operation, outside its timing.

Every round holds the same operations (inputs differ by seed and round),
so the share of failed operations is the same in every run.

An :class:`Op` splits into ``run``, the program calls that are timed,
and ``check``, which compares the observed output with a reference
computed apart from the program, untimed.
"""

import gc
import time

# Every time the benchmark reports is CPU time of this process. The
# program is single-threaded and does no I/O during an operation, so on
# an idle machine this equals wall time; on a shared host, wall time also
# counts the stretches the CPU is taken away, which moved whole runs by
# 20-50% on the reference machine while CPU time stayed within a few %.
clock = time.process_time

# Memo tables the forest keeps in ``Forest.caches``; each is reported as
# ``core.memo_entries.<name>``. Tables not named here still count in
# the ``core.memo_entries`` total.
MEMO_TABLES = (
    "reduce", "pair_product", "weighted_pair_product", "matrix_mult",
    "unfold_proto", "walsh_proto", "identity_proto", "not_proto",
    "basis_zero_powers", "path_weights", "measure_view", "nonneg_ok",
    "sample_cdf",
)


class Op:
    """One checked unit of program work.

    ``run(tracer)`` makes the program calls and returns
    ``(result_diagram, observed)``; ``check(observed)`` is true when the
    output is right. ``known_fault`` marks an operation that fails on
    every run because of a fault named in CHANGES.md.
    """

    __slots__ = ("kind", "run", "check", "known_fault", "after")

    def __init__(self, kind, run, check, known_fault=False, after=None):
        self.kind = kind
        self.run = run
        self.check = check
        self.known_fault = known_fault
        # ``after(tracer, observed)``: an untimed extra step of the traced
        # run, false on a mismatch.
        self.after = after


class NullTracer:
    """Untraced runs: calls go straight through."""

    traced = False

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, n):
        pass

    def forest_done(self, forest):
        pass

    def result(self, diagram):
        pass


class Tracer:
    """Records a span per call into a layer; kept in memory until the end.

    A span is ``(name, start, end, parent index, operation id)`` with
    ``name`` of the form ``<module>.<function>``.
    """

    traced = True

    def __init__(self, wc):
        self.wc = wc
        self.spans = []
        self._stack = []
        self.op_id = None
        self.memo = {}
        self.counters = {}
        self.result_size = 0

    def call(self, name, fn, *args):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(idx)
        start = clock()
        try:
            return fn(*args)
        finally:
            end = clock()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op_id)

    def count(self, name, n):
        """Add ``n`` to a workload-level counter (gates run, shots drawn)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def forest_done(self, forest):
        """Tally a forest's memo entries when the workload drops it."""
        forests = [forest]
        companion = forest.caches.get("measure_view", {}).get("forest")
        if companion is not None and companion is not forest:
            forests.append(companion)
        for f in forests:
            for name, table in f.caches.items():
                self.memo[name] = self.memo.get(name, 0) + len(table)

    def result(self, diagram):
        if diagram is not None:
            self.result_size += self.wc.size(diagram).total

    def totals(self):
        """Per span name: (call count, total seconds)."""
        out = {}
        for name, start, end, _, _ in self.spans:
            n, s = out.get(name, (0, 0.0))
            out[name] = (n + 1, s + end - start)
        return out


class Counts:
    __slots__ = ("add", "mul", "mul_trivial", "key", "inv")

    def __init__(self):
        self.reset()

    def reset(self):
        self.add = self.mul = self.mul_trivial = self.key = self.inv = 0


def counting_field(field, counts):
    """A copy of ``field`` whose add/mul/key/inv calls are counted.

    It subclasses the field's own class, so every ``isinstance`` test
    in the program sees the same instance kind.
    """
    base = type(field)

    class Counting(base):
        def add(self, a, b):
            counts.add += 1
            return base.add(self, a, b)

        def mul(self, a, b):
            counts.mul += 1
            if a == 0 or a == 1 or b == 0 or b == 1:
                counts.mul_trivial += 1
            return base.mul(self, a, b)

        def key(self, a):
            counts.key += 1
            return base.key(self, a)

        def inv(self, a):
            counts.inv += 1
            return base.inv(self, a)

        def measure_field(self):
            m = base.measure_field(self)
            return self if m is self else counting_field(m, counts)

    Counting.__name__ = "Counting" + base.__name__
    out = object.__new__(Counting)
    out.__dict__.update(vars(field))
    return out


class Fields:
    """Makes a workload's forests; on counting fields when given ``counts``."""

    def __init__(self, wc, counts=None):
        self.wc = wc
        self.counts = counts

    def forest(self, name):
        field = self.wc.field_by_name(name)
        if self.counts is not None:
            field = counting_field(field, self.counts)
        return self.wc.Forest(field)


class Tally:
    """Per-run totals of the operation loop."""

    def __init__(self):
        self.times = []
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        # Operation kind -> (list of op times, failure count).
        self.kinds = {}

    def record(self, op, seconds, ok, error=None):
        self.times.append(seconds)
        self.attempted += 1
        times, failed = self.kinds.get(op.kind, ([], 0))
        times.append(seconds)
        self.kinds[op.kind] = (times, failed + (not ok))
        if not ok:
            self.failed += 1
            if not op.known_fault:
                self.unexpected.append(error or op.kind)


def run_rounds(workload, state, seed, rounds, tracer):
    """Run whole rounds of operations; returns a Tally."""
    tally = Tally()
    op_id = 0
    for index in range(rounds):
        ops, round_forests = workload.make_round(state, seed, index)
        for op in ops:
            op_id += 1
            tracer.op_id = op_id
            error = None
            start = clock()
            try:
                diagram, observed = tracer.call(
                    f"{workload.NAME}.{op.run.__name__}", op.run, tracer)
            except Exception as exc:  # a crashing operation is a failed one
                seconds = clock() - start
                tally.record(op, seconds, False,
                             f"{op.kind}: {type(exc).__name__}: {exc}")
                continue
            seconds = clock() - start
            try:
                ok = bool(op.check(observed))
            except Exception as exc:
                ok, error = False, f"{op.kind}: check raised {exc!r}"
            tally.record(op, seconds, ok, error)
            if workload.COLLECT_AFTER_OP:
                gc.collect()
            if tracer.traced:
                tracer.result(diagram)
                if op.after is not None and not op.after(tracer, observed):
                    tally.unexpected.append(f"{op.kind}: traced step differs")
        for forest in round_forests:
            tracer.forest_done(forest)
    return tally


def median(values):
    s = sorted(values)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2
