"""Workload ``dense_ops``: unstructured operands and the Hadamard identities.

Random dense operands share the least structure, so fold/unfold, the
semifield arithmetic, ``reduce`` and the symbolic matrix product do the
work and the memo tables of the two long-lived forests only grow. One
round holds:

* 24 binary operations: {rational, complex} x {multiply, add,
  kronecker, matrix_multiply} x levels 1-3. Each folds both operands,
  applies the operation and reads the result back with ``unfold``; the
  result must match dense arithmetic (exact for rational, 1e-9 for
  complex).
* 60 Hadamard identity operations on fresh float and complex forests at
  levels 1-10: ``H*H is I``, ``H-H is`` the interned zero, and ``H+X``
  at eight seeded cells against its closed form. The 12 ``H-H`` and
  ``H+X`` operations at levels 8-10 fail on every run (known fault:
  the floating keys round to 10 decimal places, so 2^-64 keys as 0).
"""

import random

from harness import Op
import reference

NAME = "dense_ops"
# Seconds one round takes on the reference machine (see README); a run
# of --seconds S does round(S / NOMINAL_ROUND_S) rounds.
NOMINAL_ROUND_S = 1.5
TRACE_ROUNDS = 2
# The long-lived forests make a full collection cost more than most
# operations; garbage is left to the collector's own schedule.
COLLECT_AFTER_OP = False

KINDS = ("rational", "complex")
OPERATIONS = (("multiply", "pointwise"), ("add", "pointwise"),
              ("kronecker", "matrix"), ("matrix_multiply", "matrix"))
LEVELS = (1, 2, 3)
HADAMARD_KINDS = ("float", "complex")
HADAMARD_LEVELS = range(1, 11)
# Below this level the Hadamard factor 2^(-2^(l-2)) still keys as nonzero.
FIRST_FAULTY_LEVEL = 8
CELLS = 6


class State:
    def __init__(self, wc, fields):
        self.wc = wc
        self.fields = fields
        self.forests = {kind: fields.forest(kind) for kind in KINDS}


def setup(wc, fields, seed):
    return State(wc, fields)


def finish(state):
    return list(state.forests.values())


def make_round(state, seed, index):
    rng = random.Random(f"{NAME}:{seed}:{index}")
    ops = []
    for kind in KINDS:
        for opname, layer in OPERATIONS:
            for level in LEVELS:
                a = reference.random_table(rng, 1 << level, kind)
                b = reference.random_table(rng, 1 << level, kind)
                ops.append(_binary_op(state, kind, opname, layer, level, a, b))
    forests = [state.fields.forest(kind) for kind in HADAMARD_KINDS]
    for kind, forest in zip(HADAMARD_KINDS, forests):
        for level in HADAMARD_LEVELS:
            ops.extend(_hadamard_ops(state.wc, forest, kind, level, rng))
    return ops, forests


def _binary_op(state, kind, opname, layer, level, a, b):
    wc = state.wc
    forest = state.forests[kind]
    fn = getattr(wc, opname)

    def binary_op(tr):
        da = tr.call("construct.fold", wc.fold, forest, a)
        db = tr.call("construct.fold", wc.fold, forest, b)
        result = tr.call(f"{layer}.{opname}", fn, da, db)
        return result, tr.call("construct.unfold", wc.unfold, result)

    def check(flat):
        want = reference.dense_result(opname, a, b)
        return reference.tables_agree(flat, want, kind)

    return Op(f"{opname}/{kind}/L{level}", binary_op, check)


def hadamard_cells(rng, m):
    """Seeded cells of a 2^m x 2^m matrix, one anti-diagonal, one diagonal."""
    cells = [(rng.getrandbits(m), rng.getrandbits(m)) for _ in range(CELLS)]
    r = rng.getrandbits(m)
    return cells + [(r, r ^ ((1 << m) - 1)), (r, r)]


def _hadamard_ops(wc, forest, kind, level, rng):
    m = 1 << (level - 1)
    cells = hadamard_cells(rng, m)
    assignments = [reference.matrix_assignment(r, c, m) for r, c in cells]
    faulty = level >= FIRST_FAULTY_LEVEL

    def hadamard(tr):
        return tr.call("construct.hadamard_family", wc.hadamard_family,
                       forest, level)

    def hadamard_square(tr):
        h = hadamard(tr)
        product = tr.call("matrix.matrix_multiply", wc.matrix_multiply, h, h)
        return product, product

    def hadamard_minus_self(tr):
        h = hadamard(tr)
        diff = tr.call("pointwise.subtract", wc.subtract, h, h)
        return diff, diff

    def hadamard_plus_not(tr):
        h = hadamard(tr)
        x = tr.call("construct.not_matrix", wc.not_matrix, forest, level)
        total = tr.call("pointwise.add", wc.add, h, x)
        return total, [tr.call("core.evaluate", wc.evaluate, total, bits)
                       for bits in assignments]

    def plus_not_ok(values):
        want = [reference.hadamard_plus_not_cell(r, c, m) for r, c in cells]
        return (len(values) == len(want)
                and all(reference.close(v, w) for v, w in zip(values, want)))

    tag = f"{kind}/L{level}"
    return [
        Op(f"H*H/{tag}", hadamard_square,
           lambda p: p is wc.identity_matrix(forest, level)),
        Op(f"H-H/{tag}", hadamard_minus_self,
           lambda d: d is forest.zero_diagram(level), known_fault=faulty),
        Op(f"H+X/{tag}", hadamard_plus_not, plus_not_ok, known_fault=faulty),
    ]
