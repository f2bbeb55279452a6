"""The acceptance gate: nine checks, one test (and one verdict line) each.

Each criterion prints ``PASS criterion N`` on success so a teed run
reads as a checklist; running this file directly does the same without
pytest. Criterion 8 audits every diagram the earlier criteria built,
so the file is meant to run as a whole, in order.
"""

import random
import time
from fractions import Fraction

import numpy as np

from wcflobdd.cli import main as cli_main
from wcflobdd.core import Forest, size, validate
from wcflobdd.construct import (exp_family, fold, hadamard_family,
                                identity_matrix, unfold)
from wcflobdd.matrix import _mat_mult_groupings, kronecker, matrix_multiply
from wcflobdd.pointwise import (add, collapse_classes_leftmost, multiply,
                                reduce, subtract, weighted_pair_product)
from wcflobdd.quantum import (Circuit, bernstein_vazirani, deutsch_jozsa,
                              ghz, measure, qft, quantum_forest, run_circuit,
                              state_vector)
from wcflobdd.sampling import compute_weights
from wcflobdd.semifield import (complex_field, field_by_name, rational_field,
                                real_field)

import oracle

PRODUCED = []

ONE = Fraction(1)


def _done(n, label, started):
    print(f"PASS criterion {n}: {label} ({time.perf_counter() - started:.2f}s)")


def test_criterion_1_size_formulas(tmp_path):
    started = time.perf_counter()
    out = tmp_path / "separation.csv"
    assert cli_main(["bench", "separation", "--out", str(out)]) == 0
    rows = out.read_text().strip().split("\n")
    header = rows[0].split(",")
    totals = {}
    for line in rows[1:]:
        cells = dict(zip(header, line.split(",")))
        assert cells["status"] == "ok"
        totals[(cells["bench"], int(cells["param"]))] = int(cells["total"])
    for l in range(11):
        assert totals[("EXP", l)] == 13 * 2 ** l - 7
    assert totals[("EXP", 0)] == 6 and totals[("EXP", 1)] == 19
    for l in range(1, 11):
        assert totals[("H", l)] == 8 * l + 22
    assert totals[("H", 1)] == 30 and totals[("H", 2)] == 38
    f = Forest(rational_field())
    PRODUCED.extend(exp_family(f, 1 << l) for l in range(11))
    fl = Forest(real_field())
    PRODUCED.extend(hadamard_family(fl, l) for l in range(1, 11))
    assert time.perf_counter() - started < 5
    _done(1, "separation sizes 13*2^l-7 and 8l+22, exact", started)


def test_criterion_2_canonicity_round_trip():
    started = time.perf_counter()
    f = Forest(rational_field())
    pool = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
            Fraction(-2), Fraction(1, 2)]
    rng = random.Random(2024)
    by_function = {}
    for i in range(1000):
        level = 1 + (i & 1)
        table = tuple(pool[rng.randrange(6)] for _ in range(1 << (1 << level)))
        d = fold(f, list(table))
        assert fold(f, unfold(d)) is d
        prior = by_function.setdefault((level, table), d)
        assert prior is d
    handles = {}
    for key, d in by_function.items():
        other = handles.setdefault(id(d), key)
        assert other == key, "same handle for two distinct functions"
    PRODUCED.extend(list(by_function.values())[:50])
    assert time.perf_counter() - started < 30
    _done(2, "fold/unfold/fold handle-identical on 1000 trees", started)


def test_criterion_3_operations_vs_oracle():
    started = time.perf_counter()
    # 500 pairs per operation, spread over levels 1-3; kronecker's
    # result sits one level above its operands, so it gets fewer of
    # the largest inputs to keep the dense comparison affordable.
    pointwise_counts = {1: 200, 2: 175, 3: 125}
    matmul_counts = {1: 200, 2: 175, 3: 125}
    kron_counts = {1: 250, 2: 210, 3: 40}

    for kind, zero, close in (("rational", Fraction(0), None),
                              ("complex", 0j, 1e-9)):
        field = rational_field() if kind == "rational" else complex_field()
        f = Forest(field)
        rng = oracle.seeded(300 if kind == "rational" else 301)

        def agree(got, want):
            if close is None:
                assert got == want
            else:
                for x, y in zip(got, want):
                    assert abs(x - y) < close

        for level, n_pairs in pointwise_counts.items():
            nvars = 1 << level
            for _ in range(n_pairs):
                ta = oracle.random_table(rng, nvars, kind)
                tb = oracle.random_table(rng, nvars, kind)
                da, db = fold(f, ta), fold(f, tb)
                agree(unfold(multiply(da, db)),
                      [x * y for x, y in zip(ta, tb)])
                agree(unfold(add(da, db)), [x + y for x, y in zip(ta, tb)])

        for level, n_pairs in matmul_counts.items():
            for _ in range(n_pairs):
                ma = oracle.random_matrix_table(rng, level, kind)
                mb = oracle.random_matrix_table(rng, level, kind)
                p = matrix_multiply(oracle.from_dense(f, ma),
                                    oracle.from_dense(f, mb))
                agree([v for row in oracle.to_dense(p) for v in row],
                      [v for row in oracle.dense_matmul(zero, ma, mb)
                       for v in row])
                if level == 1:
                    PRODUCED.append(p)

        for level, n_pairs in kron_counts.items():
            for _ in range(n_pairs):
                ma = oracle.random_matrix_table(rng, level, kind)
                mb = oracle.random_matrix_table(rng, level, kind)
                k = kronecker(oracle.from_dense(f, ma),
                              oracle.from_dense(f, mb))
                agree([v for row in oracle.to_dense(k) for v in row],
                      [v for row in oracle.dense_kron(ma, mb) for v in row])
                if level == 1:
                    PRODUCED.append(k)
    assert time.perf_counter() - started < 120
    _done(3, "500 pairs per op vs dense oracle, both instances", started)


def test_criterion_4_worked_values():
    started = time.perf_counter()
    f = Forest(rational_field())

    # pointwise-multiplication collapse: deduced [0, 1, 0] -> [0, 1]
    assert collapse_classes_leftmost([Fraction(0), ONE, Fraction(0)]) == \
        ((Fraction(0), ONE), (1, 2, 1))

    # addition bookkeeping ending in the single terminal value 1
    g, pt = weighted_pair_product(f, f.fork(Fraction(2), Fraction(3)),
                                  f.dontcare(ONE, Fraction(2)), ONE, ONE)
    assert pt == (((Fraction(2), 1), (ONE, 1)),
                  ((Fraction(3), 2), (Fraction(2), 1)))
    deduced = [c1 * (ONE, Fraction(0))[i1 - 1] + c2 * (ONE,)[i2 - 1]
               for (c1, i1), (c2, i2) in pt]
    assert deduced == [Fraction(3), Fraction(2)]
    _, reduction = collapse_classes_leftmost([v != 0 for v in deduced])
    g2, fw = reduce(f, g, reduction, tuple(deduced))
    assert fw == Fraction(3)
    assert g2 is f.dontcare(ONE, Fraction(2, 3))
    total = add(fold(f, [Fraction(2), Fraction(0)]),
                fold(f, [ONE, Fraction(2)]))
    assert total.values == (ONE,)
    assert total is fold(f, [Fraction(3), Fraction(2)])
    PRODUCED.append(total)

    # the symbolic 2x2 product and its four bilinear polynomials
    a = f.fork(ONE, ONE)
    m1, _ = f.join(a, zip((f.dontcare(ONE, ONE),
                           f.fork(Fraction(2), Fraction(4))),
                          ((1,), (2, 3))))
    m2, _ = f.join(a, zip((f.fork(ONE, Fraction(0)),
                           f.fork(Fraction(3), Fraction(3))),
                          ((1, 2), (1, 3))))
    _, m, w = _mat_mult_groupings(f, m1, m2)
    assert m == ({(1, 1): Fraction(4)}, {(1, 3): Fraction(3)},
                 {(2, 1): Fraction(2), (3, 1): Fraction(12)},
                 {(3, 3): Fraction(12)})
    assert w == ONE
    assert time.perf_counter() - started < 1
    _done(4, "collapse [1,2,1], addition -> [1], MatMultTuple", started)


def test_criterion_5_benchmark_identities():
    started = time.perf_counter()
    fl = Forest(real_field())
    for l in range(1, 7):
        h = hadamard_family(fl, l)
        product = matrix_multiply(h, h)
        assert product is identity_matrix(fl, l), l
        difference = subtract(h, h)
        assert difference is fl.zero_diagram(l), l
        PRODUCED.extend((product, difference))
    assert time.perf_counter() - started < 60
    _done(5, "H*H = I and H-H = 0 for levels 1..6", started)


def test_criterion_6_quantum_desk_scale():
    started = time.perf_counter()
    f = quantum_forest()
    circuits = [ghz(n) for n in range(2, 9)]
    circuits += [bernstein_vazirani(n, "1011011"[:n]) for n in (3, 5, 7)]
    circuits += [deutsch_jozsa(n, "110101"[:n]) for n in (3, 5)]
    circuits += [deutsch_jozsa(4, None)]
    circuits += [qft(n, (1 << n) - 3) for n in (2, 4, 6, 8)]
    for circuit in circuits:
        state = run_circuit(circuit, f)
        got = np.array(state_vector(state))
        want = oracle.dense_run(circuit)
        assert np.allclose(got, want, atol=1e-9), circuit
        PRODUCED.append(state.diagram)

    rng = random.Random(606)
    for seed in range(12):
        n = rng.randrange(2, 7)
        hidden = "".join(rng.choice("01") for _ in range(n - 1)) + "1"
        for builder in (bernstein_vazirani, deutsch_jozsa):
            state = run_circuit(builder(n, hidden), f)
            outcome = next(iter(measure(state, 1, seed)))
            assert outcome[:n] == hidden, (builder.__name__, seed)

    sizes = [size(run_circuit(ghz(n), f).diagram).total
             for n in (16, 256, 4096)]
    assert sizes[1] - sizes[0] == sizes[2] - sizes[1], sizes
    PRODUCED.append(run_circuit(ghz(64), f).diagram)
    assert time.perf_counter() - started < 300
    _done(6, "circuits match dense sim; GHZ growth constant", started)


def test_criterion_7_sampling_correctness():
    started = time.perf_counter()
    f = Forest(rational_field())
    rng = oracle.seeded(700)
    for level in (1, 2):
        nvars = 1 << level
        for _ in range(30):
            n = 1 << nvars
            table = [Fraction(0) if rng.random() < 0.3 else
                     Fraction(rng.randint(1, 9), rng.randint(1, 4))
                     for _ in range(n)]
            if not any(table):
                table[0] = ONE
            d = fold(f, table)
            target = 1 + next(i for i, v in enumerate(d.values) if v == 1)
            denom = compute_weights(f, d.head)[target - 1] * d.factor
            for x in range(n):
                bits = [(x >> (nvars - 1 - j)) & 1 for j in range(nvars)]
                if oracle.proto_exit(d.head, bits) == target:
                    assert oracle.analytic_prob(f, d.head, target, bits) == \
                        table[x] / denom
            PRODUCED.append(d)

    shots = 10000
    fq = quantum_forest()

    ghz_counts = measure(run_circuit(ghz(2), fq), shots, seed=71)
    assert oracle.chi_square_p(ghz_counts, {"00": 0.5, "11": 0.5},
                               shots) > 0.001

    h0 = run_circuit(Circuit(1).h(0), fq)
    h_counts = measure(h0, shots, seed=72)
    assert oracle.chi_square_p(h_counts, {"0": 0.5, "1": 0.5},
                               shots) > 0.001

    uniform3 = run_circuit(Circuit(3).h(0).h(1).h(2), fq)
    u_counts = measure(uniform3, shots, seed=73)
    probs = {format(x, "03b"): 1 / 8 for x in range(8)}
    assert oracle.chi_square_p(u_counts, probs, shots) > 0.001
    PRODUCED.extend((h0.diagram, uniform3.diagram))
    assert time.perf_counter() - started < 60
    _done(7, "exact sampler distribution; chi-square p > 0.001", started)


def test_criterion_8_invariant_closure():
    started = time.perf_counter()
    if not PRODUCED:  # standalone invocation; build a small basket
        f = Forest(rational_field())
        PRODUCED.extend((exp_family(f, 16),
                         hadamard_family(Forest(real_field()), 3),
                         run_circuit(ghz(4)).diagram))
    for d in PRODUCED:
        assert validate(d) == [], d
    _done(8, f"validate clean on {len(PRODUCED)} produced diagrams", started)


def test_criterion_9_semifield_axioms():
    started = time.perf_counter()
    rng = random.Random(9)
    for name in ("rational", "float", "complex"):
        field = field_by_name(name)

        def rand():
            if name == "rational":
                return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            if name == "float":
                return rng.uniform(-3, 3)
            return complex(rng.uniform(-3, 3), rng.uniform(-3, 3))

        def close(a, b):
            if name == "rational":
                return a == b
            return abs(complex(a) - complex(b)) < 1e-9

        for _ in range(400):
            a, b, c = rand(), rand(), rand()
            assert close(field.add(a, b), field.add(b, a))
            assert close(field.mul(a, b), field.mul(b, a))
            assert close(field.add(field.add(a, b), c),
                         field.add(a, field.add(b, c)))
            assert close(field.mul(field.mul(a, b), c),
                         field.mul(a, field.mul(b, c)))
            assert close(field.mul(a, field.add(b, c)),
                         field.add(field.mul(a, b), field.mul(a, c)))
            assert close(field.add(a, field.zero), a)
            assert close(field.mul(a, field.one), a)
            assert field.is_zero(field.mul(a, field.zero))
            if not field.is_zero(a):
                assert close(field.mul(a, field.inv(a)), field.one)
            if not field.is_zero(a) and not field.is_zero(b):
                assert not field.is_zero(field.mul(a, b))
    assert time.perf_counter() - started < 10
    _done(9, "semi-field axioms on rational, float, complex", started)


if __name__ == "__main__":
    import pathlib
    import sys
    import tempfile

    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for fn in (test_criterion_1_size_formulas,
                   test_criterion_2_canonicity_round_trip,
                   test_criterion_3_operations_vs_oracle,
                   test_criterion_4_worked_values,
                   test_criterion_5_benchmark_identities,
                   test_criterion_6_quantum_desk_scale,
                   test_criterion_7_sampling_correctness,
                   test_criterion_8_invariant_closure,
                   test_criterion_9_semifield_axioms):
            try:
                if "tmp_path" in fn.__code__.co_varnames[:fn.__code__
                                                         .co_argcount]:
                    fn(pathlib.Path(tmp))
                else:
                    fn()
            except AssertionError as e:
                failures += 1
                name = fn.__name__.replace("test_criterion_", "criterion ")
                print(f"FAIL {name}: {e}")
    sys.exit(1 if failures else 0)
