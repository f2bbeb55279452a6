"""Path-weight accumulation, squared-magnitude views, and drawing samples."""

import functools
import math
import random
from fractions import Fraction

import pytest

from wcflobdd.core import Forest, reachable_groupings
from wcflobdd.construct import (exp_family, fold, hadamard_family, unfold,
                                walsh_family)
from wcflobdd.matrix import apply_matrix_to_vector
from wcflobdd.pointwise import add
from wcflobdd.quantum import (Circuit, bernstein_vazirani, ghz, measure, qft,
                              run_circuit)
from wcflobdd.sampling import (SampleContext, _rows, _view, compute_weights,
                               measure_view, sample_assignment)
from wcflobdd.semifield import complex_field, rational_field, real_field

import oracle

F = Forest(rational_field())
FL = Forest(real_field())
ONE = Fraction(1)


def _random_nonneg(rng, level):
    n = 1 << (1 << level)
    table = [Fraction(0) if rng.random() < 0.35 else
             Fraction(rng.randint(1, 9), rng.randint(1, 4))
             for _ in range(n)]
    if not any(table):
        table[rng.randrange(n)] = ONE
    return fold(F, table), table


def test_compute_weights_level0():
    assert compute_weights(F, F.fork(ONE, Fraction(7))) == (ONE, Fraction(7))
    assert compute_weights(F, F.dontcare(ONE, ONE)) == (Fraction(2),)


def test_compute_weights_brute_force():
    rng = oracle.seeded(11)
    for level in (1, 2):
        for _ in range(40):
            d, _ = _random_nonneg(rng, level)
            totals = [Fraction(0)] * d.head.number_of_exits
            for e, w in oracle.proto_paths(d.head):
                totals[e - 1] += w
            assert tuple(totals) == compute_weights(F, d.head)


def test_measure_view_squares_entries():
    h = hadamard_family(FL, 1)
    ket0 = fold(FL, [1.0, 0.0])
    state = apply_matrix_to_vector(h, ket0)
    view = measure_view(state)
    assert all(abs(v - 0.5) < 1e-12 for v in unfold(view))
    assert measure_view(state) is view

    w = walsh_family(F, 1)
    assert unfold(measure_view(w)) == [ONE] * 4


def test_measure_views_survive_clear_caches():
    d = run_circuit(ghz(8)).diagram
    before = measure_view(d)
    d.forest.clear_caches()
    after = measure_view(d)
    assert after is before
    total = add(before, after)
    assert total.forest is before.forest
    assert all(abs(t - 2 * v) < 1e-12
               for t, v in zip(unfold(total), unfold(before)))


def test_measure_view_complex_lands_in_reals():
    fc = Forest(complex_field())
    d = fold(fc, [0.5j, -0.5, 0.5j, 0.5])
    view = measure_view(d)
    assert view.forest is not fc
    assert view.forest.field.name == "real"
    assert all(abs(v - 0.25) < 1e-12 for v in unfold(view))


def test_measure_view_of_a_leaf_out_of_float_range_raises():
    # |1e200i|^2 = 1e400: the view interned an inf leaf weight and
    # unfolded to [1, inf, 1, 1].
    d = fold(Forest(complex_field()), [1, 1e200j, 1, 1])
    with pytest.raises(OverflowError, match="out of float range"):
        measure_view(d)


def test_sampler_distribution_is_exact():
    """The sampler's per-assignment probability must equal the path
    weight divided by the total, checked analytically (no randomness)
    on random nonnegative diagrams at levels 1 and 2."""
    rng = oracle.seeded(12)
    for level in (1, 2):
        nvars = 1 << level
        for _ in range(40):
            d, table = _random_nonneg(rng, level)
            target = 1 + next(i for i, v in enumerate(d.values) if v == 1)
            denom = compute_weights(F, d.head)[target - 1] * d.factor
            for x in range(1 << nvars):
                bits = [(x >> (nvars - 1 - j)) & 1 for j in range(nvars)]
                if oracle.proto_exit(d.head, bits) == target:
                    got = oracle.analytic_prob(F, d.head, target, bits)
                    assert got == table[x] / denom, (level, x)


def test_sampling_basis_state():
    table = [0.0] * 16
    table[5] = 1.0
    d = fold(FL, table)
    assert {sample_assignment(d, SampleContext(s))
            for s in range(20)} == {"0101"}


def test_sampling_deterministic_per_seed():
    view = measure_view(hadamard_family(FL, 2))
    runs = []
    for _ in range(2):
        ctx = SampleContext(42)
        runs.append([sample_assignment(view, ctx) for _ in range(50)])
    assert runs[0] == runs[1]


def test_sampling_uniform_frequencies():
    h = hadamard_family(FL, 1)
    state = apply_matrix_to_vector(h, fold(FL, [1.0, 0.0]))
    view = measure_view(state)
    ctx = SampleContext(7)
    counts = {"0": 0, "1": 0}
    for _ in range(10000):
        counts[sample_assignment(view, ctx)[0]] += 1
    p = oracle.chi_square_p(counts, {"0": 0.5, "1": 0.5}, 10000)
    assert p > 0.001, counts


def test_sampling_rejects_zero_diagram():
    try:
        sample_assignment(FL.zero_diagram(1), SampleContext(1))
        assert False
    except ValueError:
        pass


def test_sampling_rejects_negative_weights():
    # Walsh entries are +-1; cancellation inside the weight sums would
    # silently misreport the distribution, so this must raise instead.
    # Complex amplitudes need measure_view first. The float cases are a
    # negative leaf weight, then a negative factor over positive leaves.
    fc = Forest(complex_field())
    for d, message in ((walsh_family(F, 1), "nonnegative"),
                       (walsh_family(F, 3), "nonnegative"),
                       (fold(fc, [0.5j, 0.5, 0.5, 0.5]), "real-weight view"),
                       (fold(FL, [0.5, -0.5, 0.5, 0.5]), "nonnegative"),
                       (fold(FL, [-0.5, -0.25, -0.5, -0.5]), "nonnegative")):
        with pytest.raises(ValueError, match=message):
            sample_assignment(d, SampleContext(1))


def test_compute_weights_rejects_signed_weights():
    # Walsh level 1 totals 1 + 1 + 1 - 1 = 2 over absolute weight 4; a
    # cancelled sum is no path total, so it must raise.
    try:
        compute_weights(F, walsh_family(F, 1).head)
        assert False
    except ValueError as e:
        assert "nonnegative" in str(e)


def test_measure_histograms_are_pinned():
    assert measure(run_circuit(ghz(5)), 64, 5) == {"00000": 31, "11111": 33}
    assert measure(run_circuit(qft(5, 3)), 16, 5) == {
        "01000": 1, "01001": 1, "01010": 1, "01100": 1, "01101": 1,
        "01110": 1, "10000": 1, "10011": 2, "10100": 1, "10111": 2,
        "11000": 1, "11001": 2, "11011": 1}
    bv = run_circuit(bernstein_vazirani(6, "101101"))
    assert measure(bv, 64, 5) == {"1011010": 29, "1011011": 35}


def test_sample_streams_are_pinned():
    d, _ = _random_nonneg(oracle.seeded(8), 2)
    ctx = SampleContext(3)
    assert [sample_assignment(d, ctx) for _ in range(20)] == [
        "0111", "1101", "0111", "1110", "1101", "1111", "0111", "1111",
        "0111", "1100", "1110", "1010", "1011", "1110", "1110", "1111",
        "0111", "0110", "0110", "1110"]
    rng = oracle.seeded(9)
    table = [0.0 if rng.random() < 0.35 else rng.uniform(0, 2)
             for _ in range(16)]
    ctx = SampleContext(3)
    d = fold(FL, table)
    assert [sample_assignment(d, ctx) for _ in range(20)] == [
        "0111", "1101", "0111", "1100", "1101", "1110", "1101", "1000",
        "1101", "0101", "0011", "1100", "0111", "1110", "1101", "1101",
        "0011", "0011", "1100", "1101"]


def _pooled_nonneg(rng, level, kind):
    """Seeded nonnegative table at ``level``, zero-rich and never all zero.

    From level 3 up, each half-width row is one of a few smaller tables
    (or zeros) times a small scale, so the fold stays small.
    """
    if level <= 2:
        table = [Fraction(0) if rng.random() < 0.35 else
                 Fraction(rng.randint(1, 9), rng.randint(1, 4))
                 for _ in range(1 << (1 << level))]
    else:
        half = 1 << (level - 1)
        pool = [_pooled_nonneg(rng, level - 1, "rational") for _ in range(3)]
        pool.append([Fraction(0)] * (1 << half))
        table = []
        for _ in range(1 << half):
            scale = rng.choice((ONE, Fraction(2), Fraction(1, 3)))
            table.extend(v * scale for v in rng.choice(pool))
    if not any(table):
        table[rng.randrange(len(table))] = ONE
    return table if kind == "rational" else [float(v) for v in table]


def _unit_exit(d):
    field = d.forest.field
    return 1 + next(i for i, v in enumerate(d.values)
                    if field.key(v) == field._one_key)


def test_sample_stream_matches_reference_walk():
    """Each draw, and the generator state after it, equals the plain
    recursive walk that spends one random() per grouping, so forced
    rows skip the right number of calls."""
    views = [measure_view(run_circuit(c).diagram) for c in (
        ghz(256), ghz(1024),
        bernstein_vazirani(127, format(0x5A3C96E1, "032b") * 3 + "1" * 31),
        qft(8, 77))]
    uniform = Circuit(64)
    for q in range(6):
        uniform.h(q)
    views.append(measure_view(run_circuit(uniform).diagram))
    rng = oracle.seeded(15)
    tables = [fold(forest, _pooled_nonneg(rng, level, kind))
              for kind, forest in (("rational", F), ("float", FL))
              for level in range(5)]
    leaves = [g for d in tables for g in reachable_groupings(d.head)
              if g.level == 0]
    assert any(g.number_of_exits == 1 and g.lw != g.rw for g in leaves)
    assert any(g.lw == 0 or g.rw == 0 for g in leaves)
    cases = [(d, functools.partial(sample_assignment, d))
             for d in views + tables]
    for index, (d, draw) in enumerate(cases):
        target = _unit_exit(d)
        memo = {}
        ctx = SampleContext(index)
        ref = random.Random(index)
        for _ in range(200):
            label = draw(ctx)
            assert label == oracle.reference_walk(d.forest, d.head, target,
                                                  ref, memo), index
            assert ctx.source.getstate() == ref.getstate(), index


def _all_h(n):
    c = Circuit(n)
    for q in range(n):
        c.h(q)
    return c


def test_plans_match_reference_walk():
    """Plans skip single-draw rows and forced runs and keep every real
    choice: H on every qubit, a seeded QFT, GHZ on half the qubits beside
    H on the rest, and a zero-rich rational table."""
    rng = oracle.seeded(32)
    mixed = Circuit(128)
    mixed.h(0)
    for q in range(63):
        mixed.cnot(q, q + 1)
    for q in range(64, 128):
        mixed.h(q)
    cases = [measure_view(run_circuit(c).diagram)
             for c in (_all_h(256), qft(16, rng.randrange(1 << 16)), mixed)]
    cases.append(fold(F, _pooled_nonneg(rng, 4, "rational")))
    for index, d in enumerate(cases):
        target = _unit_exit(d)
        memo = {}
        ctx = SampleContext(index)
        ref = random.Random(index)
        for _ in range(200):
            label = sample_assignment(d, ctx)
            assert label == oracle.reference_walk(d.forest, d.head, target,
                                                  ref, memo), index
            assert ctx.source.getstate() == ref.getstate(), index
    # Rows that raise still raise on the first draw, and on every one.
    for d, error, message in (
            (exp_family(F, 16), OverflowError, "beyond the float range"),
            (FL.zero_diagram(1), ValueError, "total path weight is zero")):
        ctx = SampleContext(1)
        for _ in range(2):
            with pytest.raises(error, match=message):
                sample_assignment(d, ctx)


def test_forced_rows_past_the_float_range_are_walked():
    # The draws reaching 1100 pass single-draw rows whose totals exceed
    # the float range; such a row's bounds are never read, so only a
    # choice over such totals raises.
    big = Fraction(2) ** 1100
    leaves = {"0": 0, "1": 1, "3": 3, "B": big, "b": 1 / big}
    d = fold(F, [Fraction(leaves[c]) for c in "B003130130b3Bbb3"])
    ctx = SampleContext(0)
    assert [sample_assignment(d, ctx) for _ in range(8)] == [
        "1100", "1100", "0000", "1100", "0000", "1100", "1100", "0000"]


def _full_walk_calls(g, bits):
    """(random() calls, exit, bits left) of the full walk along ``bits``
    below ``g``: one call per internal grouping and per don't-care leaf."""
    if g.level == 0:
        return g.number_of_exits == 1, g.branch(int(bits[0]))[0], bits[1:]
    ca, m, bits = _full_walk_calls(g.a_connection, bits)
    cb, k, bits = _full_walk_calls(g.b_connections[m - 1], bits)
    return 1 + ca + cb, g.b_return_tuples[m - 1][k - 1], bits


def test_a_single_draw_past_the_float_range_is_walked():
    # The head row's one draw totals about 2^1200, past the float range,
    # over child rows that are in range; sampling it raised OverflowError.
    # Nearly all the weight sits on 0101, and every draw takes the
    # generator words of the full walk.
    big = Fraction(2) ** 600
    d = fold(F, [a * b for a in (1, big, 0, 0) for b in (1, big, 1, 1)])
    calls = _full_walk_calls(d.head, "0101")[0]
    for seed in (0, 1):
        ctx = SampleContext(seed)
        ref = random.Random(seed)
        for _ in range(4):
            assert sample_assignment(d, ctx) == "0101"
            for _ in range(calls):
                ref.random()
            assert ctx.source.getstate() == ref.getstate()


def test_target_row_memo_keeps_checks_and_streams():
    # Only a row that passed its checks is tabled: a fold with a
    # negative factor raises on every call, complex or float.
    for d, message in (
            (fold(Forest(complex_field()), [-0.5, 0.5, 0.5, 0.5]),
             "real-weight view"),
            (fold(FL, [-0.5, -0.25, -0.5, -0.5]), "nonnegative")):
        ctx = SampleContext(1)
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                sample_assignment(d, ctx)
    # Dropping the tables mid-stream changes no label.
    d = fold(FL, _pooled_nonneg(oracle.seeded(33), 3, "float"))
    whole, ctx = SampleContext(5), SampleContext(5)
    want = [sample_assignment(d, whole) for _ in range(40)]
    got = [sample_assignment(d, ctx) for _ in range(20)]
    FL.clear_caches()
    got += [sample_assignment(d, ctx) for _ in range(20)]
    assert got == want
    assert ctx.source.getstate() == whole.source.getstate()


class _CountingRandom(random.Random):
    """A generator that counts its random() and getrandbits calls."""

    def __init__(self, seed):
        self.calls = {"random": 0, "getrandbits": 0}
        super().__init__(seed)

    def random(self):
        self.calls["random"] += 1
        return super().random()

    def getrandbits(self, k):
        self.calls["getrandbits"] += 1
        return super().getrandbits(k)


def test_plans_stay_small():
    ghz_state = run_circuit(ghz(4096))
    ctx = SampleContext(0)
    ctx.source = _CountingRandom(0)
    label = sample_assignment(measure_view(ghz_state.diagram), ctx)
    assert label in ("0" * 4096, "1" * 4096)
    assert ctx.source.calls["random"] == 1
    assert ctx.source.calls["getrandbits"] <= 2
    # H on 2048 qubits keeps one choice per qubit; its level-k row
    # joins 2^k of them.
    for n, state in ((2048, run_circuit(_all_h(2048))), (4096, ghz_state)):
        measure(state, 1, 0)
        forest = state.diagram.forest
        view = _view(forest, state.diagram.head)
        lengths = [len(row.plan) for g in reachable_groupings(view)
                   for row in _rows(forest.measure_forest, g)]
        assert sum(lengths) <= 4 * n, (n, sum(lengths))


def test_getrandbits_advances_like_random_calls():
    # Forced rows advance the generator with getrandbits(64 * spent) in
    # place of spent random() calls; the seeded streams rely on both
    # taking the same 32-bit words from the Mersenne Twister.
    for count in (1, 2, 255, 1023, 4095):
        calls, bulk = random.Random(count), random.Random(count)
        for _ in range(count):
            calls.random()
        bulk.getrandbits(64 * count)
        assert calls.getstate() == bulk.getstate(), count


def test_sampling_past_the_float_range():
    # The head of this state has two draws of 2^1023 each, whose plain
    # sum overflowed to inf, so every shot took the last one.
    n = 2048
    c = Circuit(n)
    c.h(0)
    c.cnot(0, n // 2)
    for q in range(n // 2 + 1, n):
        c.h(q)
    state = run_circuit(c)
    counts = {}
    for seed in (1, 2, 3):
        for label, count in measure(state, 40, seed).items():
            assert label[0] == label[n // 2], label[:4]
            pair = label[0] + label[n // 2]
            counts[pair] = counts.get(pair, 0) + count
    p = oracle.chi_square_p(counts, {"00": 0.5, "11": 0.5}, 120)
    assert p > 0.001, counts


def test_float_totals_past_the_range_read_inf_and_still_sample():
    # 2^1024 paths of weight 1: the plain total is past the float range.
    forest = Forest(real_field())
    assert compute_weights(forest, forest.one_proto(10)) == (math.inf,)
    bits = sample_assignment(forest.one_diagram(10), SampleContext(5))
    assert len(bits) == 1024 and set(bits) == {"0", "1"}


def test_measure_samples_a_wide_uniform_state():
    # |f|^2 = 2^-1100 underflows to 0.0, so the view's factor is out of
    # range; measure used to raise "total path weight is zero".
    n = 1100
    c = Circuit(n)
    for q in range(n):
        c.h(q)
    state = run_circuit(c)
    with pytest.raises(OverflowError, match="out of float range"):
        measure_view(state.diagram)
    counts = measure(state, 40, seed=1)
    assert sum(counts.values()) == 40 and all(len(k) == n for k in counts)
    ones = sum(c for k, c in counts.items() if k[0] == "1")
    assert 8 <= ones <= 32, ones


def test_rational_totals_beyond_float_range_raise_when_sampled():
    # EXP_16's totals pass 2^1024; compute_weights keeps them exact.
    d = exp_family(F, 16)
    (total,) = compute_weights(F, d.head)
    assert total == sum(Fraction(2) ** x for x in range(1 << 16))
    with pytest.raises(OverflowError, match="beyond the float range"):
        sample_assignment(d, SampleContext(1))
