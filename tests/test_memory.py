"""Forest memory: weakly held unique tables and memo-table drops.

A forest keeps a grouping or diagram only while something outside its
unique tables reaches it, and drops all its memo tables each time the
live grouping count doubles past a floor.  Handles that are held must
stay canonical across a drop, and the live count must follow what is
alive rather than the number of operations run.
"""

import gc
import random
from fractions import Fraction

import pytest

from wcflobdd.construct import (fold, hadamard_family, identity_matrix,
                                unfold)
from wcflobdd.core import _DROP_FLOOR, Forest, size, validate
from wcflobdd.matrix import kronecker, matrix_multiply
from wcflobdd.pointwise import add, multiply, subtract
from wcflobdd.quantum import ghz, measure, quantum_forest, run_circuit
from wcflobdd.sampling import SampleContext, sample_assignment
from wcflobdd.semifield import field_by_name

import oracle


def _leaf(rng, instance):
    if rng.random() < 0.3:
        return 0
    if instance == "rational":
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    if instance == "float":
        return rng.uniform(-2, 2)
    return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))


def _table(rng, instance, level=3):
    return [_leaf(rng, instance) for _ in range(1 << (1 << level))]


def _computed_entries(forest):
    return sum(forest.stats()["caches"].values())


def _churn_until_a_drop(forest, instance, rng):
    """Multiply seeded level-3 operands, dropping the results, until the
    memo tables shrink."""
    before = _computed_entries(forest)
    for _ in range(200):
        multiply(fold(forest, _table(rng, instance)),
                 fold(forest, _table(rng, instance)))
        now = _computed_entries(forest)
        if now < before:
            return
        before = now
    raise AssertionError("no drop of the memo tables")


def _close(got, want, instance):
    if instance == "rational":
        return got == want
    return all(abs(g - w) <= 1e-9 * max(1.0, abs(w))
               for g, w in zip(got, want))


@pytest.mark.parametrize("instance", ["rational", "complex"])
def test_live_groupings_stay_under_the_drop_floor(instance):
    # Without the drop the memo tables pin every operand: these steps
    # left 13,114 (rational) and 27,731 (complex) groupings.
    forest = Forest(field_by_name(instance))
    rng = random.Random(f"memory-{instance}")
    counts = []
    for step in range(40):
        ta, tb = _table(rng, instance), _table(rng, instance)
        a, b = fold(forest, ta), fold(forest, tb)
        kind = step % 4
        if kind == 0:
            assert _close(unfold(multiply(a, b)),
                          [x * y for x, y in zip(ta, tb)], instance)
        elif kind == 1:
            assert _close(unfold(add(a, b)),
                          [x + y for x, y in zip(ta, tb)], instance)
        elif kind == 2:
            assert validate(kronecker(a, b)) == []
        else:
            got = oracle.to_dense(matrix_multiply(a, b))
            want = oracle.dense_matmul(0, oracle.to_dense(a),
                                       oracle.to_dense(b))
            assert _close(sum(got, []), sum(want, []), instance)
        counts.append(forest.stats()["groupings"])
    assert max(counts) <= _DROP_FLOOR, counts
    # The count fell at least once: a drop freed what only memos held.
    assert any(b < a for a, b in zip(counts, counts[1:])), counts


@pytest.mark.parametrize("instance", ["rational", "complex"])
def test_held_handles_survive_a_drop(instance):
    forest = Forest(field_by_name(instance))
    rng = random.Random(f"held-{instance}")
    ta, tb = _table(rng, instance), _table(rng, instance)
    a, b = fold(forest, ta), fold(forest, tb)
    product, total = multiply(a, b), add(a, b)
    _churn_until_a_drop(forest, instance, rng)
    assert fold(forest, ta) is a
    assert fold(forest, tb) is b
    assert multiply(a, b) is product
    assert add(a, b) is total
    assert _close(unfold(a), ta, instance)


@pytest.mark.parametrize("instance", ["float", "complex"])
def test_hadamard_identities_hold_after_a_drop(instance):
    forest = Forest(field_by_name(instance))
    one = forest.field.one
    for level in range(1, 11):
        h = hadamard_family(forest, level)
        matrix_multiply(h, h)
        subtract(h, h)
    _churn_until_a_drop(forest, instance, random.Random(f"H-{instance}"))
    for level in range(1, 11):
        h = hadamard_family(forest, level)
        square = matrix_multiply(h, h)
        # The identity's diagram is held, so a product an ulp off its
        # factor still interns to the identity itself.
        assert square is identity_matrix(forest, level), level
        assert square.factor == one, level
        assert subtract(h, h) is forest.zero_diagram(level), level


def test_gate_and_sampling_tables_drop_with_the_rest():
    # They used to stay until clear_caches: gate_blocks held every gate
    # matrix a circuit had built.
    forest = quantum_forest()

    def entries():
        # The rows of a complex state's measure_view sit in the
        # companion forest of squared magnitudes.
        caches = forest.stats()["caches"]
        return (caches.get("gate_blocks", 0), caches.get("measure_view", 0),
                forest.measure_forest.stats()["caches"].get("sample_cdf", 0))

    state = run_circuit(ghz(256), forest)
    counts = measure(state, 200, seed=5)
    assert all(entries()), entries()
    _churn_until_a_drop(forest, "complex", random.Random("lifetime"))
    assert entries() == (0, 0, 0)
    assert run_circuit(ghz(256), forest).diagram is state.diagram
    assert measure(state, 200, seed=5) == counts


def test_sampled_rows_of_diagrams_drop_with_the_rest():
    # sample_cdf also holds the row each diagram samples, keyed by the
    # diagram and whether measure samples its view.
    forest = quantum_forest()
    state = run_circuit(ghz(64), forest)
    counts = measure(state, 50, seed=2)
    assert (state.diagram, True) in forest.measure_forest.cache("sample_cdf")
    _churn_until_a_drop(forest, "complex", random.Random("diagram-rows"))
    assert (state.diagram, True) not in \
        forest.measure_forest.cache("sample_cdf")
    assert measure(state, 50, seed=2) == counts

    floats = Forest(field_by_name("float"))
    d = fold(floats, [0.5, 0.0, 0.25, 1.0])
    labels = [sample_assignment(d, SampleContext(3)) for _ in range(5)]
    assert (d, False) in floats.cache("sample_cdf")
    _churn_until_a_drop(floats, "float", random.Random("diagram-rows"))
    assert (d, False) not in floats.cache("sample_cdf")
    assert [sample_assignment(d, SampleContext(3))
            for _ in range(5)] == labels


def test_matrix_memo_tables_drop_with_the_rest():
    # The 2x2 base product's placeholders and cells are memo tables.
    forest = Forest(field_by_name("complex"))
    rng = random.Random("matrix-memos")
    matrix_multiply(fold(forest, _table(rng, "complex", 2)),
                    fold(forest, _table(rng, "complex", 2)))
    names = ("matrix_placeholder", "matrix_cells")
    caches = forest.stats()["caches"]
    assert all(caches.get(name) for name in names), caches
    forest.clear_caches()
    caches = forest.stats()["caches"]
    assert not any(caches.get(name) for name in names), caches


def test_a_wide_circuit_ends_under_the_drop_floor():
    # GHZ-4096 left 9,861 live groupings while gate_blocks kept its own.
    forest = quantum_forest()
    state = run_circuit(ghz(4096), forest)
    assert forest.stats()["groupings"] <= _DROP_FLOOR
    assert abs(abs(state.diagram.factor) ** 2 - 0.5) < 1e-12


@pytest.mark.parametrize("walk", [size, unfold], ids=["size", "unfold"])
def test_walks_leave_no_reference_cycles(walk):
    # A walk that left a reference cycle would keep the groupings of a
    # dropped result alive until the cyclic collector ran.
    forest = Forest(field_by_name("rational"))
    rng = random.Random("cycles")
    a, b = fold(forest, _table(rng, "rational", 2)), \
        fold(forest, _table(rng, "rational", 2))
    gc.disable()
    try:
        result = multiply(a, b)
        walk(result)
        forest.clear_caches()
        del result
        live = forest.stats()["groupings"]
        gc.collect()
        assert forest.stats()["groupings"] == live
    finally:
        gc.enable()
