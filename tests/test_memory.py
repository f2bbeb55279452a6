"""Forest memory: weakly held unique tables and computed-table drops.

A forest keeps a grouping or diagram only while something outside its
unique tables reaches it, and drops its computed tables each time the
live grouping count doubles past a floor.  Handles that are held must
stay canonical across a drop, and the live count must follow what is
alive rather than the number of operations run.
"""

import random
from fractions import Fraction

import pytest

from wcflobdd.construct import (fold, hadamard_family, identity_matrix,
                                unfold)
from wcflobdd.core import _COMPUTED, _DROP_FLOOR, Forest, validate
from wcflobdd.matrix import kronecker, matrix_multiply
from wcflobdd.pointwise import add, multiply, subtract
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
    caches = forest.stats()["caches"]
    return sum(caches.get(name, 0) for name in _COMPUTED)


def _churn_until_a_drop(forest, instance, rng):
    """Multiply seeded level-3 operands, dropping the results, until the
    computed tables shrink."""
    before = _computed_entries(forest)
    for _ in range(200):
        multiply(fold(forest, _table(rng, instance)),
                 fold(forest, _table(rng, instance)))
        now = _computed_entries(forest)
        if now < before:
            return
        before = now
    raise AssertionError("no drop of the computed tables")


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
