"""Pointwise multiply/add/subtract and their helper passes."""

import random
from fractions import Fraction

import pytest

from wcflobdd.core import Forest, evaluate, is_zero_diagram, validate
from wcflobdd.construct import (fold, hadamard_family, scalar_multiply,
                                unfold, walsh_family)
from wcflobdd.pointwise import (add, collapse_classes_leftmost, multiply,
                                pair_product, reduce, subtract,
                                weighted_pair_product)
from wcflobdd.semifield import field_by_name, rational_field, real_field

import oracle

F = Forest(rational_field())
FL = Forest(real_field())
ONE = Fraction(1)
ZERO = Fraction(0)


def test_collapse_classes_leftmost():
    assert collapse_classes_leftmost(["0", "1", "0"]) == (("0", "1"),
                                                          (1, 2, 1))
    assert collapse_classes_leftmost(["a"]) == (("a",), (1,))
    assert collapse_classes_leftmost(["x", "x", "y", "x", "z"]) == (
        ("x", "y", "z"), (1, 1, 2, 1, 3))


def test_collapse_dedups_middles():
    h = F.dontcare(ONE, Fraction(2))
    middles = [(h, (1,)), (h, (1,)), (h, (2,)), (F.fork(ONE, ONE), (1,))]
    kept, positions = collapse_classes_leftmost(middles)
    assert positions == (1, 1, 2, 3)
    assert len(kept) == 3


def test_pair_product_level0():
    fa = F.fork(ONE, Fraction(3))
    fb = F.fork(ONE, Fraction(4))
    pg, pt = pair_product(F, fa, fb)
    assert pg is F.fork(ONE, Fraction(12))
    assert pt == ((1, 1), (2, 2))
    # one-proto shortcut keeps the other operand
    g = fold(F, [1, 2, 3, 5]).head
    sg, st = pair_product(F, g, F.one_proto(1))
    assert sg is g
    assert st == tuple((k, 1) for k in range(1, g.number_of_exits + 1))


def test_reduce_worked_case():
    fk = F.fork(ONE, ONE)
    rg, rw = reduce(F, fk, (1, 1), (Fraction(3), Fraction(2)))
    assert rw == 3
    assert rg is F.dontcare(ONE, Fraction(2, 3))
    # identity reduction with unit values is free
    g = fold(F, [1, 2, 3, 5]).head
    assert reduce(F, g, tuple(range(1, g.number_of_exits + 1)),
                  (ONE,) * g.number_of_exits) == (g, ONE)
    rz, wz = reduce(F, g, (1,) * g.number_of_exits,
                    (ZERO,) * g.number_of_exits)
    assert rz is F.zero_proto(1) and wz == 0


def test_reduce_rejects_a_bad_reduction():
    # A reduction out of first-occurrence order would otherwise give a
    # silently misnumbered grouping.
    fk = F.fork(ONE, Fraction(2))
    with pytest.raises(ValueError, match="not leftmost-compact"):
        reduce(F, fk, (2, 1), (ONE, ONE))
    with pytest.raises(ValueError, match="must have length 2, got 1 and 2"):
        reduce(F, fk, (1,), (ONE, ONE))


def test_weighted_pair_product_fork_dontcare():
    fx = F.fork(ONE, Fraction(3))
    dx = F.dontcare(ONE, Fraction(4))
    wg, pt = weighted_pair_product(F, fx, dx, ONE, ONE)
    assert wg is F.fork(ONE, ONE)
    assert pt == (((ONE, 1), (ONE, 1)), ((Fraction(3), 2), (Fraction(4), 1)))


def test_weighted_pair_product_zero_operand_keeps_seeds():
    dx = F.dontcare(ONE, Fraction(4))
    wg, pt = weighted_pair_product(F, F.zero_proto(0), dx, ZERO, Fraction(7))
    assert wg is dx
    assert pt == (((ZERO, 1), (Fraction(7), 1)),)


def test_addition_worked_example():
    """The cross-product bookkeeping on a Fork(2,3) x DontCare(1,2) pair.

    The pair tuple carries the accumulated weights alongside operand
    exit indices; deducing values against v1 = [1, 0], v2 = [1] gives
    [3, 2], and reducing leaves a single terminal value 1.
    """
    g1 = F.fork(Fraction(2), Fraction(3))
    g2 = F.dontcare(ONE, Fraction(2))
    g, pt = weighted_pair_product(F, g1, g2, ONE, ONE)
    assert pt == (((Fraction(2), 1), (ONE, 1)),
                  ((Fraction(3), 2), (Fraction(2), 1)))
    v1 = (ONE, ZERO)
    v2 = (ONE,)
    deduced = [c1 * v1[i1 - 1] + c2 * v2[i2 - 1]
               for (c1, i1), (c2, i2) in pt]
    assert deduced == [Fraction(3), Fraction(2)]
    # classes follow the zero pattern; both entries are nonzero, so the
    # two exits merge and the weights 3, 2 move into the structure
    _, reduction = collapse_classes_leftmost([v != 0 for v in deduced])
    assert reduction == (1, 1)
    g2p, fw = reduce(F, g, reduction, tuple(deduced))
    assert fw == 3
    assert g2p is F.dontcare(ONE, Fraction(2, 3))
    n = F.diagram(fw, g2p, (ONE,))
    assert n.values == (ONE,)
    # the same arithmetic end to end
    lhs = fold(F, [2, 0])
    rhs = fold(F, [1, 2])
    assert add(lhs, rhs) is fold(F, [3, 2])
    assert add(lhs, rhs).values == (ONE,)


def test_multiply_identities():
    c = fold(F, [1, 2, 3, 5])
    assert multiply(c, F.one_diagram(1)) is c
    assert multiply(F.one_diagram(1), c) is c
    assert multiply(c, F.zero_diagram(1)) is F.zero_diagram(1)
    assert add(c, F.zero_diagram(1)) is c
    assert add(F.zero_diagram(1), c) is c


def test_hadamard_squares_to_constant():
    h = hadamard_family(FL, 1)
    p = multiply(h, h)
    assert p.head is FL.one_proto(1)
    assert abs(p.factor - 0.5) < 1e-9
    for a in range(4):
        assert abs(evaluate(p, [(a >> 1) & 1, a & 1]) - 0.5) < 1e-9


def test_subtract_to_zero():
    h = hadamard_family(FL, 2)
    assert subtract(h, h) is FL.zero_diagram(2)
    w = walsh_family(F, 2)
    assert subtract(w, w) is F.zero_diagram(2)


@pytest.mark.parametrize("instance", ["float", "complex"])
@pytest.mark.parametrize("level", [8, 9, 10])
def test_hadamard_minus_itself_is_zero_from_level_8(instance, level):
    # From level 8 the factor of H, 2^(-m/2) on m = 2^(l-1) row bits,
    # keys as 0 but is not 0, so -H is no zero diagram and H - H is.
    f = Forest(field_by_name(instance))
    h = hadamard_family(f, level)
    assert subtract(h, h) is f.zero_diagram(level)
    negated = scalar_multiply(f.field.minus_one, h)
    assert not is_zero_diagram(negated)
    # Only the magnitude is checked: the diagram table keys the factors
    # 2^(-m/2) and -2^(-m/2) alike, as 0, so -H interns as H and the
    # sign is lost (ROADMAP item 1).
    cell = evaluate(negated, [0] * (1 << level))
    assert abs(cell) == pytest.approx(2.0 ** -(1 << (level - 2)), rel=1e-12)


def test_ops_against_dense_oracle():
    rng = oracle.seeded(20240814)
    for level in (1, 2, 3):
        nvars = 1 << level
        for _ in range(60):
            ta = oracle.random_table(rng, nvars)
            tb = oracle.random_table(rng, nvars)
            da, db = fold(F, ta), fold(F, tb)
            m = multiply(da, db)
            s = add(da, db)
            df = subtract(da, db)
            assert unfold(m) == [x * y for x, y in zip(ta, tb)]
            assert unfold(s) == [x + y for x, y in zip(ta, tb)]
            assert unfold(df) == [x - y for x, y in zip(ta, tb)]
            # results are canonical and legal
            assert fold(F, unfold(m)) is m
            assert fold(F, unfold(s)) is s
            assert validate(m) == []
            assert validate(s) == []
            assert multiply(db, da) is m
            assert add(db, da) is s


def test_ops_algebra_on_handles():
    rng = oracle.seeded(99)
    for _ in range(25):
        ts = [oracle.random_table(rng, 4) for _ in range(3)]
        d0, d1, d2 = (fold(F, t) for t in ts)
        assert multiply(multiply(d0, d1), d2) is multiply(d0,
                                                          multiply(d1, d2))
        assert add(add(d0, d1), d2) is add(d0, add(d1, d2))
        lhs = multiply(d0, add(d1, d2))
        rhs = add(multiply(d0, d1), multiply(d0, d2))
        assert lhs is rhs


def test_memo_caches_are_pure():
    rng = oracle.seeded(3)
    da = fold(F, oracle.random_table(rng, 4))
    db = fold(F, oracle.random_table(rng, 4))
    m1 = multiply(da, db)
    a1 = add(da, db)
    F.clear_caches()
    assert multiply(da, db) is m1
    assert add(da, db) is a1


def test_cross_forest_operands_rejected():
    other = Forest(rational_field())
    a = fold(F, [1, 2, 3, 5])
    b = fold(other, [1, 2, 3, 5])
    try:
        add(a, b)
        assert False
    except ValueError:
        pass


def test_factor_out_of_float_range_raises():
    # The factor of b * b is 1e400 and that of 1e300 * b is 1e500, both
    # inf; b * b used to unfold to [inf, inf, inf, nan] and pass validate.
    b = fold(FL, [1e200, 2e200, 3e200, 0.0])
    for make in (lambda: multiply(b, b), lambda: scalar_multiply(1e300, b),
                 lambda: add(fold(FL, [1.5e308, 0.0, 1.0, 0.0]),
                             fold(FL, [1.5e308, 1.0, 0.0, 0.0]))):
        with pytest.raises(OverflowError, match="out of float range"):
            make()
    assert unfold(multiply(b, fold(FL, [0.5, 1.0, 1.0, 1.0]))) == \
        pytest.approx([5e199, 2e200, 3e200, 0.0])


@pytest.mark.parametrize("instance", ["float", "complex"])
def test_product_leaf_out_of_float_range_raises(instance):
    # The product's leaf weight 1e600 was interned as inf, so d * d
    # unfolded to [1, inf, 1, 1] and passed validate.
    d = fold(Forest(field_by_name(instance)), [1.0, 1e300, 1.0, 1.0])
    with pytest.raises(OverflowError, match="out of float range"):
        multiply(d, d)


@pytest.mark.parametrize("instance", ["float", "complex"])
def test_sum_out_of_float_range_raises_on_read(instance):
    # e + e doubles the 1e308 leaf, and the factor 2 times that leaf
    # weight is 2e308; every stored weight is finite, and unfold used
    # to give inf there.
    e = fold(Forest(field_by_name(instance)), [1.0, 1e308, 1.0, 1.0])
    s = add(e, e)
    assert validate(s) == []
    with pytest.raises(OverflowError, match="out of float range"):
        unfold(s)
    with pytest.raises(OverflowError, match="out of float range"):
        evaluate(s, "01")
    assert evaluate(s, "00") == 2.0


def test_add_merges_leaf_entries_the_key_cannot_tell_apart():
    # 1e-8 and 1.001e-8 key alike (the key keeps 10 decimal places), so
    # the level-0 cross product's two exits merge; without the merge the
    # parent's join raised StructureError.  The sum is off by 3e-11 at
    # the odd cells, inside the key's absolute resolution.
    a, b = (scalar_multiply(1e-8, fold(FL, [1.0, w, 1.0, w]))
            for w in (1.001, 1.002))
    assert validate(a) == [] and validate(b) == []
    got = add(a, b)
    assert validate(got) == []
    exact = [2e-8, 2.003e-8, 2e-8, 2.003e-8]
    assert all(abs(g - e) <= 1e-10 for g, e in zip(unfold(got), exact))
