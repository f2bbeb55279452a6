"""Folding decision trees into diagrams and the named families."""

import math
import random
from fractions import Fraction

import pytest

from wcflobdd.core import Forest, evaluate, size, validate
from wcflobdd.construct import (exp_family, fold, hadamard_family,
                                identity_matrix, identity_proto, not_matrix,
                                scalar_multiply, unfold, walsh_family)
from wcflobdd.matrix import kronecker
from wcflobdd.quantum import qft, run_circuit
from wcflobdd.sampling import SampleContext, sample_assignment
from wcflobdd.semifield import (Pow2, complex_field, rational_field,
                                real_field)
from wcflobdd.serialize import dump_diagram

import oracle

F = Forest(rational_field())
FL = Forest(real_field())

WEIGHT_POOL = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
               Fraction(-2), Fraction(1, 2)]


def test_fold_unfold_round_trip():
    rng = random.Random(5)
    for level in (0, 1, 2, 3):
        n = 1 << (1 << level)
        for _ in range(30):
            table = [WEIGHT_POOL[rng.randrange(6)] for _ in range(n)]
            d = fold(F, table)
            assert unfold(d) == table
            assert d.level == level
            assert validate(d) == []


def test_unfold_matches_evaluate_exactly():
    # unfold multiplies in evaluate's order, so floating entries agree
    # bit for bit, not just within rounding.
    rng = random.Random(11)
    table = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
             for _ in range(256)]
    for d in (fold(Forest(complex_field()), table),
              run_circuit(qft(4, 5)).diagram):
        n = d.num_variables
        for i, v in enumerate(unfold(d)):
            assert v == evaluate(d, format(i, f"0{n}b"))


@pytest.mark.parametrize("field", [rational_field(), real_field(),
                                   complex_field()], ids=lambda f: f.name)
def test_unfold_reads_a_level_4_kronecker_back(field):
    # A Kronecker product of level-3 tables is read back through the
    # head's A-paths, 256 cells per factor x A-half product.
    forest = Forest(field)
    rng = random.Random(f"kronecker-L4-{field.name}")
    kind = "rational" if field is rational_field() else "complex"
    a, b = (oracle.random_table(rng, 8, kind) for _ in range(2))
    if field is real_field():
        a, b = ([v.real for v in t] for t in (a, b))
    d = kronecker(fold(forest, a), fold(forest, b))
    cells = unfold(d)
    assert d.level == 4 and len(cells) == 1 << 16
    for i in rng.sample(range(1 << 16), 64):
        bits = format(i, "016b")
        assert repr(cells[i]) == repr(evaluate(d, bits)), i
        e = oracle.proto_exit(d.head, [int(b) for b in bits])
        if field.is_zero(d.values[e - 1]):
            assert repr(cells[i]) == repr(field.zero), i
    dense = [x * y for x in a for y in b]
    if field is rational_field():
        assert cells == dense
    # No -0.0 or (-0-0j): a zero cell reads as the instance's zero.
    assert all(repr(got) == repr(field.zero)
               for got, want in zip(cells, dense) if want == 0)


def test_fold_stores_carrier_values():
    # A float leaf on the complex instance stayed the factor as given,
    # so sampling judged the handle by the spelling that interned it.
    for table in ([-0.5, 0.5, 0.5, 0.5], [complex(-0.5), 0.5, 0.5, 0.5]):
        d = fold(Forest(complex_field()), table)
        assert type(d.factor) is complex
        with pytest.raises(ValueError, match="real-weight view"):
            sample_assignment(d, SampleContext(1))
    assert type(fold(Forest(real_field()), [2, 1, 1, 1]).factor) is float
    assert type(fold(Forest(rational_field()), [2, 1, 1, 1]).factor) \
        is Fraction


def test_fold_is_canonical():
    rng = random.Random(6)
    seen = {}
    for _ in range(400):
        table = tuple(WEIGHT_POOL[rng.randrange(6)] for _ in range(4))
        d = fold(F, list(table))
        assert fold(F, unfold(d)) is d
        prior = seen.setdefault(table, d)
        assert prior is d
    # distinct functions get distinct handles
    handles = {}
    for table, d in seen.items():
        other = handles.setdefault(id(d), table)
        assert other == table


def test_fold_rejects_bad_leaf_count():
    try:
        fold(F, [1, 2, 3])
        assert False
    except ValueError:
        pass
    try:
        fold(F, [1, 2, 3, 4, 5, 6, 7, 8])  # 8 = 2^3, not 2^(2^k)
        assert False
    except ValueError:
        pass


def test_fold_normalizes_leaf_weights():
    d = fold(F, [Fraction(2), Fraction(6)])
    assert d.factor == 2
    assert d.head.lw == 1 and d.head.rw == 3
    assert d.values == (F.field.one,)
    d = fold(F, [Fraction(0), Fraction(5)])
    assert d.factor == 5
    assert d.head.lw == 0 and d.head.rw == 1


def test_fold_reads_any_flat_sequence():
    rng = random.Random(8)
    for n in (4, 16):
        table = [WEIGHT_POOL[rng.randrange(6)] for _ in range(n)]
        assert fold(F, tuple(table)) is fold(F, table)


def test_fold_maps_near_zero_floats_to_zero():
    # Entries that key as zero fold like exact zeros: same structure,
    # same stored weights, in a fresh forest each time.
    rng = random.Random(9)
    for field, pool, near_zeros in (
            (real_field, (0.0, 0.0, 1.0, -2.5, 0.75), (1e-12, -0.0)),
            (complex_field, (0j, 0j, 1j, complex(-2.5, 1), complex(0.75)),
             (complex(1e-12, -1e-12), complex(-0.0, -0.0)))):
        for n in (4, 16, 16):
            exact = [rng.choice(pool) for _ in range(n)]
            noisy = [rng.choice(near_zeros) if v == 0 else v for v in exact]
            want = fold(Forest(field()), exact)
            got = fold(Forest(field()), noisy)
            assert dump_diagram(got) == dump_diagram(want)
            assert validate(got) == []


def test_fold_rejects_non_finite_values():
    # A nan leaf gave a new handle on every fold and unfolded to four
    # nans; inf gave nan entries or an interned inf weight.  None raised.
    nan, inf = math.nan, math.inf
    for field, bad in (
            (real_field, (nan, inf, -inf)),
            (complex_field, (complex(nan, 0), complex(0, inf), nan, inf,
                             -inf))):
        for value in bad:
            for place in (0, 1, 3):
                table = [1.0, 2.0, 3.0, 4.0]
                table[place] = value
                with pytest.raises(ValueError, match="not finite") as info:
                    fold(Forest(field()), table)
                assert repr(value) in str(info.value)


def test_levels_below_the_tower_raise():
    # The zero and one protos recursed into RecursionError below level 0.
    f = Forest(real_field())
    for make in (lambda: f.zero_diagram(-1), lambda: f.one_diagram(-1),
                 lambda: f.zero_proto(-2), lambda: identity_proto(f, 0),
                 lambda: walsh_family(f, 0), lambda: hadamard_family(f, 0),
                 lambda: identity_matrix(f, 0), lambda: not_matrix(f, 0)):
        with pytest.raises(ValueError, match="tower starts at level"):
            make()
    assert f.zero_diagram(0).head is f.zero_proto(0)
    assert validate(walsh_family(f, 1)) == []


def test_scalar_multiply():
    d = fold(F, [1, 2, 3, 5])
    s = scalar_multiply(Fraction(3), d)
    assert unfold(s) == [3, 6, 9, 15]
    assert s.head is d.head
    assert scalar_multiply(Fraction(0), d) is F.zero_diagram(1)
    assert scalar_multiply(Fraction(1), d) is d


def test_exp_family_values_and_size():
    d = exp_family(F, 4)
    assert unfold(d) == [Fraction(2) ** v for v in
                        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)]
    for l, nvars in ((0, 1), (1, 2), (2, 4), (3, 8)):
        assert size(exp_family(F, nvars)).total == 13 * 2 ** l - 7
    assert validate(d) == []
    with pytest.raises(ValueError, match="not a power of two"):
        exp_family(F, 3)


def test_exp_family_huge_weights_stay_symbolic():
    d = exp_family(F, 256)
    assert evaluate(d, [1] + [0] * 255) == Pow2.make(1 << 255)
    assert validate(d) == []


def test_walsh_entries():
    w = walsh_family(F, 2)
    table = oracle.to_dense(w)
    for r in range(4):
        for c in range(4):
            want = Fraction(-1) ** bin(r & c).count("1")
            assert table[r][c] == want
    assert validate(w) == []


def test_hadamard_needs_roots():
    with pytest.raises(ValueError, match=r"1/sqrt\(2\) is irrational"):
        hadamard_family(F, 1)


@pytest.mark.parametrize("field", [real_field(), complex_field()],
                         ids=["float", "complex"])
def test_floating_exp_family_is_the_fold_of_two_to_the_x(field):
    forest = Forest(field)
    d = exp_family(forest, 8)
    assert d is fold(forest, [field.one * 2.0 ** x for x in range(256)])
    assert validate(d) == []


@pytest.mark.parametrize("field", [real_field(), complex_field()],
                         ids=["float", "complex"])
def test_floating_exp_family_overflow_names_the_power(field):
    # The highest place is built first.
    with pytest.raises(OverflowError, match=r"^2\*\*32768 is out of float "
                       "range$"):
        exp_family(Forest(field), 16)


def test_hadamard_entries_and_sharing():
    # level l is the 2^(l-1)-fold Kronecker power of the 2x2 core
    h = hadamard_family(FL, 3)
    table = oracle.to_dense(h)
    scale = 2.0 ** -2
    for r in range(16):
        for c in range(16):
            sign = (-1.0) ** bin(r & c).count("1")
            assert abs(table[r][c] - sign * scale) < 1e-12
    # one new grouping per level: the proto tower is shared
    assert size(hadamard_family(FL, 4)).groupings == \
        size(hadamard_family(FL, 3)).groupings + 1
    assert validate(h) == []


def test_identity_and_not_matrices():
    for l in (1, 2):
        side = 1 << (1 << (l - 1))
        ident = oracle.to_dense(identity_matrix(F, l))
        assert ident == [[Fraction(r == c) for c in range(side)]
                         for r in range(side)]
        anti = oracle.to_dense(not_matrix(F, l))
        assert anti == [[Fraction(r == side - 1 - c) for c in range(side)]
                        for r in range(side)]
    assert validate(identity_matrix(F, 3)) == []
    assert validate(not_matrix(F, 3)) == []


def test_hadamard_factor_underflow_raises():
    # Level 12's factor 2^-1024 is subnormal but nonzero; level 13's
    # 2^-2048 would underflow to a zero factor on a nonzero head.
    for instance in (real_field(), complex_field()):
        forest = Forest(instance)
        h = hadamard_family(forest, 12)
        assert abs(h.factor / 2.0 ** -1024 - 1) < 1e-9
        assert evaluate(h, [1] * 4096) == h.factor
        try:
            hadamard_family(forest, 13)
            assert False, "a zero Hadamard factor must raise"
        except OverflowError:
            pass
