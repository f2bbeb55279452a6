"""Textual dump round trips and DOT export."""

from fractions import Fraction

from wcflobdd.core import Forest
from wcflobdd.construct import (exp_family, fold, hadamard_family,
                                identity_matrix, unfold, walsh_family)
from wcflobdd.quantum import ghz, quantum_forest, run_circuit
from wcflobdd.serialize import dump_diagram, export_dot, load_diagram
from wcflobdd.semifield import rational_field, real_field

import oracle

F = Forest(rational_field())


def test_rational_round_trips():
    rng = oracle.seeded(3)
    pool = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
            Fraction(1, 2), Fraction(-3, 7)]
    for level in (0, 1, 2):
        n = 1 << (1 << level)
        for _ in range(30):
            d = fold(F, [pool[rng.randrange(len(pool))] for _ in range(n)])
            text = dump_diagram(d)
            assert load_diagram(text, F) is d
            fresh = load_diagram(text)
            assert unfold(fresh) == unfold(d)


def test_huge_power_weights_round_trip():
    d = exp_family(F, 16)
    text = dump_diagram(d)
    assert "2^" in text
    assert load_diagram(text, F) is d


def test_walsh_and_float_round_trips():
    w = walsh_family(F, 2)
    assert load_diagram(dump_diagram(w), F) is w
    fl = Forest(real_field())
    h = hadamard_family(fl, 2)
    assert load_diagram(dump_diagram(h), fl) is h


def test_complex_round_trip():
    fc = quantum_forest()
    d = run_circuit(ghz(2), fc).diagram
    assert load_diagram(dump_diagram(d), fc) is d


def test_dump_is_stable():
    d = fold(F, [1, 2, 3, 5])
    assert dump_diagram(d) == dump_diagram(d)
    assert dump_diagram(d).startswith("wcflobdd 1 rational\n")


def test_dot_cluster_count():
    fl = Forest(real_field())
    dot = export_dot(hadamard_family(fl, 1))
    assert dot.count("subgraph cluster_") == 4
    assert export_dot(hadamard_family(fl, 1)) == dot
    assert export_dot(F.zero_diagram(0)).count("subgraph cluster_") == 1
    assert export_dot(identity_matrix(F, 2)) == \
        export_dot(identity_matrix(F, 2))


def test_load_rejects_bad_input():
    try:
        load_diagram("nonsense\n")
        assert False
    except ValueError:
        pass
    w = walsh_family(F, 2)
    try:
        load_diagram(dump_diagram(w), Forest(real_field()))
        assert False, "field mismatch must be rejected"
    except ValueError:
        pass
    try:
        load_diagram("wcflobdd 1 rational\ng 0 fork 1\n")
        assert False
    except ValueError as e:
        assert "line 2" in str(e)


def test_dump_record_order():
    # Children precede parents; within a parent the A-connection comes
    # before the B-connections, in middle order, and a shared grouping
    # is written once, where the walk first meets it.
    assert dump_diagram(identity_matrix(F, 1)) == (
        "wcflobdd 1 rational\n"
        "g 0 fork 1 1\n"
        "g 1 fork 1 0\n"
        "g 2 fork 0 1\n"
        "g 3 internal 1 0 2\n"
        "b 1 1,2\n"
        "b 2 2,1\n"
        "d 1 3 1 0\n")
    assert dump_diagram(identity_matrix(F, 2)) == (
        "wcflobdd 1 rational\n"
        "g 0 fork 1 1\n"
        "g 1 fork 1 0\n"
        "g 2 fork 0 1\n"
        "g 3 internal 1 0 2\n"
        "b 1 1,2\n"
        "b 2 2,1\n"
        "g 4 dontcare 0 1\n"
        "g 5 internal 1 4 1\n"
        "b 4 1\n"
        "g 6 internal 2 3 2\n"
        "b 3 1,2\n"
        "b 5 2\n"
        "d 1 6 1 0\n")
