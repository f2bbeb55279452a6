"""Interning, evaluation, size accounting, and the invariant audit."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import wcflobdd
from wcflobdd.core import (Forest, StructureError, evaluate,
                           reachable_groupings, size, validate)
from wcflobdd.construct import exp_family, fold, hadamard_family
from wcflobdd.pointwise import add, multiply
from wcflobdd.semifield import rational_field, real_field

import oracle

ONE = Fraction(1)
ZERO = Fraction(0)


def test_level0_interning():
    f = Forest(rational_field())
    assert f.fork(ONE, Fraction(2)) is f.fork(ONE, Fraction(2))
    assert f.fork(ONE, Fraction(2)) is not f.fork(ONE, Fraction(3))
    assert f.dontcare(ONE, ONE) is not f.fork(ONE, ONE)


def test_internal_interning():
    f = Forest(rational_field())
    a = f.fork(ONE, ONE)
    bs = (f.dontcare(ONE, ONE), f.fork(ONE, Fraction(2)))
    g1 = f.join(a, zip(bs, ((1,), (1, 2))))[0]
    g2 = f.join(a, zip(bs, ((1,), (1, 2))))[0]
    assert g1 is g2
    assert g1.number_of_exits == 2
    assert g1.level == 1


def test_join_numbers_exits_by_first_occurrence():
    f = Forest(rational_field())
    a = f.fork(ONE, ONE)
    b1, b2 = f.fork(ONE, Fraction(2)), f.fork(ONE, Fraction(3))
    g, labels = f.join(a, [(b1, ("q", "p")), (b2, ("r", "p"))])
    assert labels == ("q", "p", "r")
    assert g.b_return_tuples == ((1, 2), (3, 2))
    assert g is f.join(a, zip((b1, b2), ((1, 2), (3, 2))))[0]
    # Labels are compared through the key: 1.0 + 1e-12 keys as 1.0.
    fl = Forest(real_field())
    a, dc, fk = fl.fork(1.0, 1.0), fl.dontcare(1.0, 1.0), fl.fork(1.0, 2.0)
    g, labels = fl.join(a, [(dc, (1.0,)), (fk, (1.0 + 1e-12, 2.0))],
                        fl.field.key)
    assert labels == (1.0, 2.0)
    assert g is fl.join(a, zip((dc, fk), ((1,), (1, 2))))[0]


def test_join_rejects_malformed():
    # Numbering leaves open the counts, the levels and two labels of
    # one middle that share an exit; join checks exactly these.
    f = Forest(rational_field())
    a = f.fork(ONE, ONE)
    dc = f.dontcare(ONE, ONE)
    fk = f.fork(ONE, Fraction(2))
    deeper, _ = f.join(a, ((dc, (1,)), (dc, (2,))))
    for middles, why in (
            (((dc, (1,)),), "middle count != A-connection exits"),
            (((dc, (1,)), (dc, (1, 2))),
             "return tuple length != B-connection exits"),
            (((dc, (1,)), (deeper, (2,))),
             "A- and B-connection levels differ"),
            (((fk, ("p", "p")), (fk, ("q", "r"))),
             "return tuple maps two exits together")):
        with pytest.raises(StructureError, match=why):
            f.join(a, middles)
    # Labels equal under the key share an exit: 1.0 + 1e-12 keys as 1.0.
    fl = Forest(real_field())
    a, fk = fl.fork(1.0, 1.0), fl.fork(1.0, 2.0)
    with pytest.raises(StructureError, match="maps two exits together"):
        fl.join(a, ((fk, (1.0, 1.0 + 1e-12)), (fk, (1.0, 2.0))),
                fl.field.key)


def _constructor_calls():
    """(class, enclosing function) of each call to a grouping or
    diagram class in the package source."""
    names = {"LeafGrouping", "InternalGrouping", "Diagram"}
    calls = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, where + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name in names:
                    calls.append((name, ".".join(where)))
            visit(child, where)

    for path in sorted(Path(wcflobdd.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), (path.stem,))
    return calls


def test_structures_are_built_only_by_the_forest_constructors():
    # validate and the engine's recursions leave the structural checks
    # to these three methods; a second construction site would bring
    # unchecked structure back within their reach.
    assert sorted(_constructor_calls()) == [
        ("Diagram", "core.Forest.diagram"),
        ("InternalGrouping", "core.Forest.join"),
        ("LeafGrouping", "core.Forest.leaf")]


def test_diagram_value_tuple_rules():
    f = Forest(rational_field())
    fk = f.fork(ONE, Fraction(3))
    try:
        f.diagram(ONE, fk, (ONE,))
        assert False, "length mismatch must be rejected"
    except StructureError:
        pass
    try:
        f.diagram(ONE, fk, (ONE, ONE))
        assert False, "duplicate values must be rejected"
    except StructureError:
        pass
    try:
        f.diagram(ONE, fk, (ONE, Fraction(2)))
        assert False, "values other than 0/1 must be rejected"
    except StructureError:
        pass
    d = f.diagram(ONE, fk, (ONE, ZERO))
    assert f.diagram(ONE, fk, (ONE, ZERO)) is d


def test_constant_diagrams():
    f = Forest(rational_field())
    z = f.zero_diagram(2)
    o = f.one_diagram(2)
    assert z is not o
    assert z.factor == 0 and o.factor == 1
    assert evaluate(z, [0, 1, 1, 0]) == 0
    assert evaluate(o, [0, 1, 1, 0]) == 1
    assert validate(z) == []
    assert validate(o) == []


def test_evaluate_leaf_order():
    f = Forest(rational_field())
    d = fold(f, [1, 2, 3, 5])
    got = [evaluate(d, [b0, b1]) for b0 in (0, 1) for b1 in (0, 1)]
    assert got == [1, 2, 3, 5]
    assert evaluate(d, "01") == 2
    try:
        evaluate(d, [0])
        assert False
    except ValueError:
        pass


def test_evaluate_exp_worked_value():
    f = Forest(rational_field())
    d = exp_family(f, 4)
    assert evaluate(d, [1, 0, 1, 1]) == 2048
    assert evaluate(d, [0, 0, 0, 0]) == 1


def test_size_anchors():
    f = Forest(rational_field())
    assert size(exp_family(f, 1)).total == 6
    assert size(exp_family(f, 2)).total == 19
    fl = Forest(real_field())
    assert size(hadamard_family(fl, 1)).total == 30
    assert size(hadamard_family(fl, 2)).total == 38
    rep = size(exp_family(f, 2))
    assert rep.total == rep.groupings + rep.vertices + rep.edges + 1


def test_reachable_parents_first():
    f = Forest(rational_field())
    # exp_family is a chain; the folds share children between parents.
    diagrams = [exp_family(f, 8), fold(f, [Fraction(v) for v in [0, 1] * 8])]
    rng = oracle.seeded(11)
    for level in (2, 3):
        for _ in range(20):
            diagrams.append(fold(f, oracle.random_table(rng, 1 << level)))
    for d in diagrams:
        order = reachable_groupings(d.head)
        pos = {id(g): i for i, g in enumerate(order)}
        for g in order:
            if g.level > 0:
                assert pos[id(g.a_connection)] > pos[id(g)]
                for b in g.b_connections:
                    assert pos[id(b)] > pos[id(g)]
        assert len({id(g) for g in order}) == len(order)


def test_validate_flags_unnormalized_weights():
    f = Forest(rational_field())
    head, _ = f.join(f.fork(ONE, ONE),
                     zip((f.fork(Fraction(2), Fraction(3)),
                          f.fork(ONE, Fraction(2))),
                         ((1, 2), (1, 2))))
    d = f.diagram(ONE, head, (ONE, ZERO))
    msgs = validate(d)
    assert any("not normalized" in m for m in msgs), msgs


def test_validate_flags_duplicate_middles():
    f = Forest(rational_field())
    b = f.fork(ONE, ONE)
    head, _ = f.join(f.fork(ONE, ONE), zip((b, b), ((1, 2), (1, 2))))
    msgs = validate(f.diagram(ONE, head, (ONE, ZERO)))
    assert any("duplicate (B-connection" in m for m in msgs), msgs
    distinct, _ = f.join(f.fork(ONE, ONE), zip((b, b), ((1, 2), (2, 1))))
    msgs = validate(f.diagram(ONE, distinct, (ONE, ZERO)))
    assert not any("duplicate (B-connection" in m for m in msgs), msgs


def test_validate_flags_zero_factor_on_nonzero_diagram():
    f = Forest(rational_field())
    d = f.diagram(ZERO, f.one_proto(1), (ONE,))
    msgs = validate(d)
    assert any("canonical zero" in m for m in msgs), msgs


def test_stats_counts_tables_and_grows_until_cleared():
    f = Forest(real_field())
    before = f.stats()
    assert set(before) == {"groupings", "diagrams", "canonical_ids",
                           "caches"}
    assert before["caches"] == {}
    rng = oracle.seeded(5)
    seen = before
    kept = []  # the unique tables count only what something holds
    for _ in range(4):
        a = fold(f, [rng.choice((0.0, 1.0, 2.5)) for _ in range(16)])
        b = fold(f, [rng.choice((0.0, -1.0, 3.0)) for _ in range(16)])
        kept += [a, b, add(a, multiply(a, b))]
        now = f.stats()
        for name in ("groupings", "diagrams", "canonical_ids"):
            assert now[name] >= seen[name], name
        for name, entries in seen["caches"].items():
            assert now["caches"][name] >= entries, name
        seen = now
    assert seen["diagrams"] == len(f._diagram_table)
    assert seen["caches"]["pair_product"] > 0
    assert seen["caches"]["reduce"] > 0
    f.clear_caches()
    cleared = f.stats()
    assert cleared["caches"] == {}
    # Clearing frees the cross products only the memo tables reached;
    # what stays is exactly what the held diagrams and towers reach.
    assert cleared["diagrams"] == seen["diagrams"]
    assert cleared["groupings"] < seen["groupings"]
    live = set()
    for head in [d.head for d in kept] + list(f._tower_table.values()):
        live.update(reachable_groupings(head))
    assert cleared["groupings"] == len(live)
    assert cleared["canonical_ids"] == sum(g.canonical for g in live)


def test_named_caches_clear_but_interning_survives():
    f = Forest(rational_field())
    d = fold(f, [1, 2, 3, 5])
    c = f.cache("scratch")
    c["k"] = "v"
    f.clear_caches()
    assert f.cache("scratch") == {}
    assert fold(f, [1, 2, 3, 5]) is d
    assert d.head.canonical
