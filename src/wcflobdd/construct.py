"""Canonical construction: constants, fold/unfold, named families.

``fold`` canonicalizes a flat leaf array in one recursion over parallel
lists of leaf weights and exit labels; every canonicity argument in the
package rests on it:

1. With two leaves, ``Forest.normalized_leaf`` makes the level-0
   grouping: the left weight is 1, or the weights are (0, 1) when the
   left leaf is zero, and the leftmost nonzero weight comes back as the
   block's factor.  Leaves share an exit exactly when their labels are
   equal.
2. With more leaves, each of the sqrt(n) blocks folds first.  The list
   of block factors, labelled by (grouping, exit labels), then folds
   into the A-connection; its distinct labels give the B-connections in
   first-occurrence order, and ``Forest.join`` numbers the exits over
   their exit labels.

The top-level labels are the 0/1 terminal values, and the one factor
that remains scales the whole diagram.  ``unfold`` is the inverse
direction (diagram to flat leaf array); ``fold(unfold(c)) is c`` is the
canonicity round-trip the test suite leans on. Both directions are
exponential in the variable count by nature and meant for desk-scale
levels.

The named families (EXP, Walsh/Hadamard, identity, NOT) are built
structurally rather than by folding, so they stay cheap at high
levels; Walsh, identity and NOT fold only their 2x2 base and are built
level by level by ``Forest._tower``, which also raises ValueError
below their lowest level, 1. Their diagrams are held by the forest
next to the towers (``Forest._hold``). Tests assert they coincide
with folds where feasible.
"""

from __future__ import annotations

from .core import (Diagram, Forest, _checked_diagram, _one_middle,
                   is_zero_diagram)

__all__ = [
    "fold",
    "unfold",
    "scalar_multiply",
    "exp_family",
    "walsh_family",
    "hadamard_family",
    "identity_matrix",
    "not_matrix",
]


def _fold(forest, weights, labels):
    """Fold one block; returns (grouping, factor, exit labels).

    ``weights`` and ``labels`` are parallel leaf lists (``labels`` a
    tuple); the exit labels come back in first-occurrence order.
    """
    n = len(weights)
    if n == 2:
        exits = 1 if labels[0] == labels[1] else 2
        g, w = forest.normalized_leaf(exits, weights[0], weights[1])
        return g, w, labels[:exits]
    step = 1 << ((n.bit_length() - 1) // 2)
    blocks = [_fold(forest, weights[i:i + step], labels[i:i + step])
              for i in range(0, n, step)]
    # Groupings hash by identity, so equal labels mean equal blocks.
    a, w, middles = _fold(forest, [bw for _, bw, _ in blocks],
                          tuple((g, exits) for g, _, exits in blocks))
    g, exits = forest.join(a, middles)
    g.canonical = True
    return g, w, exits


def fold(forest: Forest, values) -> Diagram:
    """Canonical diagram of a flat leaf array, in assignment order.

    The leaf count must be 2**(2**k) for some level k >= 0.  A float or
    complex value that is inf or nan raises ValueError.
    """
    field = forest.field
    zero, one = field.zero, field.one
    # Leaves become carrier values, so the factor is one too, and those
    # that key as zero fold as the exact zero: a float table holding
    # 1e-12 or -0.0 folds like the one holding 0.
    values = [zero if field.is_zero(v) else v
              for v in map(field.coerce, values)]
    if not field.all_finite(values):
        v = next(v for v in values if not field.is_finite(v))
        raise ValueError(f"leaf value {v!r} is not finite")
    n = len(values)
    nvars = n.bit_length() - 1
    if n < 2 or n & (n - 1) or nvars & (nvars - 1):
        raise ValueError(f"leaf count {n} is not 2^(2^k)")
    labels = tuple(zero if v is zero else one for v in values)
    head, factor, exits = _fold(forest, values, labels)
    return forest.diagram(factor, head, exits)


def unfold(diagram: Diagram):
    """Flat leaf array of the represented function, assignment order.

    Exponential in the variable count; intended for desk-scale levels.
    A float or complex value out of range raises OverflowError, as in
    ``evaluate``.
    """
    field = diagram.forest.field
    mul, zero = field.mul, field.zero
    factor, head = diagram.factor, diagram.head
    live = [not field.is_zero(v) for v in diagram.values]
    # Values read (factor x A-half) x B-half, as in evaluate, forming the
    # first product once per A-path; a 0 value reads as zero.  The head's
    # own path list would be as long as the output, so it is not tabled.
    if head.level == 0:
        rows = [(factor, (1, 2), (head.branch(0), head.branch(1)))]
    else:
        memo = {}
        rows = ((mul(factor, a_weight), head.b_return_tuples[a_exit - 1],
                 _memo_paths(head.b_connections[a_exit - 1], mul, memo))
                for a_exit, a_weight in _memo_paths(head.a_connection, mul,
                                                    memo))
    out = []
    for fa, rt, paths in rows:
        out += [mul(fa, w) if live[rt[e - 1] - 1] else zero for e, w in paths]
    if not field.all_finite(out):
        raise OverflowError(f"a value of the level-{diagram.level} diagram "
                            "is out of float range")
    return out


# Module-level, not closures: nested functions that call each other form
# a reference cycle, which would keep the memo and every grouping it
# names alive until the cyclic collector runs.
def _paths(g, mul, memo):
    """(exit, path weight) of ``g`` per assignment, in order; the path
    lists of ``g``'s connections are tabled in ``memo``."""
    if g.level == 0:
        yield g.branch(0)
        yield g.branch(1)
        return
    for a_exit, a_weight in _memo_paths(g.a_connection, mul, memo):
        rt = g.b_return_tuples[a_exit - 1]
        for b_exit, b_weight in _memo_paths(g.b_connections[a_exit - 1],
                                            mul, memo):
            yield rt[b_exit - 1], mul(a_weight, b_weight)


def _memo_paths(g, mul, memo):
    hit = memo.get(g)
    if hit is None:
        hit = memo[g] = tuple(_paths(g, mul, memo))
    return hit


def scalar_multiply(scalar, diagram: Diagram) -> Diagram:
    """Diagram of scalar * f, canonical when the input is."""
    forest = diagram.forest
    field = forest.field
    if field.is_zero(scalar) or is_zero_diagram(diagram):
        return forest.zero_diagram(diagram.level)
    return _checked_diagram(forest, field.mul(scalar, diagram.factor),
                            diagram.head, diagram.values)


# -- named families -------------------------------------------------------


def exp_family(forest: Forest, n: int) -> Diagram:
    """The function 2**BinaryValue(x_{n-1} .. x_0) over n variables.

    The leftmost assignment bit is the most significant. Weights grow
    as 2^(2^i), so only the exact-rational instance can represent the
    family at interesting sizes; a floating instance raises
    OverflowError from 16 variables, where 2^1024 leaves its range.
    """
    if n < 1 or n & (n - 1):
        raise ValueError(f"variable count {n} is not a power of two")
    one = forest.field.one
    head = _exp_proto(forest, n.bit_length() - 1, 0)
    return forest._hold(forest.diagram(one, head, (one,)))


def _exp_proto(forest, level, place):
    """Grouping of 2**(2**place * BinaryValue(x)) over the 2**level
    variables x of a level-``level`` grouping.  Each (level, place) is
    reached once, so nothing is memoized."""
    field = forest.field
    if level == 0:
        g = forest.dontcare(field.one, field.power_of_two(1 << place))
    else:
        a = _exp_proto(forest, level - 1, place + (1 << (level - 1)))
        b = _exp_proto(forest, level - 1, place)
        g, _ = forest.join(a, ((b, (1,)),))
    g.canonical = True
    return g


def _folded(*cells):
    """Tower base: the head of the fold of ``cells``, the names of field
    constants in assignment order (four at level 1, two at level 0)."""
    return lambda forest: fold(
        forest, [getattr(forest.field, c) for c in cells]).head


def _identity_step(below, zero):
    return (below, (1, 2)), (zero, (2,))


def _not_step(below, zero):
    return (zero, (1,)), (below, (1, 2))


# Forest._tower specs of the named families' heads.
_WALSH = ("walsh", 1, _folded("one", "one", "one", "minus_one"), _one_middle)
_IDENTITY = ("identity", 1, _folded("one", "zero", "zero", "one"),
             _identity_step)
_NOT = ("not", 1, _folded("zero", "one", "one", "zero"), _not_step)


def walsh_family(forest: Forest, l: int) -> Diagram:
    """Unnormalized Hadamard (entries +-1), exact in any instance."""
    return forest._hold(forest.diagram(
        forest.field.one, forest._tower(_WALSH, l), (forest.field.one,)))


def hadamard_family(forest: Forest, l: int) -> Diagram:
    """Normalized Hadamard H_{2^l}; floating instances only.

    Built directly on the shared proto tower; the factor follows the
    same squaring chain a Kronecker power produces, so the two
    constructions intern to the identical triple.  From level 13 the
    factor 2^-2048 underflows to 0.0 and OverflowError is raised.
    """
    field = forest.field
    factor = field.sqrt_half()
    for _ in range(l - 1):
        factor = field.mul(factor, factor)
    return forest._hold(_checked_diagram(
        forest, factor, forest._tower(_WALSH, l), (field.one,)))


def identity_matrix(forest: Forest, l: int) -> Diagram:
    """Identity matrix on 2^(2^(l-1)) dimensions (interleaved bits)."""
    field = forest.field
    return forest._hold(forest.diagram(field.one, identity_proto(forest, l),
                                       (field.one, field.zero)))


def identity_proto(forest: Forest, level: int):
    """Head grouping of ``identity_matrix(forest, level)``."""
    return forest._tower(_IDENTITY, level)


def not_matrix(forest: Forest, l: int) -> Diagram:
    """Anti-diagonal permutation (bitwise NOT) matrix at level l."""
    field = forest.field
    return forest._hold(forest.diagram(field.one, forest._tower(_NOT, l),
                                       (field.zero, field.one)))
