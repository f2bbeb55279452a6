"""Canonical construction: constants, fold/unfold, named families.

The fold is the two-step canonicalization that underlies every
canonicity argument in the package:

1. ``tree_to_weighted_tree`` normalizes a decision tree so every node
   carries edge weights (1, v1_inverse * v2), or (0, 1) when the left
   subtree is identically zero, leaves carry 0 or 1, and a single
   extracted factor scales the whole tree.
2. ``fold`` collapses the normalized tree into interned groupings by
   forming equivalence classes of half-trees, first occurrences
   enumerated in a left-to-right sweep.

``unfold`` is the inverse direction (diagram to flat leaf array);
``fold(unfold(c)) is c`` is the canonicity round-trip the test suite
leans on. Both directions are exponential in the variable count by
nature and meant for desk-scale levels.

The named families (EXP, Walsh/Hadamard, identity, NOT) are built
structurally rather than by folding, so they stay cheap at high
levels; tests assert they coincide with folds where feasible.
"""

from __future__ import annotations

from .core import Diagram, Forest
from .semifield import Pow2, RationalSemifield

__all__ = [
    "tree_from_values",
    "tree_to_weighted_tree",
    "fold",
    "unfold",
    "scalar_multiply",
    "exp_family",
    "walsh_family",
    "hadamard_family",
    "identity_matrix",
    "not_matrix",
]


def tree_from_values(values):
    """Nested pair tree from a flat leaf array (length a power of two)."""
    n = len(values)
    if n == 1:
        return values[0]
    if n < 2 or n & (n - 1):
        raise ValueError(f"leaf count {n} is not a power of two")
    half = n // 2
    return (tree_from_values(values[:half]), tree_from_values(values[half:]))


def tree_to_weighted_tree(field, tree):
    """Normalize a decision tree; returns (factor, weighted tree).

    A weighted tree is a leaf weight (0 or 1 of the field) or a
    4-tuple (left weight, right weight, left subtree, right subtree).
    The factor times the edge-weight product along the path to any
    leaf, times the leaf's 0/1, reproduces the original leaf value;
    the leftmost nonzero path keeps weight product 1.
    """

    def norm(t):
        if not isinstance(t, tuple):
            if field.is_zero(t):
                return field.zero, field.zero
            return t, field.one
        v1, w1 = norm(t[0])
        v2, w2 = norm(t[1])
        if field.is_zero(v1):
            return v2, (field.zero, field.one, w1, w2)
        return v1, (field.one, field.mul(field.inv(v1), v2), w1, w2)

    return norm(tree)


def _variable_count(wtree) -> int:
    n = 0
    t = wtree
    while isinstance(t, tuple):
        n += 1
        t = t[2]
    return n


def _cut(t, depth, out):
    if depth == 0:
        out.append(t)
        return
    _cut(t[2], depth - 1, out)
    _cut(t[3], depth - 1, out)


def _graft(t, depth, leaves):
    if depth == 0:
        return next(leaves)
    return (t[0], t[1],
            _graft(t[2], depth - 1, leaves),
            _graft(t[3], depth - 1, leaves))


def _label_leaves(field, t):
    if not isinstance(t, tuple):
        return field.key(t)
    return (t[0], t[1], _label_leaves(field, t[2]), _label_leaves(field, t[3]))


def _fold_proto(forest, t, nvars, memo):
    """Fold of one normalized block; returns (grouping, exit labels).

    ``t`` is a weighted tree whose leaves are hashable labels; the exit
    labels come back in first-occurrence order. Shared subtree content
    folds once through ``memo``.
    """
    mkey = (nvars, t)
    hit = memo.get(mkey)
    if hit is not None:
        return hit
    if nvars == 1:
        lw, rw, llab, rlab = t
        labels = (llab,) if llab == rlab else (llab, rlab)
        result = forest.leaf(lw, rw, len(labels)), labels
    else:
        half = nvars // 2
        # The lower blocks sit `half` node levels deep (one level per
        # variable the upper half consumes).
        subs = []
        _cut(t, half, subs)
        folded = [_fold_proto(forest, s, half, memo) for s in subs]
        pair_labels = [(id(g), labels) for g, labels in folded]
        by_label = dict(zip(pair_labels, folded))
        upper = _graft(t, half, iter(pair_labels))
        a_conn, a_labels = _fold_proto(forest, upper, half, memo)
        exit_class = {}
        b_connections = []
        b_return_tuples = []
        for pl in a_labels:
            g_m, labels_m = by_label[pl]
            rt = []
            for lab in labels_m:
                c = exit_class.get(lab)
                if c is None:
                    c = len(exit_class) + 1
                    exit_class[lab] = c
                rt.append(c)
            b_connections.append(g_m)
            b_return_tuples.append(tuple(rt))
        g = forest.internal(a_conn, b_connections, b_return_tuples)
        forest.mark_canonical(g)
        out_labels = tuple(sorted(exit_class, key=exit_class.get))
        result = g, out_labels
    memo[mkey] = result
    return result


def _check_variable_count(nvars: int):
    # Valid variable counts are 2^k; the leaf count is then 2^(2^k).
    if nvars < 1 or nvars & (nvars - 1):
        leaves = 1 << nvars if nvars < 64 else "2^" + str(nvars)
        raise ValueError(f"leaf count {leaves} is not 2^(2^k)")


def fold(forest: Forest, tree) -> Diagram:
    """Canonical diagram of a decision tree (flat array or nested pairs).

    The leaf count must be 2**(2**k) for some level k >= 0.
    """
    if isinstance(tree, list):
        tree = tree_from_values(tree)
    field = forest.field
    factor, wtree = tree_to_weighted_tree(field, tree)
    return fold_weighted(forest, factor, wtree)


def fold_weighted(forest: Forest, factor, wtree) -> Diagram:
    """Fold an already-normalized weighted tree under a factor."""
    field = forest.field
    nvars = _variable_count(wtree)
    _check_variable_count(nvars)
    head, labels = _fold_proto(forest, _label_leaves(field, wtree), nvars, {})
    zero_key = field.key(field.zero)
    values = [field.zero if lab == zero_key else field.one for lab in labels]
    return forest.diagram(factor, head, values)


def unfold(diagram: Diagram):
    """Flat leaf array of the represented function, assignment order.

    Exponential in the variable count; intended for desk-scale levels.
    """
    forest = diagram.forest
    mul = forest.field.mul
    memo = forest.cache("unfold_proto")

    def paths(g):
        """(exit, path weight) of ``g`` per assignment, in order."""
        if g.level == 0:
            yield g.branch(0)
            yield g.branch(1)
            return
        for a_exit, a_weight in memo_paths(g.a_connection):
            rt = g.b_return_tuples[a_exit - 1]
            for b_exit, b_weight in memo_paths(g.b_connections[a_exit - 1]):
                yield rt[b_exit - 1], mul(a_weight, b_weight)

    def memo_paths(g):
        hit = memo.get(id(g))
        if hit is None:
            hit = memo[id(g)] = tuple(paths(g))
        return hit

    # The head's path list would be as long as the output, so it is
    # walked rather than memoized. The products keep evaluate's order.
    factor, values = diagram.factor, diagram.values
    return [mul(factor, mul(w, values[e - 1]))
            for e, w in paths(diagram.head)]


def scalar_multiply(scalar, diagram: Diagram) -> Diagram:
    """Diagram of scalar * f, canonical when the input is."""
    forest = diagram.forest
    field = forest.field
    if field.is_zero(scalar) or field.is_zero(diagram.factor):
        return forest.zero_diagram(diagram.level)
    return forest.diagram(field.mul(scalar, diagram.factor), diagram.head,
                          diagram.values)


# -- named families -------------------------------------------------------


def _exp_leaf_weight(field, place: int):
    if isinstance(field, RationalSemifield):
        return Pow2.make(1 << place)
    # Floating instances overflow past place 9; the error surfaces
    # rather than folding distinct leaves into a shared inf.
    return field.parse("2") ** (1 << place)


def exp_family(forest: Forest, n: int) -> Diagram:
    """The function 2**BinaryValue(x_{n-1} .. x_0) over n variables.

    The leftmost assignment bit is the most significant. Weights grow
    as 2^(2^i), so only the exact-rational instance can represent the
    family at interesting sizes.
    """
    if n < 1 or n & (n - 1):
        raise ValueError(f"variable count {n} is not a power of two")
    field = forest.field
    memo = {}

    def proto(level, place):
        key = (level, place)
        g = memo.get(key)
        if g is None:
            if level == 0:
                g = forest.dontcare(field.one, _exp_leaf_weight(field, place))
            else:
                a = proto(level - 1, place + (1 << (level - 1)))
                b = proto(level - 1, place)
                g = forest.internal(a, (b,), ((1,),))
            forest.mark_canonical(g)
            memo[key] = g
        return g

    level = n.bit_length() - 1
    head = proto(level, 0)
    return forest.diagram(field.one, head, (field.one,))


def _walsh_proto(forest: Forest, level: int):
    field = forest.field
    cache = forest.cache("walsh_proto")
    g = cache.get(level)
    if g is None:
        if level == 1:
            a = forest.fork(field.one, field.one)
            b1 = forest.dontcare(field.one, field.one)
            b2 = forest.dontcare(field.one, field.minus_one)
            g = forest.internal(a, (b1, b2), ((1,), (1,)))
        else:
            below = _walsh_proto(forest, level - 1)
            g = forest.internal(below, (below,), ((1,),))
        forest.mark_canonical(g)
        cache[level] = g
    return g


def walsh_family(forest: Forest, l: int) -> Diagram:
    """Unnormalized Hadamard (entries +-1), exact in any instance."""
    if l < 1:
        raise ValueError("walsh_family needs level >= 1")
    return forest.diagram(forest.field.one, _walsh_proto(forest, l),
                          (forest.field.one,))


def hadamard_family(forest: Forest, l: int) -> Diagram:
    """Normalized Hadamard H_{2^l}; floating instances only.

    Built directly on the shared proto tower; the factor follows the
    same squaring chain a Kronecker power produces, so the two
    constructions intern to the identical triple.
    """
    if l < 1:
        raise ValueError("hadamard_family needs level >= 1")
    field = forest.field
    if isinstance(field, RationalSemifield):
        raise ValueError("1/sqrt(2) is irrational; see walsh_family")
    factor = field.mul(field.one, 2 ** -0.5)
    for _ in range(l - 1):
        factor = field.mul(factor, factor)
    return forest.diagram(factor, _walsh_proto(forest, l),
                          (forest.field.one,))


def identity_matrix(forest: Forest, l: int) -> Diagram:
    """Identity matrix on 2^(2^(l-1)) dimensions (interleaved bits)."""
    if l < 1:
        raise ValueError("identity_matrix needs level >= 1")
    field = forest.field
    return forest.diagram(field.one, identity_proto(forest, l),
                          (field.one, field.zero))


def identity_proto(forest: Forest, level: int):
    """Head grouping of ``identity_matrix(forest, level)``."""
    cache = forest.cache("identity_proto")
    g = cache.get(level)
    if g is None:
        field = forest.field
        if level == 1:
            a = forest.fork(field.one, field.one)
            b1 = forest.fork(field.one, field.zero)
            b2 = forest.fork(field.zero, field.one)
            g = forest.internal(a, (b1, b2), ((1, 2), (2, 1)))
        else:
            below = identity_proto(forest, level - 1)
            g = forest.internal(below,
                                (below, forest.zero_proto(level - 1)),
                                ((1, 2), (2,)))
        forest.mark_canonical(g)
        cache[level] = g
    return g


def not_matrix(forest: Forest, l: int) -> Diagram:
    """Anti-diagonal permutation (bitwise NOT) matrix at level l."""
    if l < 1:
        raise ValueError("not_matrix needs level >= 1")
    field = forest.field
    cache = forest.cache("not_proto")

    def proto(level):
        g = cache.get(level)
        if g is None:
            if level == 1:
                a = forest.fork(field.one, field.one)
                b1 = forest.fork(field.zero, field.one)
                b2 = forest.fork(field.one, field.zero)
                g = forest.internal(a, (b1, b2), ((1, 2), (2, 1)))
            else:
                below = proto(level - 1)
                g = forest.internal(below,
                                    (forest.zero_proto(level - 1), below),
                                    ((1,), (1, 2)))
            forest.mark_canonical(g)
            cache[level] = g
        return g

    return forest.diagram(field.one, proto(l), (field.zero, field.one))
