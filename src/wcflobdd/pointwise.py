"""Pointwise multiplication and addition of diagrams.

Both operations follow the same recipe: walk the two operand heads in
lockstep to build a cross-product grouping whose exits are pairs of
operand exits (``pair_product`` for multiplication, the weight-carrying
``weighted_pair_product`` for addition), combine the operand values at
each pair exit, then ``finish``: merge zero exits and nonzero exits,
and call ``reduce`` to push the combined values back into edge weights.
``reduce`` is where canonicity is restored: its output is interned and
satisfies the same normalization ``fold`` produces.

The cross-product intermediates are ordinary interned groupings but are
not themselves canonical (they may carry duplicate middles and
non-normalized leaf weights); they only ever flow into ``reduce``.
"""

from functools import partial

from .core import (Diagram, _checked_diagram, collapse_classes_leftmost,
                   is_zero_diagram)
from .construct import scalar_multiply

__all__ = [
    "add",
    "collapse_classes_leftmost",
    "multiply",
    "pair_product",
    "reduce",
    "subtract",
    "weighted_pair_product",
]


def reduce(forest, grouping, reduction, values):
    """Merge exits of ``grouping`` and absorb per-exit values.

    ``reduction`` maps each old exit to a new exit class and ``values``
    gives the weight to fold into paths reaching each old exit.  Returns
    ``(reduced, w)`` such that for every assignment ``x``:

        w * weight_reduced(x) == weight(x) * values[exit(x) - 1]

    and ``exit_reduced(x) == reduction[exit(x) - 1]``.  The result is
    canonical whenever the inputs came from canonical diagrams.

    ``reduction`` must be leftmost-compact (class numbers appear in
    first-occurrence order, covering 1..m); that is how every caller in
    this module produces it, via :func:`collapse_classes_leftmost`.
    """
    n = grouping.number_of_exits
    reduction = tuple(reduction)
    values = tuple(values)
    field = forest.field
    cache = forest.cache("reduce")
    value_keys = tuple(map(field.key, values))
    key = (grouping, reduction, value_keys)
    hit = cache.get(key)
    if hit is not None:
        # The same arguments passed the checks below when first seen.
        return hit
    if len(reduction) != n or len(values) != n:
        raise ValueError(
            f"reduction and values must have length {n}, "
            f"got {len(reduction)} and {len(values)}")
    if collapse_classes_leftmost(reduction)[1] != reduction:
        raise ValueError(f"reduction tuple {reduction} is not leftmost-compact")

    zero_key = field._zero_key
    zero = all(k == zero_key for k in value_keys)
    if zero and len(set(reduction)) == 1:
        res = (forest.zero_proto(grouping.level), field.zero)
    elif (not zero
          and reduction == tuple(range(1, n + 1))
          and len(set(value_keys)) == 1
          and grouping.canonical):
        # Nothing to merge and a uniform nonzero value to factor
        # straight out (one key for all, not all zero).
        res = (grouping, values[0])
    elif grouping.level == 0:
        res = _reduce_leaf(forest, grouping, reduction, values)
    else:
        res = _reduce_internal(forest, grouping, reduction, values)
    cache[key] = res
    return res


def _reduce_leaf(forest, grouping, reduction, values):
    # The right branch ends at the last exit; ``reduction`` is
    # leftmost-compact, so that exit's class is the new exit count.
    field = forest.field
    right = grouping.number_of_exits
    return forest.normalized_leaf(reduction[right - 1],
                                  field.mul(grouping.lw, values[0]),
                                  field.mul(grouping.rw, values[right - 1]))


def _reduce_internal(forest, grouping, reduction, values):
    middles = []
    b_factors = []
    for b, rt in zip(grouping.b_connections, grouping.b_return_tuples):
        classes = tuple(reduction[t - 1] for t in rt)
        vals = tuple(values[t - 1] for t in rt)
        projected, rho = collapse_classes_leftmost(classes)
        h, w = reduce(forest, b, rho, vals)
        middles.append((h, projected))
        b_factors.append(w)
    return _merge_middles(forest, grouping.a_connection, middles, b_factors)


def _merge_middles(forest, a, middles, weights):
    """(canonical grouping, factor) over ``a`` and ``middles``, the
    reduced (B-connection, exit labels) pair of each A-exit.  Reducing
    ``a`` by the classes of equal middles folds the duplicates away and
    absorbs each middle's factor in ``weights`` into the A-side weights.
    """
    kept, positions = collapse_classes_leftmost(middles)
    a, w = reduce(forest, a, positions, tuple(weights))
    g, _ = forest.join(a, kept)
    g.canonical = True
    return g, w


def pair_product(forest, g1, g2):
    """Cross product of two groupings for pointwise multiplication.

    Returns ``(g, pt)`` where each path through ``g`` simulates the same
    path through both operands, carrying the product of their weights,
    and ``pt[e - 1] = (i1, i2)`` names the operand exits that product
    exit ``e`` stands for.
    """
    if g1.level != g2.level:
        raise ValueError("pair_product operands must share a level")
    cache = forest.cache("pair_product")
    key = (g1, g2)
    hit = cache.get(key)
    if hit is not None:
        return hit

    level = g1.level
    zp = forest.zero_proto(level)
    op = forest.one_proto(level)
    field = forest.field
    if g1 is zp or g2 is zp:
        res = (zp, ((1, 1),))
    elif g1 is op:
        res = (g2, tuple((1, k) for k in range(1, g2.number_of_exits + 1)))
    elif g2 is op:
        res = (g1, tuple((k, 1) for k in range(1, g1.number_of_exits + 1)))
    elif level == 0:
        lw = field.mul(g1.lw, g2.lw)
        rw = field.mul(g1.rw, g2.rw)
        right = (g1.number_of_exits, g2.number_of_exits)
        pt = ((1, 1),) if right == (1, 1) else ((1, 1), right)
        res = (forest.leaf(lw, rw, len(pt)), pt)
    else:
        res = _cross_join(forest, g1, g2, pair_product)
    cache[key] = res
    return res


def _cross_join(forest, g1, g2, product):
    """The internal step of a cross product: ``product`` of the
    A-connections, then of the B-connections behind each exit pair,
    renamed through both return tuples and joined; ``(g, pt)``."""
    a, pt_a = product(forest, g1.a_connection, g2.a_connection)
    middles = []
    for i, j in pt_a:
        b, pt_b = product(forest, g1.b_connections[i - 1],
                          g2.b_connections[j - 1])
        rt1 = g1.b_return_tuples[i - 1]
        rt2 = g2.b_return_tuples[j - 1]
        middles.append((b, [(rt1[e1 - 1], rt2[e2 - 1]) for e1, e2 in pt_b]))
    return forest.join(a, middles)


def multiply(n1: Diagram, n2: Diagram) -> Diagram:
    """Pointwise product: the diagram of ``x -> n1(x) * n2(x)``."""
    forest = _common_forest(n1, n2)
    field = forest.field
    level = n1.level
    if is_zero_diagram(n1) or is_zero_diagram(n2):
        return forest.zero_diagram(level)
    op = forest.one_proto(level)
    if n1.head is op and field.is_one(n1.values[0]):
        return scalar_multiply(n1.factor, n2)
    if n2.head is op and field.is_one(n2.values[0]):
        return scalar_multiply(n2.factor, n1)

    g, pt = pair_product(forest, n1.head, n2.head)
    deduced = tuple(field.mul(n1.values[i1 - 1], n2.values[i2 - 1])
                    for i1, i2 in pt)
    return finish(forest, g, deduced, field.mul(n1.factor, n2.factor))


def weighted_pair_product(forest, g1, g2, p1, p2):
    """Cross product of two groupings for pointwise addition.

    Unlike :func:`pair_product` the structural product carries unit
    weights; the operands' path weights accumulate in the descriptor
    tuple instead.  Returns ``(g, pt)`` with ``pt[e - 1]`` of the form
    ``((q1, i1), (q2, i2))``: every assignment reaching product exit
    ``e`` with product weight ``W`` has weight ``W * q1 / p1`` to exit
    ``i1`` in ``g1`` and ``W * q2 / p2`` to exit ``i2`` in ``g2``.  The
    seeds ``p1, p2`` are the operands' factor weights.
    """
    if g1.level != g2.level:
        raise ValueError("weighted_pair_product operands must share a level")
    field = forest.field
    cache = forest.cache("weighted_pair_product")
    key = (g1, g2, field.key(p1), field.key(p2))
    hit = cache.get(key)
    if hit is not None:
        return hit

    level = g1.level
    zp = forest.zero_proto(level)
    if g1 is zp:
        res = (g2, tuple(((p1, 1), (p2, k))
                         for k in range(1, g2.number_of_exits + 1)))
    elif g2 is zp:
        res = (g1, tuple(((p1, k), (p2, 1))
                         for k in range(1, g1.number_of_exits + 1)))
    elif g1 is g2:
        # Shared structure: reuse it verbatim, keeping both seed weights.
        res = (g1, tuple(((p1, k), (p2, k))
                         for k in range(1, g1.number_of_exits + 1)))
    elif level == 0:
        first = ((field.mul(p1, g1.lw), 1), (field.mul(p2, g2.lw), 1))
        second = ((field.mul(p1, g1.rw), g1.number_of_exits),
                  (field.mul(p2, g2.rw), g2.number_of_exits))
        if _entry_key(field, first) == _entry_key(field, second):
            # Entries the float key cannot tell apart (1e-8, 1.001e-8) get
            # here; above level 0 two exits would break the parent's join.
            pt = (first,)
        else:
            pt = (first, second)
        res = (forest.leaf(field.one, field.one, len(pt)), pt)
    else:
        a, pt_a = weighted_pair_product(forest, g1.a_connection,
                                        g2.a_connection, p1, p2)
        middles = []
        for (q1, i), (q2, j) in pt_a:
            b, pt_b = weighted_pair_product(forest, g1.b_connections[i - 1],
                                            g2.b_connections[j - 1], q1, q2)
            rt1 = g1.b_return_tuples[i - 1]
            rt2 = g2.b_return_tuples[j - 1]
            middles.append((b, [((f1, rt1[e1 - 1]), (f2, rt2[e2 - 1]))
                                for (f1, e1), (f2, e2) in pt_b]))
        res = forest.join(a, middles, partial(_entry_key, field))
    cache[key] = res
    return res


def _entry_key(field, entry):
    (q1, i1), (q2, i2) = entry
    return (field.key(q1), i1, field.key(q2), i2)


def add(n1: Diagram, n2: Diagram) -> Diagram:
    """Pointwise sum: the diagram of ``x -> n1(x) + n2(x)``."""
    forest = _common_forest(n1, n2)
    field = forest.field
    if is_zero_diagram(n1):
        return n2
    if is_zero_diagram(n2):
        return n1

    g, pt = weighted_pair_product(forest, n1.head, n2.head,
                                  n1.factor, n2.factor)
    deduced = tuple(field.add(field.mul(q1, n1.values[i1 - 1]),
                              field.mul(q2, n2.values[i2 - 1]))
                    for (q1, i1), (q2, i2) in pt)
    return finish(forest, g, deduced)


def finish(forest, g, values, *scales) -> Diagram:
    """The one result step of ``multiply``, ``add`` and the matrix product.

    Exits of ``g`` merge when their ``values`` agree up to a scalar that
    ``reduce`` pushes into weights, which for the 0/1 value alphabet
    means: zero values together, nonzero values together.  The factor is
    reduce's weight times each of ``scales`` in turn, interned checked.
    """
    field = forest.field
    pattern = tuple(field.zero if field.is_zero(v) else field.one
                    for v in values)
    projected, rho = collapse_classes_leftmost(pattern)
    reduced, factor = reduce(forest, g, rho, values)
    for scale in scales:
        factor = field.mul(factor, scale)
    return _checked_diagram(forest, factor, reduced, projected)


def subtract(n1: Diagram, n2: Diagram) -> Diagram:
    """Pointwise difference, as ``n1 + (-1) * n2``.

    Requires the field to contain -1 (all shipped instances do).
    """
    field = _common_forest(n1, n2).field
    return add(n1, scalar_multiply(field.minus_one, n2))


def _common_forest(n1, n2):
    if n1.forest is not n2.forest:
        raise ValueError("operands belong to different forests")
    if n1.level != n2.level:
        raise ValueError("operands must have the same level")
    return n1.forest
