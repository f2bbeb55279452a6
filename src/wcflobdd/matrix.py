"""Kronecker product, matrix multiplication, and matrix-vector apply.

A level-k diagram under the interleaved variable order (row bit, column
bit, row bit, ...) holds a square matrix of side 2^(2^(k-1)).  The
Kronecker product stacks the operands' variables, so it simply wraps the
two heads in a new top grouping.  Matrix multiplication recurses through
the block structure; below the top level no concrete cell values exist,
so each product exit carries a bilinear polynomial over the operands'
exit vertices whose coefficients absorb the summed path weights.  Each
level merges equal middles into its A-side product as reduce would and
interns only its result; at the 2x2 base, the memo tables
``matrix_cells`` and ``matrix_placeholder`` keep each block's cells and
the placeholder grouping of each partition of the product cells.  The
polynomials collapse to numbers only at top level, after which a reduce
pass restores canonicity.

A level-k diagram is also a vector over the 2^k row bits of a level
k+1 matrix.  Both A-connections then cover the first half of the rows,
so matrix-vector application runs the same recursion, down to a 2x2
block times a level-0 leaf.

Application takes a third path when the matrix head is monomial: at
level 1 each row has at most one cell of path weight not exactly zero,
and above it the A-connection and every B-connection are monomial (X,
PHASE, control-first CNOT and CP; not H or target-first CNOT).  Each
row path then meets one column path, so M v is a cross product of the
two heads, the row product: no sums and no polynomials.

On the float instances a product whose factor leaves the float range
raises OverflowError rather than return a wrong diagram.

Bilinear polynomials are plain dicts mapping ``(ev1, ev2)`` exit-index
pairs to nonzero coefficients; the empty dict is the zero polynomial.
"""

from .core import (Diagram, StructureError, _checked_diagram,
                   collapse_classes_leftmost, is_zero_diagram)
from .construct import _fold, identity_matrix, identity_proto
from .pointwise import (_common_forest, _cross_join, _merge_middles, finish,
                        reduce, weighted_pair_product)

__all__ = [
    "apply_matrix_to_vector",
    "bp_add",
    "bp_scale",
    "kronecker",
    "matrix_multiply",
]


def bp_add(field, bp1, bp2):
    """Sum of two bilinear polynomials, dropping cancelled terms."""
    out = dict(bp1)
    for pair, coeff in bp2.items():
        if pair in out:
            s = field.add(out[pair], coeff)
            if field.is_zero(s):
                del out[pair]
            else:
                out[pair] = s
        else:
            out[pair] = coeff
    return out


def bp_scale(field, n, bp):
    """The polynomial ``n * bp``; scaling by zero annihilates."""
    if field.is_zero(n):
        return {}
    return {pair: field.mul(n, coeff) for pair, coeff in bp.items()}


def _collapse_bps(field, bps):
    """Classes of equal polynomials: (representatives, renumbering)."""
    coeff_key = field.key

    def bp_key(bp):
        # One term needs no sorting: 280 k of 365 k polynomials in a
        # fifth of criterion 3's operations.
        if len(bp) == 1:
            for pair, coeff in bp.items():
                return ((pair, coeff_key(coeff)),)
        return tuple(sorted(zip(bp, map(coeff_key, bp.values()))))

    return collapse_classes_leftmost(bps, bp_key)


def kronecker(n1: Diagram, n2: Diagram) -> Diagram:
    """Kronecker product; operands at level k give a level k+1 result.

    The first operand's variables become the upper half, so with the
    interleaved order intact kron(A, B) is the usual block matrix of
    A-entries scaling copies of B.
    """
    forest = _common_forest(n1, n2)
    field = forest.field
    level = n1.level + 1
    if is_zero_diagram(n1) or is_zero_diagram(n2):
        return forest.zero_diagram(level)

    middles = []
    for v1 in n1.values:
        if field.is_zero(v1):
            middles.append((forest.zero_proto(n2.level), (field.zero,)))
        else:
            middles.append(
                (n2.head, tuple(field.mul(v1, v2) for v2 in n2.values)))
    g, values = forest.join(n1.head, middles, field.key)
    g.canonical = True
    return _checked_diagram(forest, field.mul(n1.factor, n2.factor), g,
                            values)


def matrix_multiply(n1: Diagram, n2: Diagram) -> Diagram:
    """Matrix product of two interleaved-order square matrices."""
    forest = _common_forest(n1, n2)
    if n1.level < 1:
        raise ValueError("matrices need at least one row and one column bit")
    return _product(forest, n1, n2)


def apply_matrix_to_vector(m: Diagram, v: Diagram) -> Diagram:
    """The vector M v, for a level-(k+1) matrix and a level-k vector.

    The vector reads one bit per row of the matrix, in the matrix's row
    order, and so does the result.
    """
    if m.forest is not v.forest:
        raise ValueError("operands belong to different forests")
    if m.level != v.level + 1:
        raise ValueError("a level-(k+1) matrix needs a level-k vector")
    return _product(m.forest, m, v)


def _product(forest, n1, n2):
    """n1 times n2, a matrix or a vector at the level of ``n2``."""
    field = forest.field
    if is_zero_diagram(n1) or is_zero_diagram(n2):
        return forest.zero_diagram(n2.level)
    if n1 is identity_matrix(forest, n1.level):
        return n2
    # A vector is never this identity: it sits a level lower.
    if n2 is identity_matrix(forest, n1.level):
        return n1

    if n2.level < n1.level and _monomial(forest, n1.head):
        g, pt = _row_step(forest, n1.head, n2.head)
        v = [field.mul(n1.values[i1 - 1], n2.values[i2 - 1]) for i1, i2 in pt]
        return finish(forest, g, v, field.mul(n1.factor, n2.factor))
    return _symbolic_product(forest, n1, n2)


def _symbolic_product(forest, n1, n2):
    """n1 times n2 through the bilinear polynomials, shortcuts aside."""
    field = forest.field
    g, m, w = _mat_mult_groupings(forest, n1.head, n2.head)
    v = []
    for bp in m:
        total = field.zero
        for (e1, e2), coeff in bp.items():
            total = field.add(total, field.mul(
                coeff, field.mul(n1.values[e1 - 1], n2.values[e2 - 1])))
        v.append(total)
    return finish(forest, g, v, w, field.mul(n1.factor, n2.factor))


def _monomial(forest, g):
    """Whether the proto-matrix ``g`` is monomial, its cells compared
    with the exact zero, so that a float cell of 1e-12 is live."""
    table = forest.cache("row_product")
    flag = table.get(g)
    if flag is None:
        if g.level == 1:
            zero = forest.field.zero
            flag = all(row[0][0] == zero or row[1][0] == zero
                       for row in _cells(forest, g))
        else:
            flag = (_monomial(forest, g.a_connection)
                    and all(_monomial(forest, b) for b in g.b_connections))
        table[g] = flag
    return flag


def _row_product(forest, g1, g2):
    """``(g, pt)`` as ``pair_product`` gives, for a monomial proto-matrix
    and a proto-vector: each row path carries path1(row, c) * path2(c)
    for its live column c, if any, to the exit pair the two reach."""
    table = forest.cache("row_product")
    hit = table.get((g1, g2))
    if hit is None:
        hit = table[g1, g2] = _row_step(forest, g1, g2)
    return hit


def _row_step(forest, g1, g2):
    """``_row_product`` unmemoized, for a product's top pair, which
    never recurs: the table would only hold it."""
    if g1 is identity_proto(forest, g1.level):
        return g2, tuple((1, k) for k in range(1, g2.number_of_exits + 1))
    if g2.level:
        return _cross_join(forest, g1, g2, _row_product)
    field = forest.field
    weights, pt = [], []
    for row in _cells(forest, g1):
        c = int(row[0][0] == field.zero)  # the live column, else 1
        (w1, e1), (e2, w2) = row[c], g2.branch(c)
        weights.append(field.mul(w1, w2))
        pt.append((e1, e2))
    pt = tuple(pt[:1] if pt[0] == pt[1] else pt)
    return forest.leaf(*weights, len(pt)), pt


def _mat_mult_groupings(forest, g1, g2):
    """Symbolic product of a proto-matrix and a proto-matrix or vector.

    Returns ``(g, m, w)`` where ``g`` ranges over the distinguishable
    product cells, ``m`` holds one bilinear polynomial per exit of ``g``
    and, for every interleaved row/column path ``x``,

        sum_k path1(row(x) join k) * path2(k join col(x))
            == w * path_g(x) * m[exit_g(x) - 1]

    with the polynomial's (ev1, ev2) terms standing for the operands'
    exit vertices.  A proto-vector ``g2`` sits one level below ``g1``;
    it has no column, so ``x`` is a row path and ``g`` a proto-vector.
    """
    if g1.level - g2.level not in (0, 1):
        raise ValueError("operand levels must be equal or one apart")
    field = forest.field
    cache = forest.cache("matrix_mult")
    key = (g1, g2)
    hit = cache.get(key)
    if hit is not None:
        return hit

    zp = forest.zero_proto(g2.level)
    ip = identity_proto(forest, g1.level)
    if g1 is forest.zero_proto(g1.level) or g2 is zp:
        res = (zp, ({},), field.zero)
    elif g1 is ip:
        # I * M keeps M; only diagonal paths (exit 1 of the identity
        # proto) survive with unit weight.
        res = (g2, tuple({(1, k): field.one}
                         for k in range(1, g2.number_of_exits + 1)),
               field.one)
    elif g2 is ip:
        res = (g1, tuple({(k, 1): field.one}
                         for k in range(1, g1.number_of_exits + 1)),
               field.one)
    elif g1.level == 1:
        res = _mat_mult_base(forest, g1, g2)
    else:
        res = _mat_mult_internal(forest, g1, g2)
    cache[key] = res
    return res


def _mat_mult_base(forest, g1, g2):
    """A 2x2 block times a 2x2 block, or times a level-0 proto-vector."""
    field = forest.field
    cells1 = _cells(forest, g1)
    if g2.level:
        cells2 = _cells(forest, g2)
    else:  # one column: the vector's (weight, exit) per row
        cells2 = [[g2.branch(k)[::-1]] for k in (0, 1)]
    bps = []
    for r in (0, 1):
        for c in range(len(cells2[0])):
            bp = {}
            for k in (0, 1):
                w1, e1 = cells1[r][k]
                w2, e2 = cells2[k][c]
                coeff = field.mul(w1, w2)
                if not field.is_zero(coeff):
                    bp = bp_add(field, bp, {(e1, e2): coeff})
            bps.append(bp)
    # Group equal cells; the fold of unit weights labelled by cell class
    # is the placeholder grouping that realizes that partition.
    reps, renumbered = _collapse_bps(field, bps)
    placeholders = forest.cache("matrix_placeholder")
    g = placeholders.get(renumbered)
    if g is None:
        g = placeholders[renumbered] = _fold(
            forest, [field.one] * len(bps), renumbered)[0]
    return (g, reps, field.one)


def _cells(forest, g):
    """(path weight, exit) per row and column of a 2x2 block."""
    table = forest.cache("matrix_cells")
    cells = table.get(g)
    if cells is None:
        mul = forest.field.mul
        rows = []
        for r in (0, 1):
            mid, aw = g.a_connection.branch(r)
            rt = g.b_return_tuples[mid - 1]
            rows.append(tuple((mul(aw, bw), rt[be - 1]) for be, bw in
                              map(g.b_connections[mid - 1].branch, (0, 1))))
        cells = table[g] = tuple(rows)
    return cells


def _mat_mult_internal(forest, g1, g2):
    """Sum each A-exit's B-products, then merge equal middles into the
    A-side product as reduce does: one grouping interned."""
    field = forest.field
    aa, ma, wa = _mat_mult_groupings(forest, g1.a_connection, g2.a_connection)
    sums = []
    for bp_a in ma:
        acc = (field.zero, forest.zero_proto(g2.level - 1), ({},))
        for (k1, k2), v in bp_a.items():
            bb, mb, wb = _mat_mult_groupings(forest, g1.b_connections[k1 - 1],
                                             g2.b_connections[k2 - 1])
            if field.is_zero(wb):
                continue  # _symbolic_add would drop the term
            # Exit vertices renamed through the return tuples.
            rt1 = g1.b_return_tuples[k1 - 1]
            rt2 = g2.b_return_tuples[k2 - 1]
            mapped = [{(rt1[e1 - 1], rt2[e2 - 1]): c
                       for (e1, e2), c in bp.items()} for bp in mb]
            if bb.canonical:
                # Return tuples are injective and mb's polynomials
                # distinct, so no class merges and reduce would keep
                # (bb, wb).
                h, fw, reps = bb, wb, mapped
            else:
                reps, rho = _collapse_bps(field, mapped)
                h, fw = reduce(forest, bb, rho, (wb,) * len(mb))
            term = (field.mul(v, fw), h, reps)
            acc = _symbolic_add(forest, acc, term)
        sums.append(acc)

    reps, rho = _collapse_bps(field, [bp for _, _, bps in sums for bp in bps])
    middles = []
    weights = []
    start = 0
    for w, h, bps in sums:
        # h is canonical and its polynomials distinct, so reduce would
        # keep (h, w) unless w keys as zero.
        if field.is_zero(w):
            h, w = reduce(forest, h, tuple(range(1, len(bps) + 1)),
                          (w,) * len(bps))
        middles.append((h, rho[start:start + len(bps)]))
        weights.append(w)
        start += len(bps)
    g, w = _merge_middles(forest, aa, middles, weights)
    if g.number_of_exits != len(reps):
        raise StructureError("matrix product lost exit classes")
    return (g, reps, field.mul(wa, w))


def _symbolic_add(forest, s1, s2):
    """Pointwise sum of two polynomial-valued diagrams.

    Each operand is a (weight, grouping, polynomial tuple) triple; the
    magnitudes that pointwise addition would push into leaf weights stay
    inside the polynomial coefficients here, so the reduce pass only
    separates dead exits (empty polynomial) from live ones.
    """
    field = forest.field
    w1, g1, bps1 = s1
    w2, g2, bps2 = s2
    if field.is_zero(w1):
        return s2
    if field.is_zero(w2):
        return s1
    g, pt = weighted_pair_product(forest, g1, g2, w1, w2)
    deduced = [bp_add(field, bp_scale(field, q1, bps1[i1 - 1]),
                      bp_scale(field, q2, bps2[i2 - 1]))
               for (q1, i1), (q2, i2) in pt]
    reps, rho = _collapse_bps(field, deduced)
    values = tuple(field.zero if not bp else field.one for bp in deduced)
    reduced, w = reduce(forest, g, rho, values)
    return (w, reduced, reps)
