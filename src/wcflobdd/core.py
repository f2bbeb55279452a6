"""Hash-consed diagram structures.

A diagram is a triple (factor, head grouping, value tuple). Groupings
come in two kinds. A level-0 ``LeafGrouping`` reads a single variable:
bit 0 takes its left weight to exit 1, and bit 1 takes its right weight
to its last exit, which is exit 2 for a *fork* that distinguishes the
variable and exit 1 for a *don't-care*. An internal grouping at level k
wires an A-connection over the first half of the variables to
B-connections over the second half through return tuples. Return
tuples are 1-based, the A-return tuple is always the identity, and
every grouping is interned in a per-forest unique table, so structural
equality is pointer equality. ``Forest.leaf`` and ``Forest.internal``
are the two interning entry points; ``Forest.fork`` and
``Forest.dontcare`` name the two leaf exit counts.  ``Forest.join``
numbers exits by the first occurrence of the middles' exit labels.

Groupings and diagrams hash by identity, and every unique and memo
table keys on them, so each entry holds what it names.  A grouping's
``canonical`` flag marks the output of a canonicalizing construction,
which ``reduce`` may return as is; the towers sit in one forest table.

A forest frees what nothing uses: the unique tables hold weakly, a
grouping holds its children and a diagram its head, and all memo
tables are emptied together each time the live grouping count doubles
(``Forest`` gives the rules).  A structure that is held stays findable,
so equal functions still give identical handles while both are alive.

Weights on level-0 edges and the top-level factor come from a
semi-field instance owned by the forest. A value tuple assigns a
terminal weight (0 or 1, all entries distinct) to each head exit, and
the function computed on an assignment is
``factor * path_weight * value[exit]``, read back (``evaluate``,
``unfold``) as ``(factor * A-half weight) * B-half weight`` of the
head's path, or 0 where ``value[exit]`` is 0.

The ``size`` accounting and the ``validate`` audit live here as well;
both operate on the set of distinct groupings reachable from a head.
"""

from __future__ import annotations

import weakref
from typing import NamedTuple

from .semifield import Semifield

__all__ = [
    "StructureError",
    "Grouping",
    "LeafGrouping",
    "InternalGrouping",
    "Diagram",
    "Forest",
    "SizeReport",
    "evaluate",
    "size",
    "validate",
    "reachable_groupings",
    "collapse_classes_leftmost",
]


class StructureError(ValueError):
    """Raised when a grouping or triple violates a structural invariant."""


class Grouping:
    __slots__ = ("canonical", "__weakref__")

    level = 0
    number_of_exits = 0


class LeafGrouping(Grouping):
    """Level-0 grouping over one variable.

    Bit 0 reaches exit 1 with weight ``lw``; bit 1 reaches exit
    ``number_of_exits`` with weight ``rw``. Two exits make a fork, one
    exit a don't-care.
    """

    __slots__ = ("lw", "rw", "number_of_exits")

    level = 0

    def __init__(self, lw, rw, number_of_exits):
        self.lw = lw
        self.rw = rw
        self.number_of_exits = number_of_exits
        self.canonical = False

    def branch(self, bit):
        """(exit, weight) taken on one input bit."""
        if bit == 0:
            return 1, self.lw
        return self.number_of_exits, self.rw

    def __repr__(self):
        kind = "Fork" if self.number_of_exits == 2 else "DontCare"
        return f"{kind}({self.lw!r}, {self.rw!r})"


class InternalGrouping(Grouping):
    __slots__ = ("level", "a_connection", "b_connections", "b_return_tuples",
                 "number_of_exits")

    def __init__(self, level, a_connection, b_connections, b_return_tuples,
                 number_of_exits):
        self.level = level
        self.a_connection = a_connection
        self.b_connections = b_connections
        self.b_return_tuples = b_return_tuples
        self.number_of_exits = number_of_exits
        self.canonical = False

    def __repr__(self):
        return (f"Internal(level={self.level}, "
                f"b={len(self.b_connections)}, exits={self.number_of_exits})")


class Diagram:
    """Interned (factor, head grouping, value tuple) triple."""

    __slots__ = ("forest", "factor", "head", "values", "__weakref__")

    def __init__(self, forest, factor, head, values):
        self.forest = forest
        self.factor = factor
        self.head = head
        self.values = values

    @property
    def level(self):
        return self.head.level

    @property
    def num_variables(self):
        return 1 << self.head.level

    def __repr__(self):
        f = self.forest.field
        vals = " ".join(f.format(v) for v in self.values)
        return (f"Diagram(level={self.level}, factor={f.format(self.factor)}, "
                f"values=[{vals}])")


def _check_return_tuples(b_connections, b_return_tuples):
    """Shared shape checks for internal groupings; returns exit count."""
    if len(b_connections) != len(b_return_tuples) or not b_connections:
        raise StructureError("B-connection and return-tuple counts differ")
    seen_max = 0
    for b, rt in zip(b_connections, b_return_tuples):
        if len(rt) != b.number_of_exits:
            raise StructureError("return tuple length != B-connection exits")
        used = set()
        for target in rt:
            if not isinstance(target, int) or target < 1:
                raise StructureError(f"bad return-tuple entry {target!r}")
            if target in used:
                raise StructureError("return tuple maps two exits together")
            used.add(target)
            if target > seen_max + 1:
                raise StructureError(
                    "exit numbers must appear in first-occurrence order")
            seen_max = max(seen_max, target)
    return seen_max


# Unique-table keys: groupings with equal keys are the same grouping.


def _leaf_key(field, exits, lw, rw):
    return (exits, field.key(lw), field.key(rw))


def _internal_key(level, a_connection, b_connections, b_return_tuples):
    return (level, a_connection, b_connections, b_return_tuples)


def _one_middle(below, zero):
    """Tower step with a single middle: ``below`` again, one exit."""
    return (below,), ((1,),)


# The single-exit towers over the don't-care leaves (0, 1) and (1, 1).
_ZERO_TOWER = ("zero", 0, lambda f: f.dontcare(f.field.zero, f.field.one),
               _one_middle)
_ONE_TOWER = ("one", 0, lambda f: f.dontcare(f.field.one, f.field.one),
              _one_middle)


def _weak_table():
    """An empty unique table and the callback that deletes its dead
    entries.  Each entry is a ``weakref.KeyedRef`` carrying its key;
    the callback leaves an entry alone once a new object took the key."""
    table = {}

    def forget(ref):
        if table.get(ref.key) is ref:
            del table[ref.key]

    return table, forget


def _absent():
    """What a unique-table key with no entry dereferences to."""
    return None


# Live groupings below which the memo tables are never dropped.  One
# run of a perfbench circuit (seed 1, ten rounds) on a fresh forest
# leaves 1,157-1,286 (BV-63, DJ-63) and 2,596 (GHZ-256) live; QFT-32
# leaves 7,082-8,089 (5,143-8,038 before the row product, whose cross
# products only the memo tables keep), and 6 of its 20 bases cross the
# floor.  It sits below the 13,114 (rational) and 27,731 (complex) that
# 40 random level-3 operations leave when nothing drops.
_DROP_FLOOR = 8192


class Forest:
    """Owner of the unique tables and operation caches for one field.

    All groupings and triples of a computation are interned here;
    diagrams from different forests must not be mixed. Operation
    memo tables live in ``caches`` keyed by operation name and can be
    dropped wholesale without affecting canonicity (interning is what
    makes handles unique; the caches only avoid recomputation).  The
    tower table and ``measure_forest``, where measure_view puts squared
    magnitudes (this forest unless complex), are not caches.

    Memory: the unique tables hold weakly, so a grouping or diagram is
    freed once nothing else reaches it.  What pins a structure is a
    live handle, the tower table and the named families' diagrams
    (held as long as the forest, see ``_hold``), and the memo tables.
    Every memo table follows one rule: ``clear_caches`` empties them
    all whenever a new grouping takes the live count above a
    threshold, which then becomes twice the count that survives, and
    never less than ``_DROP_FLOOR``.  Their entries are pure, so
    dropping them only costs recomputation.
    """

    def __init__(self, field: Semifield):
        self.field = field
        self._grouping_table, self._forget_grouping = _weak_table()
        self._diagram_table, self._forget_diagram = _weak_table()
        self._tower_table = {}
        self._held = set()
        self._drop_at = _DROP_FLOOR
        self.caches = {}
        measure = field.measure_field()
        self.measure_forest = self if measure is field else Forest(measure)

    # -- interning ---------------------------------------------------

    def leaf(self, lw, rw, exits) -> LeafGrouping:
        """Level-0 grouping with 1 (don't-care) or 2 (fork) exits; a new
        one whose weight is inf or nan raises OverflowError."""
        f = self.field
        key = _leaf_key(f, exits, lw, rw)
        g = self._grouping_table.get(key, _absent)()
        if g is None:
            if not (f.is_finite(lw) and f.is_finite(rw)):
                raise OverflowError(f"level-0 weights {lw!r}, {rw!r} are "
                                    "out of float range")
            g = LeafGrouping(lw, rw, exits)
            g.canonical = f.is_one(lw) or (f.is_zero(lw) and f.is_one(rw))
            self._new_grouping(key, g)
        return g

    def fork(self, lw, rw) -> LeafGrouping:
        return self.leaf(lw, rw, 2)

    def dontcare(self, lw, rw) -> LeafGrouping:
        return self.leaf(lw, rw, 1)

    def normalized_leaf(self, exits, wl, wr):
        """Level-0 grouping for branch weights (wl, wr), and its factor.

        The left weight becomes 1 unless it is 0; then the right weight
        is 1 and carries the factor.  Returns ``(leaf, factor)`` with
        ``factor * leaf weights == (wl, wr)``.
        """
        f = self.field
        if not f.is_zero(wl):
            return self.leaf(f.one, f.mul(f.inv(wl), wr), exits), wl
        # Every path is weight-dead when wr is 0 as well; the factor 0
        # then makes the leaf's own weights irrelevant.
        w = f.zero if f.is_zero(wr) else wr
        return self.leaf(f.zero, f.one, exits), w

    def internal(self, a_connection, b_connections,
                 b_return_tuples) -> InternalGrouping:
        b_connections = tuple(b_connections)
        b_return_tuples = tuple(tuple(rt) for rt in b_return_tuples)
        level = a_connection.level + 1
        key = _internal_key(level, a_connection, b_connections,
                            b_return_tuples)
        g = self._grouping_table.get(key, _absent)()
        if g is not None:
            # Same parts as a grouping that passed the checks below.
            return g
        if len(b_connections) != a_connection.number_of_exits:
            raise StructureError("middle count != A-connection exits")
        for b in b_connections:
            if b.level != a_connection.level:
                raise StructureError("A- and B-connection levels differ")
        exits = _check_return_tuples(b_connections, b_return_tuples)
        g = InternalGrouping(level, a_connection, b_connections,
                             b_return_tuples, exits)
        self._new_grouping(key, g)
        return g

    def join(self, a_connection, middles, key=None):
        """(grouping, exit labels) over ``a_connection`` and ``middles``,
        its (B-connection, exit labels) pairs in A-exit order.  Labels
        equal under ``key`` (the identity when omitted) share an exit,
        numbered by first occurrence across the middles."""
        first = {}
        labels = []
        bs = []
        rts = []
        for b, row in middles:
            rt = []
            for label in row:
                k = label if key is None else key(label)
                e = first.get(k)
                if e is None:
                    e = first[k] = len(labels) + 1
                    labels.append(label)
                rt.append(e)
            bs.append(b)
            rts.append(tuple(rt))
        return self.internal(a_connection, bs, rts), tuple(labels)

    def _new_grouping(self, key, g):
        """Enter ``g``; past the threshold, clear the caches."""
        table = self._grouping_table
        table[key] = weakref.KeyedRef(g, self._forget_grouping, key)
        if len(table) > self._drop_at:
            self.clear_caches()

    def diagram(self, factor, head, values) -> Diagram:
        f = self.field
        values = tuple(values)
        if len(values) != head.number_of_exits:
            raise StructureError("value tuple length != head exits")
        vkeys = tuple(f.key(v) for v in values)
        zero_key, one_key = f._zero_key, f._one_key
        for vk in vkeys:
            if vk != zero_key and vk != one_key:
                raise StructureError("value tuple entries must be 0 or 1")
        if len(set(vkeys)) != len(vkeys):
            raise StructureError("value tuple entries must be distinct")
        tkey = (f.key(factor), head, vkeys)
        d = self._diagram_table.get(tkey, _absent)()
        if d is None:
            d = Diagram(self, factor, head, values)
            self._diagram_table[tkey] = weakref.KeyedRef(
                d, self._forget_diagram, tkey)
        return d

    def _hold(self, d: Diagram) -> Diagram:
        """``d``, kept as long as the forest, like the towers.

        The named families' diagrams are held.  On a floating instance
        an operation can land an ulp off a family's factor, as
        ``H*H`` does with 1.0000000000000004; the rounding key then
        finds the family's own handle only while it is alive.
        """
        self._held.add(d)
        return d

    # -- memo tables ---------------------------------------------------

    def cache(self, name: str) -> dict:
        c = self.caches.get(name)
        if c is None:
            c = self.caches[name] = {}
        return c

    def clear_caches(self):
        """Drop all operation memo tables, and with them every grouping
        and diagram that only they reached.  Towers, held family
        diagrams and whatever a caller holds stay; the drop threshold
        restarts from what survives, and a separate ``measure_forest``
        clears too.  Tables are emptied in place, as an operation in
        mid-recursion holds its own and would keep it alive."""
        for table in self.caches.values():
            table.clear()
        self.caches.clear()
        if self.measure_forest is not self:
            self.measure_forest.clear_caches()
        self._drop_at = max(_DROP_FLOOR, 2 * len(self._grouping_table))

    def stats(self) -> dict:
        """Entry counts of the unique tables and of each memo table.

        Returns ``{"groupings": n, "diagrams": n, "canonical_ids": n,
        "caches": {name: entries}}`` with the memo tables by name, and
        in ``canonical_ids`` the number of groupings flagged canonical.
        The unique tables hold weakly, so their counts are the live
        groupings and diagrams: those a handle, a tower, a held family
        diagram or a memo table still reaches.  Nothing is counted
        while the forest works: the call reads the tables' lengths and
        counts the flags in one pass.
        """
        refs = list(self._grouping_table.values())
        return {
            "groupings": len(refs),
            "diagrams": len(self._diagram_table),
            "canonical_ids": sum(ref().canonical for ref in refs),
            "caches": {name: len(table)
                       for name, table in sorted(self.caches.items())},
        }

    # -- towers ------------------------------------------------------------

    def _tower(self, spec, level: int) -> Grouping:
        """Head grouping of a tower at ``level``, built once per forest.

        ``spec`` is (name, lowest level, function from the forest to the
        grouping there, step); each level above is ``internal(below,
        *step(below, zero proto))``, and a one-level tower has no step.
        Keyed by (name, level), not a cache.  The one level check of the
        protos and families: below the lowest level, ValueError.
        """
        g = self._tower_table.get((spec[0], level))
        if g is None:
            name, bottom, base, step = spec
            if level < bottom:
                raise ValueError(f"the {name} tower starts at level {bottom}")
            if level == bottom:
                g = base(self)
            else:
                below = self._tower(spec, level - 1)
                g = self.internal(
                    below, *step(below, self.zero_proto(level - 1)))
            g.canonical = True
            self._tower_table[name, level] = g
        return g

    def zero_proto(self, level: int) -> Grouping:
        return self._tower(_ZERO_TOWER, level)

    def one_proto(self, level: int) -> Grouping:
        return self._tower(_ONE_TOWER, level)

    def zero_diagram(self, level: int) -> Diagram:
        return self._hold(self.diagram(self.field.zero, self.zero_proto(level),
                                       (self.field.zero,)))

    def one_diagram(self, level: int) -> Diagram:
        return self._hold(self.diagram(self.field.one, self.one_proto(level),
                                       (self.field.one,)))

    def __repr__(self):
        return (f"<Forest {self.field.name}: "
                f"{len(self._grouping_table)} "
                f"groupings, {len(self._diagram_table)} diagrams>")


def _checked_diagram(forest, factor, head, values) -> Diagram:
    """``forest.diagram``, unless a float factor left the range.

    Every operation that computes a factor interns its result here.  A
    factor that overflowed to inf or nan, or underflowed to 0 on a
    nonzero head, raises OverflowError instead of giving a diagram with
    the wrong value or one ``validate`` rejects.  Exact instances never
    raise here.
    """
    field = forest.field
    if not field.is_finite(factor) or (
            factor == field.zero
            and head is not forest.zero_proto(head.level)):
        raise OverflowError(f"level-{head.level} factor {factor!r} is out "
                            "of float range")
    return forest.diagram(factor, head, values)


# -- class collapse ---------------------------------------------------------


def collapse_classes_leftmost(items, key=None):
    """Group a sequence into classes, numbered by first occurrence.

    Items fall in one class when ``key`` (the identity when omitted)
    maps them to the same value.  Returns ``(projected, renumbered)``
    where ``projected`` keeps the leftmost item of each class in order
    of appearance and ``renumbered`` maps every position to the 1-based
    index of its class in ``projected``.  For example
    ``[x, x, y, x, z]`` gives ``((x, y, z), (1, 1, 2, 1, 3))``.
    """
    first = {}
    projected = []
    renumbered = []
    for item in items:
        k = item if key is None else key(item)
        c = first.get(k)
        if c is None:
            c = len(projected) + 1
            first[k] = c
            projected.append(item)
        renumbered.append(c)
    return tuple(projected), tuple(renumbered)


# -- evaluation ---------------------------------------------------------


def _bits(diagram, assignment) -> tuple:
    if isinstance(assignment, str):
        for ch in assignment:
            if ch not in "01":
                raise ValueError(f"bad assignment character {ch!r}")
        bits = tuple(map(int, assignment))
    else:
        bits = tuple(int(b) for b in assignment)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("assignment bits must be 0 or 1")
    if len(bits) != diagram.num_variables:
        raise ValueError(
            f"expected {diagram.num_variables} bits, got {len(bits)}")
    return bits


def _eval_grouping(field, g, bits, lo, hi):
    """Exit index (1-based) and path weight of ``g`` on bits[lo:hi]."""
    if g.level == 0:
        return g.branch(bits[lo])
    mid = (lo + hi) // 2
    a_exit, a_weight = _eval_grouping(field, g.a_connection, bits, lo, mid)
    b = g.b_connections[a_exit - 1]
    b_exit, b_weight = _eval_grouping(field, b, bits, mid, hi)
    return (g.b_return_tuples[a_exit - 1][b_exit - 1],
            field.mul(a_weight, b_weight))


def evaluate(diagram: Diagram, assignment):
    """Value of the represented function on one assignment.

    ``assignment`` is a bit string or 0/1 sequence with one bit per
    variable, leftmost bit first (the A-connection half comes first).
    A float or complex value out of range raises OverflowError: every
    stored weight is finite, but their product need not be.
    """
    field = diagram.forest.field
    bits = _bits(diagram, assignment)
    head, n = diagram.head, len(bits)
    if head.level == 0:
        e, w = head.branch(bits[0])
        value = field.mul(diagram.factor, w)
    else:
        a_exit, a_w = _eval_grouping(field, head.a_connection, bits, 0, n // 2)
        b_exit, b_w = _eval_grouping(field, head.b_connections[a_exit - 1],
                                     bits, n // 2, n)
        e = head.b_return_tuples[a_exit - 1][b_exit - 1]
        value = field.mul(field.mul(diagram.factor, a_w), b_w)
    if field.is_zero(diagram.values[e - 1]):
        return field.zero
    if not field.is_finite(value):
        raise OverflowError(f"value {value!r} is out of float range")
    return value


def is_zero_diagram(diagram: Diagram) -> bool:
    """True when the diagram denotes the all-zero function.

    Structural test (canonical zero head, or a factor that is exactly
    the additive identity), deliberately not the rounding key: a global
    factor may sit below the key's resolution, as in deep Hadamard
    powers, without the function being zero.
    """
    forest = diagram.forest
    return (diagram.head is forest.zero_proto(diagram.level)
            or diagram.factor == forest.field.zero)


# -- traversal and size ---------------------------------------------------


def reachable_groupings(head: Grouping) -> list:
    """Distinct groupings reachable from ``head``, parents first.

    The order is the reverse of the depth-first postorder that visits
    the A-connection before the B-connections in middle order, so
    reversing the list gives children before parents.
    """
    order = []
    _postorder(head, set(), order)
    order.reverse()
    return order


def _postorder(g, seen, order):
    # Module-level, not a closure: a nested function that calls itself
    # is a reference cycle, which would keep ``seen`` and every
    # grouping in it alive until the cyclic collector runs.
    if g in seen:
        return
    seen.add(g)
    if g.level > 0:
        _postorder(g.a_connection, seen, order)
        for b in g.b_connections:
            _postorder(b, seen, order)
    order.append(g)


class SizeReport(NamedTuple):
    groupings: int
    vertices: int
    edges: int
    total: int


def size(diagram: Diagram) -> SizeReport:
    """Vertex/edge accounting over the distinct reachable groupings.

    Per grouping: one unit for the grouping itself; vertices are the
    entry vertex, the middle vertices, the exit vertices, and (for a
    fork) the branch point of the decision; edges are the two decision
    edges at level 0, and the A-connection edge, A-return edges,
    B-connection edges and B-return edges internally. One extra unit
    counts the free edge above the head. Exit-to-terminal links are
    not counted.
    """
    groupings = vertices = edges = 0
    for g in reachable_groupings(diagram.head):
        groupings += 1
        if g.level == 0:
            # Entry and exits, plus the branch point of a fork.
            vertices += 2 * g.number_of_exits
            edges += 2
        else:
            middles = len(g.b_connections)
            vertices += 1 + middles + g.number_of_exits
            edges += 1 + middles + middles
            edges += sum(len(rt) for rt in g.b_return_tuples)
    total = groupings + vertices + edges + 1
    return SizeReport(groupings, vertices, edges, total)


# -- validation ---------------------------------------------------------


def _path_kinds(field, g, memo):
    """Per exit: (has zero-weight path, has nonzero-weight path)."""
    got = memo.get(g)
    if got is not None:
        return got
    if g.level == 0:
        lz = field.is_zero(g.lw)
        rz = field.is_zero(g.rw)
        if g.number_of_exits == 2:
            kinds = ((lz, not lz), (rz, not rz))
        else:
            kinds = ((lz or rz, (not lz) or (not rz)),)
    else:
        a_kinds = _path_kinds(field, g.a_connection, memo)
        zero = [False] * g.number_of_exits
        nonzero = [False] * g.number_of_exits
        for m, (b, rt) in enumerate(zip(g.b_connections, g.b_return_tuples)):
            b_kinds = _path_kinds(field, b, memo)
            az, anz = a_kinds[m]
            for j, target in enumerate(rt):
                bz, bnz = b_kinds[j]
                if az or bz:
                    zero[target - 1] = True
                if anz and bnz:
                    nonzero[target - 1] = True
        kinds = tuple(zip(zero, nonzero))
    memo[g] = kinds
    return kinds


def validate(diagram: Diagram) -> list:
    """Audit structural invariants and weight constraints.

    Returns a list of human-readable violation strings; an empty list
    means the diagram is well formed. Construction through a Forest
    already rejects structural breakage, so on diagrams built normally
    this checks the weight conditions: level-0 normalization, the
    zero-path conditions on B-connections and terminal values, and
    canonical-zero uniqueness (factor 0 exactly on the zero diagram).
    """
    forest = diagram.forest
    field = forest.field
    out = []
    groupings = reachable_groupings(diagram.head)

    by_key = {}
    for g in groupings:
        if g.level == 0:
            key = _leaf_key(field, g.number_of_exits, g.lw, g.rw)
        else:
            key = _internal_key(g.level, g.a_connection, g.b_connections,
                                g.b_return_tuples)
        other = by_key.setdefault(key, g)
        if other is not g:
            out.append(f"duplicate structure not interned: {g!r}")

    kinds_memo = {}
    for g in groupings:
        if g.level == 0:
            if not (field.is_one(g.lw)
                    or (field.is_zero(g.lw) and field.is_one(g.rw))):
                out.append(f"level-0 weights not normalized: {g!r}")
            continue
        try:
            _check_return_tuples(g.b_connections, g.b_return_tuples)
        except StructureError as exc:
            out.append(f"{exc} in {g!r}")
        # Cross products carry duplicate middles until reduce merges
        # them, so interning allows them and only this audit rejects them.
        middles = zip(g.b_connections, g.b_return_tuples)
        if len(collapse_classes_leftmost(middles)[0]) != len(g.b_connections):
            out.append(f"duplicate (B-connection, return tuple) pair in {g!r}")
        if g.number_of_exits != max(t for rt in g.b_return_tuples
                                    for t in rt):
            out.append(f"exit count mismatch in {g!r}")
        if len(g.b_connections) != g.a_connection.number_of_exits:
            out.append(f"middle count mismatch in {g!r}")
        a_kinds = _path_kinds(field, g.a_connection, kinds_memo)
        zero_below = forest.zero_proto(g.level - 1)
        for m, b in enumerate(g.b_connections):
            az, anz = a_kinds[m]
            if az and not anz and b is not zero_below:
                out.append(
                    f"dead middle {m + 1} of {g!r} lacks the zero proto")
            if az and anz and g is not forest.zero_proto(g.level):
                out.append(
                    f"middle {m + 1} of {g!r} mixes zero and nonzero paths")

    head_kinds = _path_kinds(field, diagram.head, kinds_memo)
    for e, (_, has_nonzero) in enumerate(head_kinds):
        if not has_nonzero and not field.is_zero(diagram.values[e]):
            out.append(f"exit {e + 1} has no nonzero path but value 1")

    is_zero_triple = (diagram.head is forest.zero_proto(diagram.level)
                      and len(diagram.values) == 1
                      and field.is_zero(diagram.values[0]))
    # Compared exactly, not through the rounding key: a factor may be
    # legitimately tiny (Hadamard powers) without being the identity.
    if (diagram.factor == field.zero) != is_zero_triple:
        out.append("factor 0 must coincide with the canonical zero diagram")

    if len(diagram.values) != diagram.head.number_of_exits:
        out.append("value tuple length != head exits")
    vkeys = [field.key(v) for v in diagram.values]
    if len(set(vkeys)) != len(vkeys):
        out.append("value tuple entries not distinct")
    for v in diagram.values:
        if not (field.is_zero(v) or field.is_one(v)):
            out.append(f"value tuple entry {field.format(v)} not 0/1")

    return out
