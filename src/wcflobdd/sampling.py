"""Path-weight totals and proportional assignment sampling.

The forest's ``sample_cdf`` table holds, per grouping, one row per exit,
built bottom-up.  A row holds its exit's total over matched paths
(compute_weights), the total's exponent, the forced flag and its plan.
It is built from the draws that reach its exit and their running
totals.  At level 0 a draw is its bit.  At an internal grouping a draw
is a (middle, B-exit) pair, held as direct references to the
A-connection's row for that middle and the B-connection's row for that
B-exit, and weighted by the product of those rows' totals.

A path is sampled without unfolding: a row picks a draw in proportion
to its weight with one ``random()`` call and one bisection, then walks
the draw's child rows, A first.  Each row keeps this walk as a *plan*
of steps (bits, skip, choice): append ``bits``, ``getrandbits(skip)``
and, unless ``choice`` is None, pick a draw and run its rows' plans.
A choice holds the draws and the float bounds of their running totals.
A row whose pick is the same at every point ``random()`` can give, or
that is *forced* (one draw, a nonzero total, forced child rows), makes
no choice: its plan skips one call, then runs the draw's bit or child
plans, joined up to the next choice.  A level-0 fork's rows are forced
unless their weight is 0, and skip nothing.  On the Mersenne Twister
``getrandbits(64 * k)`` takes the words of k ``random()`` calls, so
each seeded draw and the generator state after it are those of the
full walk.  ``sample_cdf`` also holds the row each diagram samples.

Float rows scale their running totals by 2^-``exp`` so that the total
lies in [0.5, 1), and store ``exp``: a term is the product of the child
rows' scaled totals with their exponents added, and the terms of an
exit are aligned to the largest exponent before they are summed.  So a
grouping with more than 2^1024 paths, or totals below the smallest
float, still samples in proportion.  Scaling by a power of two is
exact when nothing overflows or underflows, so it changes no draw of a
table whose plain totals stay in range.  Rational rows keep exact
totals and ``exp`` at 0; their bounds are the smallest floats at or
above the running totals: for a float point p, a total c exceeds p
exactly when its ceiling does, so the walk bisects floats and draws as
the exact totals would.  A walk that reaches a total beyond the float
range raises OverflowError; compute_weights still returns it exactly.

Leaf weights are checked to be nonnegative reals before any sum is
formed, so no sum can cancel.  Quantum states carry signed or complex
amplitudes, so measurement goes through measure_view, which squares
every weight's magnitude; a matched path's weight is a pure product,
hence the view's path weight is exactly |amplitude|^2.
"""

import math
import random
from bisect import bisect_right

from .core import Diagram, Forest, Grouping, _checked_diagram

__all__ = [
    "SampleContext",
    "compute_weights",
    "measure_view",
    "sample_assignment",
]


class SampleContext:
    """Deterministic randomness for sampling; same seed, same stream."""

    __slots__ = ("source",)

    def __init__(self, seed: int):
        self.source = random.Random(seed)


def compute_weights(forest: Forest, grouping: Grouping):
    """Per-exit sums of matched-path weights.

    On the float instance a total beyond the float range reads as
    ``inf`` and one below it as 0.0; sampling uses the scaled totals
    and is not affected.  Raises ValueError on a negative or complex
    weight, where a sum could cancel.
    """
    return tuple(_plain(row) for row in _rows(forest, grouping))


def measure_view(diagram: Diagram) -> Diagram:
    """The diagram with every weight replaced by its squared magnitude.

    The result lives in diagram.forest.measure_forest and shares the
    source's shape but not its normalization, so it is interned without
    a canonicity claim.  Its path weights are the squared magnitudes of
    the source's path weights, which is what measurement samples from.
    Raises OverflowError when the squared factor or a squared weight
    leaves the float range; measurement itself samples the view of the
    head only.
    """
    forest = diagram.forest
    cache = forest.cache("measure_view")
    hit = cache.get(diagram)
    if hit is None:
        sq = forest.field.abs2
        hit = cache[diagram] = _checked_diagram(
            forest.measure_forest, sq(diagram.factor),
            _view(forest, diagram.head), tuple(sq(v) for v in diagram.values))
    return hit


def _view(forest, g):
    """measure_view of one grouping, tabled in ``measure_view``."""
    cache = forest.cache("measure_view")
    out = cache.get(g)
    if out is None:
        vf = forest.measure_forest
        if g.level == 0:
            sq = forest.field.abs2
            out = vf.leaf(sq(g.lw), sq(g.rw), g.number_of_exits)
        else:
            out = vf.internal(_view(forest, g.a_connection),
                              tuple(_view(forest, b) for b in g.b_connections),
                              g.b_return_tuples)
        cache[g] = out
    return out


def sample_assignment(diagram: Diagram, ctx: SampleContext) -> str:
    """One assignment drawn in proportion to matched-path weights.

    Only paths reaching the unit-valued terminal are considered.  The
    bit-string is in variable order (leftmost character is the first
    variable).  Weights must be nonnegative reals; raises ValueError
    when the eligible paths have zero total weight.
    """
    return _draw(_target_row(diagram), ctx.source)


class _Row:
    """One exit of one grouping; see the module docstring."""

    __slots__ = ("total", "exp", "forced", "plan")

    def __init__(self, total, exp, forced, plan):
        self.total = total
        self.exp = exp
        self.forced = forced
        self.plan = plan


def _target_row(diagram, view=False):
    """The row of the head exit leading to the unit-valued terminal.

    With ``view``, the row of that exit in measure_view(diagram), for
    which the diagram's own factor is checked: the squared factor only
    scales every path alike, and on a wide uniform state it underflows.
    """
    forest = diagram.forest
    rows_forest = forest.measure_forest if view else forest
    if (row := rows_forest.cache("sample_cdf").get((diagram, view))):
        return row
    field = forest.field
    target = next((i for i, v in enumerate(diagram.values)
                   if field.key(v) == field._one_key), None)
    if target is None or diagram.factor == field.zero:
        raise ValueError("total path weight is zero")
    if not view:
        field.check_sampleable(diagram.factor)
    head = _view(forest, diagram.head) if view else diagram.head
    row = _rows(rows_forest, head)[target]
    # Exact comparison: branch probabilities are ratios, so a total far
    # below the rounding key's resolution still defines a distribution.
    if row.total == rows_forest.field.zero:
        raise ValueError("total path weight is zero")
    rows_forest.cache("sample_cdf")[diagram, view] = row
    return row


def _plain(row):
    """A row's total as a plain value."""
    if not row.exp:
        return row.total
    try:
        return math.ldexp(row.total, row.exp)
    except OverflowError:
        return math.inf


def _rows(forest, g):
    """Rows of ``g``'s exits, in exit order, tabled in ``sample_cdf``.

    Internal draws come in middle order, then B-exit order.
    """
    cache = forest.cache("sample_cdf")
    hit = cache.get(g)
    if hit is not None:
        return hit
    field = forest.field
    if g.level == 0:
        field.check_sampleable(g.lw)
        field.check_sampleable(g.rw)
        if g.number_of_exits == 2:
            rows = (_row(field, ("0",), [g.lw], 0, True),
                    _row(field, ("1",), [g.rw], 0, True))
        else:
            rows = (_row(field, ("0", "1"), [g.lw, field.add(g.lw, g.rw)],
                         0, False),)
        cache[g] = rows
        return rows
    draws = [[] for _ in range(g.number_of_exits)]
    terms = [[] for _ in range(g.number_of_exits)]
    for a, b, rt in zip(_rows(forest, g.a_connection), g.b_connections,
                        g.b_return_tuples):
        for e, row_b in zip(rt, _rows(forest, b)):
            draws[e - 1].append((a, row_b))
            terms[e - 1].append((field.mul(a.total, row_b.total),
                                 a.exp + row_b.exp))
    rows = []
    for exit_draws, exit_terms in zip(draws, terms):
        # Align to the largest exponent of a term that has weight.
        top = max((x for w, x in exit_terms if w), default=0)
        running = field.zero
        cumulative = []
        for w, x in exit_terms:
            running = field.add(running,
                                w if x == top else math.ldexp(w, x - top))
            cumulative.append(running)
        rows.append(_row(field, exit_draws, cumulative, top,
                         len(exit_draws) == 1
                         and all(r.forced for r in exit_draws[0])))
    rows = cache[g] = tuple(rows)
    return rows


def _row(field, draws, cumulative, exp, forced):
    """The row of ``draws`` with running totals ``cumulative``: bounds
    are the float totals renormalized or the exact totals' ceilings, None
    past the float range, and () at a zero total, which is not forced."""
    if isinstance(field.zero, float):
        shift = math.frexp(cumulative[-1])[1]
        if shift:
            cumulative = [math.ldexp(c, -shift) for c in cumulative]
            exp += shift
        bounds, scale = cumulative, cumulative[-1]
    else:
        try:
            bounds = [_ceiling(c) for c in cumulative]
            scale = float(cumulative[-1])
        except (OverflowError, TypeError):  # too large, or a symbolic 2^e
            bounds = scale = None
    total = cumulative[-1]
    if total == field.zero:
        bounds, forced = (), False
    return _Row(total, exp, forced, _plan(draws, bounds, scale, forced))


def _ceiling(c):
    """The smallest float at or above the exact value ``c``."""
    f = float(c)
    return f if f >= c else math.nextafter(f, math.inf)


def _plan(draws, bounds, scale, forced):
    """The plan of a row, once the child rows of its draws have theirs."""
    pick = 0
    hi = len(bounds) - 1 if bounds else 0
    choose = (("", 0, (bounds, scale, draws, hi)),)
    if not forced:
        if not bounds:
            return choose
        # random() gives k * 2^-53 for 0 <= k < 2^53 and the pick grows
        # with the point, so the same pick at both ends is certain.
        pick = bisect_right(bounds, 0.0, 0, hi)
        if pick != bisect_right(bounds, (1 - 2 ** -53) * scale, 0, hi):
            return choose
    draw = draws[pick]
    if type(draw) is str:  # a fork's row skips nothing
        return ((draw, 0 if forced else 64, None),)
    bits, skip, plan = "", 64, []
    for text, more, choice in draw[0].plan + draw[1].plan:
        bits += text
        skip += more
        if choice is not None:
            plan.append((bits, skip, choice))
            bits, skip = "", 0
    plan.append((bits, skip, None))
    return tuple(plan)


def _draw(row, rng):
    """Bits of one path through ``row``, as a string."""
    out = []
    _walk(row.plan, rng, out)
    return "".join(out)


def _walk(plan, rng, out):
    """Append the bits of one run of ``plan`` to ``out``."""
    for bits, skip, choice in plan:
        if bits:
            out.append(bits)
        if skip:
            rng.getrandbits(skip)
        if choice is None:
            return
        bounds, scale, draws, hi = choice
        if not bounds:
            if bounds is None:
                raise OverflowError("a path-weight total is beyond the "
                                    "float range and cannot be sampled")
            raise ValueError("total path weight is zero")
        # The first draw whose running total exceeds a uniform point,
        # which scales by the float total as random() * total does.
        draw = draws[bisect_right(bounds, rng.random() * scale, 0, hi)]
        if type(draw) is str:
            out.append(draw)
        else:
            _walk(draw[0].plan, rng, out)
            _walk(draw[1].plan, rng, out)
