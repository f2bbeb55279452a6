"""Path-weight totals and proportional assignment sampling.

One table per grouping, built bottom-up and memoized in the forest's
``sample_cdf`` table, holds for each exit the draws that reach it and
their running totals: a bit at level 0, and at an internal grouping a
(middle, B-exit) pair weighted by (weight into the middle) * (weight
from the middle to that B-exit).  An exit's last running total is its
sum over matched paths (compute_weights).  A path is sampled without
unfolding: each grouping picks a draw in proportion to its weight, then
the two halves are sampled recursively and concatenated.

Leaf weights are checked to be nonnegative reals before any sum is
formed, so no sum can cancel.  Quantum states carry signed or complex
amplitudes, so measurement goes through measure_view, which squares
every weight's magnitude; a matched path's weight is a pure product,
hence the view's path weight is exactly |amplitude|^2.
"""

import random
from bisect import bisect_right

from .core import Diagram, Forest, Grouping

__all__ = [
    "SampleContext",
    "compute_weights",
    "measure_forest",
    "measure_view",
    "sample_assignment",
]


class SampleContext:
    """Deterministic randomness for sampling; same seed, same stream."""

    __slots__ = ("seed", "source")

    def __init__(self, seed: int):
        self.seed = seed
        self.source = random.Random(seed)


def compute_weights(forest: Forest, grouping: Grouping):
    """Per-exit sums of matched-path weights.

    Raises ValueError on a negative or complex weight, where a sum
    could cancel.
    """
    return tuple(cumulative[-1]
                 for _, cumulative in _distributions(forest, grouping))


def measure_forest(forest: Forest) -> Forest:
    """The companion forest holding squared-magnitude views."""
    cache = forest.cache("measure_view")
    vf = cache.get("forest")
    if vf is None:
        measure = forest.field.measure_field()
        vf = forest if measure is forest.field else Forest(measure)
        cache["forest"] = vf
    return vf


def measure_view(diagram: Diagram) -> Diagram:
    """The diagram with every weight replaced by its squared magnitude.

    The result lives in measure_forest(diagram.forest) and shares the
    source's shape but not its normalization, so it is interned without
    a canonicity claim.  Its path weights are the squared magnitudes of
    the source's path weights, which is what measurement samples from.
    """
    forest = diagram.forest
    cache = forest.cache("measure_view")
    key = ("diagram", id(diagram))
    hit = cache.get(key)
    if hit is not None:
        return hit
    vf = measure_forest(forest)
    sq = forest.field.abs2

    def view(g):
        got = cache.get(id(g))
        if got is not None:
            return got
        if g.level == 0:
            out = vf.leaf(sq(g.lw), sq(g.rw), g.number_of_exits)
        else:
            out = vf.internal(view(g.a_connection),
                              tuple(view(b) for b in g.b_connections),
                              g.b_return_tuples)
        cache[id(g)] = out
        return out

    result = vf.diagram(sq(diagram.factor), view(diagram.head),
                        tuple(sq(v) for v in diagram.values))
    cache[key] = result
    return result


def sample_assignment(diagram: Diagram, ctx: SampleContext) -> str:
    """One assignment drawn in proportion to matched-path weights.

    Only paths reaching the unit-valued terminal are considered.  The
    bit-string is in variable order (leftmost character is the first
    variable).  Weights must be nonnegative reals; raises ValueError
    when the eligible paths have zero total weight.
    """
    forest = diagram.forest
    field = forest.field
    one_key = field._one_key
    target = None
    for i, v in enumerate(diagram.values):
        if field.key(v) == one_key:
            target = i + 1
            break
    if target is None or diagram.factor == field.zero:
        raise ValueError("total path weight is zero")
    _require_nonneg(diagram.factor)
    total = compute_weights(forest, diagram.head)[target - 1]
    # Exact comparison: branch probabilities are ratios, so a total far
    # below the rounding key's resolution still defines a distribution.
    if total == field.zero:
        raise ValueError("total path weight is zero")
    # compute_weights has tabled every grouping below the head.
    return _sample(forest.cache("sample_cdf"), field.zero, diagram.head,
                   target, ctx.source)


def _require_nonneg(w):
    if isinstance(w, complex):
        raise ValueError("sampling needs a real-weight view; "
                         "use measure_view first")
    if w < 0:
        raise ValueError("sampling needs nonnegative weights; "
                         "use measure_view first")


def _distributions(forest, g):
    """Per exit of ``g``: (draws reaching it, their running totals).

    Internal draws come in middle order, then B-exit order.
    """
    cache = forest.cache("sample_cdf")
    hit = cache.get(id(g))
    if hit is not None:
        return hit
    field = forest.field
    if g.level == 0:
        _require_nonneg(g.lw)
        _require_nonneg(g.rw)
        if g.number_of_exits == 2:
            result = ((("0",), (g.lw,)), (("1",), (g.rw,)))
        else:
            result = ((("0", "1"), (g.lw, field.add(g.lw, g.rw))),)
    else:
        wa = compute_weights(forest, g.a_connection)
        draws = [[] for _ in range(g.number_of_exits)]
        cumulative = [[] for _ in range(g.number_of_exits)]
        running = [field.zero] * g.number_of_exits
        for j, (b, rt) in enumerate(zip(g.b_connections, g.b_return_tuples)):
            for k, total_b in enumerate(compute_weights(forest, b)):
                e = rt[k] - 1
                running[e] = field.add(running[e], field.mul(wa[j], total_b))
                draws[e].append((j + 1, k + 1))
                cumulative[e].append(running[e])
        result = tuple(zip(draws, cumulative))
    cache[id(g)] = result
    return result


def _sample(table, zero, g, i, rng):
    """Bits of one path from ``g``'s entry to its exit ``i``."""
    draws, cumulative = table[id(g)][i - 1]
    if g.level == 0:
        # A fork's exit fixes the bit: nothing to draw.
        return draws[0] if len(draws) == 1 else _pick(draws, cumulative, rng)
    if cumulative[-1] == zero:
        raise ValueError("total path weight is zero")
    m, k = _pick(draws, cumulative, rng)
    return (_sample(table, zero, g.a_connection, m, rng) +
            _sample(table, zero, g.b_connections[m - 1], k, rng))


def _pick(draws, cumulative, rng):
    """The first draw whose running total exceeds a uniform point."""
    point = rng.random() * cumulative[-1]
    return draws[min(bisect_right(cumulative, point), len(draws) - 1)]
