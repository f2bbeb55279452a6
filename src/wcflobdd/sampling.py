"""Path-weight totals and proportional assignment sampling.

compute_weights aggregates, per exit of a grouping, the sum of weights
over all matched paths from the entry vertex to that exit.  With those
totals a path can be sampled without unfolding: at each grouping the
middle vertex is drawn in proportion to (weight into the middle) *
(weight from the middle to the target exit), then the two halves are
sampled recursively and concatenated.

Sampling presumes nonnegative real weights.  Quantum states carry
signed or complex amplitudes, so measurement goes through measure_view,
which squares every weight's magnitude; a matched path's weight is a
pure product, hence the view's path weight is exactly |amplitude|^2.
"""

import random

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
    """Per-exit sums of matched-path weights, memoized per grouping."""
    field = forest.field
    cache = forest.cache("path_weights")
    hit = cache.get(id(grouping))
    if hit is not None:
        return hit
    if grouping.level == 0:
        if grouping.number_of_exits == 1:
            result = (field.add(grouping.lw, grouping.rw),)
        else:
            result = (grouping.lw, grouping.rw)
    else:
        wa = compute_weights(forest, grouping.a_connection)
        totals = [field.zero] * grouping.number_of_exits
        for i, (b, rt) in enumerate(zip(grouping.b_connections,
                                        grouping.b_return_tuples)):
            wb = compute_weights(forest, b)
            for j, k in enumerate(rt):
                totals[k - 1] = field.add(totals[k - 1],
                                          field.mul(wa[i], wb[j]))
        result = tuple(totals)
    cache[id(grouping)] = result
    return result


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
    one_key = field.key(field.one)
    target = None
    for i, v in enumerate(diagram.values):
        if field.key(v) == one_key:
            target = i + 1
            break
    if target is None or diagram.factor == field.zero:
        raise ValueError("total path weight is zero")
    _require_nonneg(diagram.factor)
    _check_weights(forest, diagram.head)
    totals = compute_weights(forest, diagram.head)
    total = totals[target - 1]
    _require_nonneg(total)
    # Exact comparison: branch probabilities are ratios, so a total far
    # below the rounding key's resolution still defines a distribution.
    if total == field.zero:
        raise ValueError("total path weight is zero")
    return _sample(forest, diagram.head, target, ctx.source)


def _require_nonneg(w):
    if isinstance(w, complex):
        raise ValueError("sampling needs a real-weight view; "
                         "use measure_view first")
    if w < 0:
        raise ValueError("sampling needs nonnegative weights; "
                         "use measure_view first")


def _check_weights(forest, grouping):
    """Reject any negative edge weight before sampling starts.

    Negative weights do not just skew the draw, they can cancel inside
    compute_weights and silently hide whole subtrees, so the precondition
    is enforced up front.  Memoized per grouping.
    """
    cache = forest.cache("nonneg_ok")
    if id(grouping) in cache:
        return
    if grouping.level == 0:
        _require_nonneg(grouping.lw)
        _require_nonneg(grouping.rw)
    else:
        _check_weights(forest, grouping.a_connection)
        for b in grouping.b_connections:
            _check_weights(forest, b)
    cache[id(grouping)] = True


def _middle_distribution(forest, g, i):
    """Cumulative weights of the middle vertices that can reach exit i."""
    cache = forest.cache("sample_cdf")
    key = (id(g), i)
    hit = cache.get(key)
    if hit is not None:
        return hit
    field = forest.field
    wa = compute_weights(forest, g.a_connection)
    choices = []
    cumulative = []
    running = field.zero
    for j, rt in enumerate(g.b_return_tuples):
        if i not in rt:
            continue
        k = rt.index(i) + 1
        wb = compute_weights(forest, g.b_connections[j])
        w = field.mul(wa[j], wb[k - 1])
        _require_nonneg(w)
        choices.append((j + 1, k))
        running = field.add(running, w)
        cumulative.append(running)
    result = (choices, cumulative, running)
    cache[key] = result
    return result


def _sample(forest, g, i, rng):
    if g.level == 0:
        if g.number_of_exits == 1:
            _require_nonneg(g.lw)
            _require_nonneg(g.rw)
            total = forest.field.add(g.lw, g.rw)
            return "0" if rng.random() * total < g.lw else "1"
        return "0" if i == 1 else "1"
    choices, cumulative, total = _middle_distribution(forest, g, i)
    if total == forest.field.zero:
        raise ValueError("total path weight is zero")
    point = rng.random() * total
    pick = len(choices) - 1
    for idx, c in enumerate(cumulative):
        if point < c:
            pick = idx
            break
    m, k = choices[pick]
    return (_sample(forest, g.a_connection, m, rng) +
            _sample(forest, g.b_connections[m - 1], k, rng))
