"""Independent reference implementations the tests compare against.

Everything here works on flat Python data (lists of Fractions or
complex numbers, numpy arrays) and never calls into the diagram
algorithms being tested, except for `unfold`/`evaluate` to read results
back out.
"""

import bisect
import cmath
import functools
import math
import random
from fractions import Fraction

import numpy as np
from scipy import stats

from wcflobdd.construct import fold, unfold


# -- interleaved matrix encoding ----------------------------------------------
#
# A level-l matrix diagram reads 2^l variables in row/column interleaved
# order: x0 = row bit 0, x1 = col bit 0, x2 = row bit 1, and so on, with
# bit 0 the most significant.

def _cell_index(r, c, half):
    idx = 0
    for j in range(half):
        rb = (r >> (half - 1 - j)) & 1
        cb = (c >> (half - 1 - j)) & 1
        idx = (idx << 2) | (rb << 1) | cb
    return idx


@functools.lru_cache(maxsize=None)
def _cell_indices(half):
    """``_cell_index`` of every cell, rows-by-cols order, flattened."""
    side = 1 << half
    return tuple(_cell_index(r, c, half)
                 for r in range(side) for c in range(side))


def to_dense(d):
    """Rows-by-cols table of a matrix diagram's entries."""
    flat = unfold(d)
    half = 1 << (d.level - 1)
    side = 1 << half
    cells = [flat[i] for i in _cell_indices(half)]
    return [cells[r * side:(r + 1) * side] for r in range(side)]


def from_dense(forest, table):
    side = len(table)
    half = side.bit_length() - 1
    flat = [None] * (side * side)
    for i, v in zip(_cell_indices(half), (v for row in table for v in row)):
        flat[i] = v
    return fold(forest, flat)


def dense_matmul(zero, t1, t2):
    side = len(t1)
    return [[sum((t1[r][k] * t2[k][c] for k in range(side)), start=zero)
             for c in range(side)] for r in range(side)]


def dense_kron(t1, t2):
    s1, s2 = len(t1), len(t2)
    return [[t1[r1][c1] * t2[r2][c2]
             for c1 in range(s1) for c2 in range(s2)]
            for r1 in range(s1) for r2 in range(s2)]


# -- random inputs ------------------------------------------------------------

def random_table(rng, nvars, kind="rational", zero_rich=True):
    """Leaf array for a diagram over nvars variables."""
    out = []
    for _ in range(1 << nvars):
        if zero_rich and rng.random() < 0.4:
            out.append(Fraction(0) if kind == "rational" else 0j)
        elif kind == "rational":
            out.append(Fraction(rng.randint(-6, 6), rng.randint(1, 5)))
        else:
            out.append(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
    return out


def random_matrix_table(rng, level, kind="rational"):
    half = 1 << (level - 1)
    side = 1 << half
    flat = random_table(rng, 2 * half, kind)
    return [flat[r * side:(r + 1) * side] for r in range(side)]


# -- path oracles for sampling ------------------------------------------------

def proto_paths(g):
    """(exit, accumulated weight) per assignment, in assignment order."""
    if g.level == 0:
        if g.number_of_exits == 1:
            return [(1, g.lw), (1, g.rw)]
        return [(1, g.lw), (2, g.rw)]
    acc = []
    for a_exit, aw in proto_paths(g.a_connection):
        rt = g.b_return_tuples[a_exit - 1]
        for b_exit, bw in proto_paths(g.b_connections[a_exit - 1]):
            acc.append((rt[b_exit - 1], aw * bw))
    return acc


def proto_exit(g, bits):
    """Which exit the matched path for ``bits`` leaves through."""
    if g.level == 0:
        return 1 if g.number_of_exits == 1 else 1 + bits[0]
    half = len(bits) // 2
    m = proto_exit(g.a_connection, bits[:half])
    k = proto_exit(g.b_connections[m - 1], bits[half:])
    return g.b_return_tuples[m - 1][k - 1]


def analytic_prob(forest, g, i, bits):
    """Chance the sampler emits ``bits`` when aimed at exit i of g.

    Follows the sampler's own recursion tree (middle choice, then the
    two halves) but computes each step's probability analytically, so
    comparing it with path-weight ratios checks the sampler without
    drawing anything. Relies on compute_weights, which the sampling
    tests verify against proto_paths brute force first.
    """
    from wcflobdd.sampling import compute_weights

    if g.level == 0:
        if g.number_of_exits == 1:
            return (g.lw if bits[0] == 0 else g.rw) / (g.lw + g.rw)
        return Fraction(1 if bits[0] == (i - 1) else 0)
    half = len(bits) // 2
    m = proto_exit(g.a_connection, bits[:half])
    rt = g.b_return_tuples[m - 1]
    k = proto_exit(g.b_connections[m - 1], bits[half:])
    if rt[k - 1] != i:
        return Fraction(0)
    wa = compute_weights(forest, g.a_connection)
    wb = compute_weights(forest, g.b_connections[m - 1])
    p_m = wa[m - 1] * wb[k - 1] / compute_weights(forest, g)[i - 1]
    return (p_m * analytic_prob(forest, g.a_connection, m, bits[:half])
            * analytic_prob(forest, g.b_connections[m - 1], k, bits[half:]))


def reference_walk(forest, g, i, rng, memo):
    """Bits of one path from ``g``'s entry to its exit i, drawn from rng.

    The sampler's recursion with one ``rng.random()`` per internal
    grouping and per don't-care leaf, even where the exit has one draw,
    so it fixes the seeded stream the sampler must reproduce. Each
    exit's draws and running totals are rebuilt here from
    compute_weights of the two halves and the grouping structure, and
    kept in ``memo`` (a dict the caller owns) by grouping and exit.
    """
    draws, cumulative = _reference_distribution(forest, g, i, memo)
    if g.level == 0:
        # A fork's exit fixes the bit: nothing to draw.
        return draws[0] if len(draws) == 1 else \
            _reference_pick(draws, cumulative, rng)
    if cumulative[-1] == forest.field.zero:
        raise ValueError("total path weight is zero")
    m, k = _reference_pick(draws, cumulative, rng)
    return (reference_walk(forest, g.a_connection, m, rng, memo) +
            reference_walk(forest, g.b_connections[m - 1], k, rng, memo))


def _reference_distribution(forest, g, i, memo):
    """(draws, running totals) reaching exit i of g, memoized."""
    from wcflobdd.sampling import compute_weights

    key = (id(g), i)
    hit = memo.get(key)
    if hit is not None:
        return hit
    field = forest.field
    if g.level == 0:
        if g.number_of_exits == 2:
            hit = ("01"[i - 1],), [g.lw if i == 1 else g.rw]
        else:
            hit = ("0", "1"), [g.lw, field.add(g.lw, g.rw)]
    else:
        wa = compute_weights(forest, g.a_connection)
        draws, cumulative, running = [], [], field.zero
        for j, (b, rt) in enumerate(zip(g.b_connections, g.b_return_tuples)):
            for k, total_b in enumerate(compute_weights(forest, b)):
                if rt[k] == i:
                    running = field.add(running, field.mul(wa[j], total_b))
                    draws.append((j + 1, k + 1))
                    cumulative.append(running)
        hit = draws, cumulative
    memo[key] = hit
    return hit


def _reference_pick(draws, cumulative, rng):
    """The first draw whose running total exceeds a uniform point."""
    point = rng.random() * cumulative[-1]
    return draws[min(bisect.bisect_right(cumulative, point), len(draws) - 1)]


def chi_square_p(counts, probs, shots):
    """p-value that ``counts`` was drawn from ``probs`` (label -> prob)."""
    support = sorted(k for k, p in probs.items() if p > 0)
    assert set(counts) <= set(support), (set(counts), support)
    observed = [counts.get(k, 0) for k in support]
    expected = [shots * probs[k] for k in support]
    return float(stats.chisquare(observed, expected).pvalue)


# -- dense quantum simulator ---------------------------------------------------

H1 = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
X1 = np.array([[0, 1], [1, 0]], dtype=complex)
I1 = np.eye(2, dtype=complex)


def _phase1(theta):
    return np.array([[1, 0], [0, cmath.exp(1j * theta)]], dtype=complex)


def dense_gate(gate, p):
    """The p-qubit matrix of one gate tuple, qubit 0 as the MSB."""
    kind = gate[0]
    if kind in ("H", "X"):
        single = H1 if kind == "H" else X1
        mats = [single if q == gate[1] else I1 for q in range(p)]
    elif kind == "PHASE":
        mats = [_phase1(gate[1]) if q == gate[2] else I1 for q in range(p)]
    else:
        if kind == "CNOT":
            a, b, u = gate[1], gate[2], X1
        else:
            a, b, u = gate[2], gate[3], _phase1(gate[1])
        p0 = np.array([[1, 0], [0, 0]], dtype=complex)
        p1 = np.array([[0, 0], [0, 1]], dtype=complex)
        t0 = t1 = np.ones((1, 1), dtype=complex)
        for q in range(p):
            t0 = np.kron(t0, p0 if q == a else I1)
            t1 = np.kron(t1, p1 if q == a else u if q == b else I1)
        return t0 + t1
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def dense_run(circuit):
    """Statevector of the circuit, padding qubits dropped."""
    p = 1
    while p < circuit.n:
        p <<= 1
    v = np.zeros(1 << p, dtype=complex)
    v[0] = 1
    for gate in circuit.gates:
        v = dense_gate(gate, p) @ v
    step = 1 << (p - circuit.n)
    return v[::step] if p != circuit.n else v


def seeded(n):
    return random.Random(n)
