"""Reference computations the benchmark checks program outputs against.

Everything here is plain Python on flat data (lists of Fractions,
complex numbers and bit strings). Nothing in this module imports or
calls ``wcflobdd``, so a fault in the program cannot leak into the
values it is compared with.
"""

import cmath
import math
from fractions import Fraction

# Complex results must match the dense reference to this many units,
# relative to the reference value once it exceeds 1 (as in the test
# suite's oracle comparisons).
COMPLEX_TOLERANCE = 1e-9

# Relative tolerance for closed-form amplitudes and Hadamard cells. The
# program computes them with ordinary float arithmetic through up to a
# thousand gates; QFT-48 is off by about 3e-10 today.
CLOSED_FORM_TOLERANCE = 1e-6

# A sampling check fails when the chi-square p-value falls below this.
# It is small enough that a correct sampler fails about once in a
# billion checks, and large enough that one outcome drawn 64 times out
# of 64 from a fair two-way split (p about 2e-15) fails every time.
CHI_SQUARE_ALPHA = 1e-9

# Categories expected to receive fewer draws than this are pooled before
# the chi-square test, whose approximation breaks down on tiny counts.
MIN_EXPECTED = 5.0


# -- random operands ------------------------------------------------------


def random_table(rng, nvars, kind):
    """Zero-rich leaf array over ``nvars`` variables.

    Same draw as the test suite's oracle: 40% zeros, rationals p/q with
    p in [-6, 6] and q in [1, 5], complex parts uniform in [-2, 2].
    """
    out = []
    for _ in range(1 << nvars):
        if rng.random() < 0.4:
            out.append(Fraction(0) if kind == "rational" else 0j)
        elif kind == "rational":
            out.append(Fraction(rng.randint(-6, 6), rng.randint(1, 5)))
        else:
            out.append(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
    return out


def nonneg_table(rng, nvars, kind):
    """Zero-rich nonnegative leaf array, for sampling, never all zero."""
    out = []
    for _ in range(1 << nvars):
        if rng.random() < 0.4:
            out.append(Fraction(0) if kind == "rational" else 0.0)
        elif kind == "rational":
            out.append(Fraction(rng.randint(1, 6), rng.randint(1, 5)))
        else:
            out.append(rng.uniform(0.1, 2.0))
    out[rng.randrange(len(out))] = Fraction(1) if kind == "rational" else 1.0
    return out


def random_bits(rng, n):
    return "".join(rng.choice("01") for _ in range(n))


# -- dense arithmetic ------------------------------------------------------
#
# A level-l matrix diagram reads 2^l variables with row and column bits
# interleaved (row bit 0, column bit 0, row bit 1, ...), bit 0 the most
# significant; the flat leaf array is in assignment order.


def _cell_index(r, c, half):
    idx = 0
    for j in range(half):
        rb = (r >> (half - 1 - j)) & 1
        cb = (c >> (half - 1 - j)) & 1
        idx = (idx << 2) | (rb << 1) | cb
    return idx


def flat_to_matrix(flat):
    nvars = len(flat).bit_length() - 1
    half = nvars // 2
    side = 1 << half
    return [[flat[_cell_index(r, c, half)] for c in range(side)]
            for r in range(side)]


def matrix_to_flat(table):
    side = len(table)
    half = side.bit_length() - 1
    flat = [None] * (side * side)
    for r in range(side):
        for c in range(side):
            flat[_cell_index(r, c, half)] = table[r][c]
    return flat


def dense_result(opname, a, b):
    """Flat leaf array of ``opname`` applied to flat operands a and b."""
    if opname == "multiply":
        return [x * y for x, y in zip(a, b)]
    if opname == "add":
        return [x + y for x, y in zip(a, b)]
    if opname == "kronecker":
        # The first operand's variables come first, so the flat table of
        # the product is the outer product in that order; under the
        # interleaved matrix order it is the block Kronecker product.
        return [x * y for x in a for y in b]
    if opname == "matrix_multiply":
        ma, mb = flat_to_matrix(a), flat_to_matrix(b)
        side = len(ma)
        zero = a[0] * 0
        prod = [[sum((ma[r][k] * mb[k][c] for k in range(side)), zero)
                 for c in range(side)] for r in range(side)]
        return matrix_to_flat(prod)
    raise ValueError(f"unknown operation {opname!r}")


def tables_agree(got, want, kind):
    """Exact for rationals, to COMPLEX_TOLERANCE for complex values."""
    if len(got) != len(want):
        return False
    if kind == "rational":
        return all(g == w for g, w in zip(got, want))
    return all(abs(g - w) <= COMPLEX_TOLERANCE * max(1.0, abs(w))
               for g, w in zip(got, want))


def close(got, want):
    """Relative agreement with a nonzero closed-form value."""
    return abs(got - want) <= CLOSED_FORM_TOLERANCE * abs(want)


def close_or_zero(got, want):
    if want == 0:
        return abs(got) <= COMPLEX_TOLERANCE
    return close(got, want)


# -- Hadamard closed forms --------------------------------------------------


def matrix_assignment(r, c, m):
    """Interleaved assignment bits of cell (r, c) of a 2^m x 2^m matrix."""
    bits = []
    for j in range(m):
        bits.append((r >> (m - 1 - j)) & 1)
        bits.append((c >> (m - 1 - j)) & 1)
    return bits


def hadamard_plus_not_cell(r, c, m):
    """(H + X)[r][c] = (-1)^popcount(r & c) 2^(-m/2) + [c = NOT r]."""
    h = (-1.0) ** bin(r & c).count("1") * 2.0 ** (-m / 2)
    return h + (1.0 if c == r ^ ((1 << m) - 1) else 0.0)


# -- circuit amplitudes ------------------------------------------------------


def ghz_amplitude(label):
    n = len(label)
    if label in ("0" * n, "1" * n):
        return 2 ** -0.5
    return 0.0


def hidden_string_amplitude(label, hidden):
    """BV and balanced DJ end in |hidden> (x) |->."""
    if label[:-1] != hidden:
        return 0.0
    return 2 ** -0.5 if label[-1] == "0" else -(2 ** -0.5)


def qft_amplitude(label, basis):
    """e^(2 pi i ((b y) mod 2^n) / 2^n) / sqrt(2^n) for output label y.

    The product is reduced modulo 2^n in integers; a float division
    before the reduction loses the phase past about 26 qubits.
    """
    n = len(label)
    y = int(label, 2)
    phase = ((basis * y) % (1 << n)) / (1 << n)
    return cmath.exp(2j * math.pi * phase) / math.sqrt(2.0 ** n)


# -- sampling --------------------------------------------------------------


class Distribution:
    """Exact distribution of drawn labels, tested through prefix buckets.

    ``prob(label)`` gives a label's exact probability (support test);
    ``buckets`` maps each label prefix of ``prefix_len`` characters to
    its total probability (chi-square test). With ``prefix_len`` equal
    to the label length the buckets are the labels themselves.
    """

    def __init__(self, prob, prefix_len, buckets):
        self.prob = prob
        self.prefix_len = prefix_len
        self.buckets = buckets


def table_distribution(table, prefix_len):
    """Distribution of assignments drawn in proportion to leaf values."""
    total = sum(table)
    nvars = len(table).bit_length() - 1
    probs = {format(i, f"0{nvars}b"): v / total
             for i, v in enumerate(table) if v}
    buckets = {}
    for label, p in probs.items():
        key = label[:prefix_len]
        buckets[key] = buckets.get(key, 0) + p
    return Distribution(lambda s: probs.get(s, 0), prefix_len,
                        {k: float(p) for k, p in buckets.items()})


def point_distribution(probs):
    """Distribution over an explicit label -> probability map."""
    width = len(next(iter(probs)))
    return Distribution(lambda s: probs.get(s, 0), width, dict(probs))


def draws_agree(counts, dist):
    """Every label in the support, and a chi-square test that passes."""
    if any(not dist.prob(label) for label in counts):
        return False
    observed = {}
    for label, k in counts.items():
        key = label[:dist.prefix_len]
        observed[key] = observed.get(key, 0) + k
    return chi_square_pvalue(observed, dist.buckets) >= CHI_SQUARE_ALPHA


def chi_square_pvalue(observed, probs):
    """p-value of observed counts against category probabilities.

    Categories expected to get fewer than MIN_EXPECTED draws are pooled
    (smallest first) until the pool is large enough.
    """
    shots = sum(observed.values())
    cats = sorted(probs, key=lambda k: (probs[k], k))
    expected = [shots * probs[k] for k in cats]
    counts = [observed.get(k, 0) for k in cats]
    pooled_e, pooled_o = [], []
    acc_e = acc_o = 0.0
    for e, o in zip(expected, counts):
        acc_e += e
        acc_o += o
        if acc_e >= MIN_EXPECTED:
            pooled_e.append(acc_e)
            pooled_o.append(acc_o)
            acc_e = acc_o = 0.0
    if acc_e and pooled_e:
        pooled_e[-1] += acc_e
        pooled_o[-1] += acc_o
    elif acc_e:
        pooled_e.append(acc_e)
        pooled_o.append(acc_o)
    if len(pooled_e) < 2:
        return 1.0
    stat = sum((o - e) ** 2 / e for o, e in zip(pooled_o, pooled_e))
    return upper_gamma_regularized((len(pooled_e) - 1) / 2, stat / 2)


def upper_gamma_regularized(a, x):
    """Q(a, x) = Gamma(a, x) / Gamma(a), the chi-square survival function.

    Series below a + 1, Lentz's continued fraction above it (Numerical
    Recipes, section 6.2); the fraction keeps full relative precision
    in the far tail, where the checks decide.
    """
    if x <= 0:
        return 1.0
    log_prefix = -x + a * math.log(x) - math.lgamma(a)
    if x < a + 1:
        term = total = 1.0 / a
        ap = a
        for _ in range(10000):
            ap += 1
            term *= x / ap
            total += term
            if abs(term) < abs(total) * 1e-16:
                break
        return max(0.0, 1.0 - total * math.exp(log_prefix))
    tiny = 1e-300
    b = x + 1 - a
    c = 1 / tiny
    d = 1 / b
    h = d
    for i in range(1, 10000):
        an = -i * (i - a)
        b += 2
        d = an * d + b
        d = d if abs(d) > tiny else tiny
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        d = 1 / d
        delta = d * c
        h *= delta
        if abs(delta - 1) < 1e-16:
            break
    return math.exp(log_prefix) * h
