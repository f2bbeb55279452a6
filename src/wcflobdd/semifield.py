"""Scalar domains for weighted decision diagrams.

Edge and factor weights live in a semi-field: a commutative semiring
whose nonzero elements form a group under multiplication. Division by
nonzero weights is what lets path weights be renormalized during
canonicalization, and the absence of additive inverses is never relied
on, so ordinary fields qualify. Three instances are provided:

* exact rationals (``fractions.Fraction``), the reference instance for
  canonicity arguments and textual round-trips;
* floating-point reals;
* floating-point complex numbers, used by the quantum layer.

Each instance owns the weight text of dumps and DOT output: ``format``
writes ``p/q`` (``2^e`` for a huge power of two), a ``repr`` real or
``re,im`` with ``repr`` parts, which ``parse`` reads back bit-identically
and, on a floating instance, rejects with ValueError when not finite.

Floating instances use a rounded *canonical key* for hashing and
equality so that values differing only by accumulated rounding noise
intern to the same node. A key rounds to 10 decimal places (not
significant digits); ``format_rounded`` shows 10 significant digits.
Exact 0 and 1, which are most of the weights a diagram carries, key
without rounding to one shared object each.

The engine reaches an instance only through the methods of
:class:`Semifield`: the arithmetic (``add``, ``mul``, ``inv``), keys
and their ``is_zero``/``is_one`` tests, ``coerce``, ``is_finite`` and
``all_finite``, ``abs2`` and ``measure_field`` for measurement, the
weight text, and four calls for what an instance can represent:
``power_of_two`` (the EXP family's weights), ``sqrt_half`` (the
Hadamard factor), ``phase`` (a unit complex weight) and
``check_sampleable`` (a weight that sampling may sum). Each raises
where its instance cannot hold it.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

__all__ = [
    "Semifield",
    "RationalSemifield",
    "RealSemifield",
    "ComplexSemifield",
    "Pow2",
    "rational_field",
    "real_field",
    "complex_field",
    "field_by_name",
]

# Decimal places a floating key keeps.
_KEY_DIGITS = 10

# Largest exponent for which 2**e is materialized as a Fraction. Above
# this, exact powers of two stay symbolic (see Pow2). 2**65536 is an
# 8 KiB integer; anything near the switchover is still cheap to expand.
_POW2_MATERIALIZE_LIMIT = 1 << 16


class Pow2:
    """Exact power of two with a symbolic exponent.

    The separating function family multiplies edge weights of the form
    2**(2**i); at a thousand variables the largest of them has more
    bits than there are atoms in the observable universe, so the
    rational instance keeps such values as bare exponents. Pow2 only
    ever holds exponents too large to expand (smaller results collapse
    to Fraction via :meth:`make`), so a Pow2 and a Fraction never alias
    the same value and unique-table keys stay consistent.
    """

    __slots__ = ("exponent",)

    def __init__(self, exponent: int):
        self.exponent = exponent

    @staticmethod
    def make(exponent: int):
        if abs(exponent) <= _POW2_MATERIALIZE_LIMIT:
            return Fraction(2) ** exponent
        return Pow2(exponent)

    def __eq__(self, other):
        return isinstance(other, Pow2) and self.exponent == other.exponent

    def __hash__(self):
        return hash(("pow2", self.exponent))

    def __repr__(self):
        return f"Pow2(2**{self.exponent})"


def _log2_exact(f: Fraction):
    """Exponent e with f == 2**e, or None."""
    p, q = f.numerator, f.denominator
    if p <= 0:
        return None
    if q == 1 and p & (p - 1) == 0:
        return p.bit_length() - 1
    if p == 1 and q & (q - 1) == 0:
        return 1 - q.bit_length()
    return None


def _finite(text: str) -> float:
    """The float ``text`` writes; ValueError unless it is finite."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"weight {text!r} is not finite")
    return x


class Semifield:
    """Abstract scalar domain.

    Subclasses fix the carrier type and provide arithmetic, canonical
    keys, and a textual form. All diagram code goes through this
    interface; nothing outside this module assumes a concrete carrier.
    """

    name = "abstract"

    zero = None
    one = None
    minus_one = None
    # key(zero) and key(one), fixed per subclass.
    _zero_key = None
    _one_key = None

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        """Multiplicative inverse. Raises ZeroDivisionError on zero."""
        return self.one / a

    def key(self, a):
        """Hashable canonical key; equal keys mean 'same weight'."""
        raise NotImplementedError

    def coerce(self, a):
        """``a`` as a value of the carrier type, as ``fold`` stores it."""
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        return self.key(a) == self._zero_key

    def is_one(self, a) -> bool:
        return self.key(a) == self._one_key

    def is_finite(self, a) -> bool:
        """False for a float weight that overflowed to inf or nan."""
        return True

    def all_finite(self, values) -> bool:
        """is_finite of every value."""
        return all(map(self.is_finite, values))

    def abs2(self, a):
        """Squared magnitude of ``a``, as a value of measure_field()."""
        raise NotImplementedError

    def measure_field(self) -> "Semifield":
        """The domain squared magnitudes live in (self unless complex)."""
        return self

    def parse(self, text: str):
        raise NotImplementedError

    def format(self, a) -> str:
        raise NotImplementedError

    def format_rounded(self, a) -> str:
        """Display form rounded to the canonical-key width."""
        return self.format(a)

    def power_of_two(self, exponent: int):
        """2**exponent; OverflowError when the carrier cannot hold it."""
        try:
            return self.add(self.one, self.one) ** exponent
        except OverflowError:
            raise OverflowError(f"2**{exponent} is out of float range") \
                from None

    def sqrt_half(self):
        """1/sqrt(2), the Hadamard factor."""
        return self.mul(self.one, 2 ** -0.5)

    def phase(self, theta: float):
        """e^(i theta); ValueError unless the instance is complex."""
        raise ValueError(f"a phase needs the complex instance, not "
                         f"{self.name}")

    def check_sampleable(self, w):
        """ValueError unless sampling may sum ``w``: a negative weight
        could cancel."""
        if w < 0:
            raise ValueError("sampling needs nonnegative weights; "
                             "use measure_view first")

    def __repr__(self):
        return f"<semifield {self.name}>"


class RationalSemifield(Semifield):
    """Exact rationals (plus symbolic huge powers of two, see Pow2).

    Canonical keys are the (numerator, denominator) pairs of the
    normalized fractions; a Pow2 value keys on itself, which cannot
    collide because values small enough to expand are always held as
    Fractions.
    """

    name = "rational"

    zero = Fraction(0)
    one = Fraction(1)
    minus_one = Fraction(-1)
    _zero_key = (0, 1)
    _one_key = (1, 1)

    def add(self, a, b):
        if isinstance(a, Pow2) or isinstance(b, Pow2):
            if isinstance(a, Pow2) and isinstance(b, Pow2):
                if a.exponent == b.exponent:
                    return Pow2.make(a.exponent + 1)
                raise OverflowError("sum of huge powers of two is not exact")
            if isinstance(b, Pow2):
                a, b = b, a
            if b == 0:
                return a
            raise OverflowError("sum involving a huge power of two")
        return a + b

    def mul(self, a, b):
        if type(a) is Fraction and type(b) is Fraction:
            # In a fifth of criterion 3's rational operations, 1.70 M
            # of 2.14 M products had a 0 or 1 operand; these skip the
            # gcd work of a Fraction product.
            if not a or not b:
                return self.zero
            if a == 1:
                return b
            if b == 1:
                return a
            return a * b
        if isinstance(a, Pow2) or isinstance(b, Pow2):
            if isinstance(a, Pow2) and isinstance(b, Pow2):
                return Pow2.make(a.exponent + b.exponent)
            if isinstance(b, Pow2):
                a, b = b, a
            if b == 0:
                return Fraction(0)
            e = _log2_exact(b)
            if e is None:
                raise OverflowError(
                    "product with a huge power of two is unrepresentable")
            return Pow2.make(a.exponent + e)
        return a * b

    def inv(self, a):
        if isinstance(a, Pow2):
            return Pow2.make(-a.exponent)
        return self.one / a

    def key(self, a):
        # An integer pair hashes far faster than a Fraction.
        return a if isinstance(a, Pow2) else a.as_integer_ratio()

    def coerce(self, a):
        return a if isinstance(a, (Fraction, Pow2)) else Fraction(a)

    def is_zero(self, a) -> bool:
        return not isinstance(a, Pow2) and a == 0

    def is_one(self, a) -> bool:
        return not isinstance(a, Pow2) and a == 1

    def abs2(self, a):
        return self.mul(a, a)

    def power_of_two(self, exponent: int):
        return Pow2.make(exponent)

    def sqrt_half(self):
        raise ValueError("1/sqrt(2) is irrational; see walsh_family")

    def all_finite(self, values):  # exact: no value to read
        return True

    def check_sampleable(self, w):
        if not isinstance(w, Pow2):  # always positive, not comparable with 0
            Semifield.check_sampleable(self, w)

    def parse(self, text: str):
        if "^" in text:
            base, _, expo = text.partition("^")
            if base.strip() != "2":
                raise ValueError(f"bad rational literal: {text!r}")
            return Pow2.make(int(expo))
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None

    def format(self, a) -> str:
        if isinstance(a, Pow2):
            return f"2^{a.exponent}"
        # Materialized powers of two can run to thousands of digits;
        # print those with the same shorthand parse() accepts.
        e = _log2_exact(a)
        if e is not None and abs(e) > 256:
            return f"2^{e}"
        return str(a)


class RealSemifield(Semifield):
    """Floating-point reals with rounded canonical keys."""

    name = "real"

    zero = 0.0
    one = 1.0
    minus_one = -1.0

    # Exact 0 and 1 key to these without rounding; rounding would give
    # equal keys.
    _zero_key = 0.0
    _one_key = 1.0

    def key(self, a):
        a = float(a)
        if a == 0.0:
            return self._zero_key
        if a == 1.0:
            return self._one_key
        return round(a, _KEY_DIGITS) + 0.0  # merge -0.0 with 0.0

    coerce = staticmethod(float)
    is_finite = staticmethod(math.isfinite)

    def abs2(self, a):
        return float(a) * float(a)

    def parse(self, text: str):
        return _finite(text)

    def format(self, a) -> str:
        return repr(float(a))

    def format_rounded(self, a) -> str:
        return "%.*g" % (_KEY_DIGITS, float(a))


class ComplexSemifield(Semifield):
    """Floating-point complex numbers, written ``re,im``."""

    name = "complex"

    zero = complex(0)
    one = complex(1)
    minus_one = complex(-1)

    # As in RealSemifield: exact 0 and 1 share these keys unrounded.
    _zero_key = (0.0, 0.0)
    _one_key = (1.0, 0.0)

    def key(self, a):
        c = complex(a)
        if c == 0:
            return self._zero_key
        if c == 1:
            return self._one_key
        # The hottest call of the matrix products: no helper call.
        return (round(c.real, _KEY_DIGITS) + 0.0,
                round(c.imag, _KEY_DIGITS) + 0.0)

    coerce = staticmethod(complex)
    is_finite = staticmethod(cmath.isfinite)

    def abs2(self, a):
        c = complex(a)
        return c.real * c.real + c.imag * c.imag

    def measure_field(self) -> Semifield:
        return _REAL

    def phase(self, theta: float):
        return cmath.exp(1j * theta)

    def check_sampleable(self, w):
        if isinstance(w, complex):
            raise ValueError("sampling needs a real-weight view; "
                             "use measure_view first")
        Semifield.check_sampleable(self, w)

    def parse(self, text: str):
        re_part, im_part = map(_finite, text.split(","))
        return complex(re_part, im_part)

    def format(self, a) -> str:
        c = complex(a)
        return f"{c.real!r},{c.imag!r}"

    def format_rounded(self, a) -> str:
        c = complex(a)
        re_key, im_key = self.key(c)
        if im_key == 0.0:
            return "%.*g" % (_KEY_DIGITS, c.real)
        if re_key == 0.0:
            return "%.*gi" % (_KEY_DIGITS, c.imag)
        sign = "+" if c.imag >= 0 else ""
        return "%.*g%s%.*gi" % (_KEY_DIGITS, c.real, sign, _KEY_DIGITS,
                                c.imag)


_RATIONAL = RationalSemifield()
_REAL = RealSemifield()
_COMPLEX = ComplexSemifield()


def rational_field() -> RationalSemifield:
    return _RATIONAL


def real_field() -> RealSemifield:
    return _REAL


def complex_field() -> ComplexSemifield:
    return _COMPLEX


def field_by_name(name: str) -> Semifield:
    if name == "rational":
        return _RATIONAL
    if name == "real" or name == "float":
        return _REAL
    if name == "complex":
        return _COMPLEX
    raise ValueError(f"unknown semifield instance: {name!r}")
