"""Axioms and textual behavior of the three scalar domains."""

import random
from fractions import Fraction

import pytest

from wcflobdd.semifield import (Pow2, complex_field, field_by_name,
                                rational_field, real_field)

FR = rational_field()
FL = real_field()
FC = complex_field()

ALL = (FR, FL, FC)


def _samples(field, rng, n=40):
    out = [field.zero, field.one, field.minus_one]
    for _ in range(n):
        if field is FR:
            out.append(Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
        elif field is FL:
            out.append(rng.uniform(-3, 3))
        else:
            out.append(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)))
    return out


def _close(field, a, b):
    if field is FR:
        return a == b
    return abs(complex(a) - complex(b)) < 1e-9


def test_axioms_all_instances():
    rng = random.Random(1)
    for field in ALL:
        xs = _samples(field, rng)
        for _ in range(300):
            a, b, c = (rng.choice(xs) for _ in range(3))
            assert _close(field, field.add(a, b), field.add(b, a))
            assert _close(field, field.mul(a, b), field.mul(b, a))
            assert _close(field, field.add(field.add(a, b), c),
                          field.add(a, field.add(b, c)))
            assert _close(field, field.mul(field.mul(a, b), c),
                          field.mul(a, field.mul(b, c)))
            assert _close(field, field.mul(a, field.add(b, c)),
                          field.add(field.mul(a, b), field.mul(a, c)))
            assert _close(field, field.add(a, field.zero), a)
            assert _close(field, field.mul(a, field.one), a)
            assert field.is_zero(field.mul(a, field.zero))
            if not field.is_zero(a):
                assert _close(field, field.mul(a, field.inv(a)), field.one)
            if not field.is_zero(a) and not field.is_zero(b):
                assert not field.is_zero(field.mul(a, b))


def test_zero_one_keys():
    for field in ALL:
        assert field.is_zero(field.zero)
        assert field.is_one(field.one)
        assert not field.is_zero(field.one)
        assert field.key(field.one) == field.key(field.mul(field.one,
                                                           field.one))


def test_float_key_rounds():
    # Keys keep 10 decimal places.
    assert FL.key(0.12345678901) == FL.key(0.12345678904)
    assert FL.key(1.0) != FL.key(1.0000000001)


def test_complex_key_rounds_both_parts():
    assert FC.key(1e-13 + 1j) == FC.key(0 + 1j)
    assert FC.key(1 + 2j) != FC.key(1 + 2.0000000001j)
    assert FC.key(2.00000000001 + 1j) == FC.key(2 + 1j)


def _rounded_key(field, a):
    """The key as rounding to 10 places alone makes it, with no shortcut."""
    if field.name == "real":
        return round(float(a), 10) + 0.0
    c = complex(a)
    return (round(c.real, 10) + 0.0, round(c.imag, 10) + 0.0)


KEY_EDGE_VALUES = (0.0, -0.0, 0j, complex(-0.0, -0.0), complex(1, -0.0),
                   1, True, Fraction(0), Fraction(1), 1e-11, 5e-11,
                   0.99999999999, 1 + 1e-12j, float("inf"), float("nan"))


def test_exact_constant_keys_equal_the_rounded_keys():
    for field in (FL, FC):
        for v in KEY_EDGE_VALUES:
            if field.name == "real" and isinstance(v, complex):
                continue
            assert repr(field.key(v)) == repr(_rounded_key(field, v)), \
                (field, v)
    assert FC.key(complex(-0.0, 0.0)) is FC._zero_key
    assert FC.key(Fraction(1)) is FC._one_key
    assert FL.key(-0.0) is FL._zero_key
    with pytest.raises(TypeError):
        FL.key(0j)


def test_pow2_materializes_small_exponents():
    assert Pow2.make(10) == Fraction(1024)
    assert Pow2.make(-3) == Fraction(1, 8)
    assert isinstance(Pow2.make(1 << 17), Pow2)


def test_pow2_arithmetic():
    big = Pow2.make(1 << 17)
    assert FR.mul(big, FR.inv(big)) == FR.one
    assert FR.mul(big, Fraction(2)) == Pow2.make((1 << 17) + 1)
    assert FR.add(big, big) == Pow2.make((1 << 17) + 1)
    assert FR.add(big, Fraction(0)) is big
    assert FR.add(Fraction(0), big) is big
    with pytest.raises(OverflowError, match="not exact"):
        FR.add(big, Pow2.make((1 << 17) + 1))
    assert FR.is_zero(FR.mul(big, Fraction(0)))
    try:
        FR.add(big, Fraction(1))
        assert False, "inexact huge sum must not be silently wrong"
    except OverflowError:
        pass
    try:
        FR.mul(big, Fraction(3))
        assert False
    except OverflowError:
        pass


def test_rational_text_round_trip():
    for text in ("0", "1", "-3/7", "2048", "2^70000", "2^-70000"):
        v = FR.parse(text)
        assert FR.parse(FR.format(v)) == v
    # huge materialized powers print in shorthand
    assert FR.format(Fraction(2) ** 300) == "2^300"
    assert FR.format(Fraction(2048)) == "2048"


# Signed zeros, the smallest subnormal, the largest double and a value
# that needs all 17 significant digits.
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                -1.7976931348623157e308, 0.30000000000000004)


def test_float_format_rounded():
    assert FL.format_rounded(-0.7071067811865476) == "-0.7071067812"
    assert FL.parse(FL.format(0.1)) == 0.1
    for x in _EDGE_FLOATS:
        assert repr(FL.parse(FL.format(x))) == repr(x)


def test_complex_text_round_trip():
    for v in (0j, 1 + 0j, 0 + 1j, 1.5 - 2.25j, -0.5 + 0.5j):
        assert FC.parse(FC.format(v)) == v
    for re_part in _EDGE_FLOATS:
        for im_part in _EDGE_FLOATS:
            v = complex(re_part, im_part)
            assert FC.format(v) == f"{re_part!r},{im_part!r}"
            assert repr(FC.parse(FC.format(v))) == repr(v)


def test_abs2_and_measure_field():
    assert FR.abs2(Fraction(-3, 2)) == Fraction(9, 4)
    assert FR.measure_field() is FR
    assert FL.measure_field() is FL
    assert abs(FC.abs2(3 + 4j) - 25.0) < 1e-12
    m = FC.measure_field()
    assert m.name == "real"
    # squared magnitudes never carry an imaginary part
    assert isinstance(FC.abs2(1 + 1j), float)


def test_field_by_name():
    # One instance per name: the floating instances are singletons too.
    assert field_by_name("rational") is FR
    assert real_field() is field_by_name("float") is field_by_name("real")
    assert real_field() is complex_field().measure_field()
    assert complex_field() is field_by_name("complex")
    try:
        field_by_name("octonion")
        assert False
    except ValueError:
        pass
