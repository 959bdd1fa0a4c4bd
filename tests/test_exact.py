"""Exact rational-complex coefficient arithmetic."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from carlemanlab.exact import ZERO, QQi, _make, format_qqi, triple_add, triple_mul

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
qqis = st.builds(QQi, fractions, fractions)
triples = qqis.map(lambda q: q._v)
T_ZERO, T_ONE = ZERO._v, QQi(1)._v


def neg(x):
    a, b, d = x
    return (-a, -b, d)


def conj(x):
    a, b, d = x
    return (a, -b, d)


@st.composite
def unreduced(draw):
    """A Fraction built from an unreduced, possibly negative-denominator pair."""
    num = draw(st.integers(min_value=-60, max_value=60))
    den = draw(st.integers(min_value=1, max_value=12)) * draw(st.sampled_from([1, -1]))
    scale = draw(st.integers(min_value=1, max_value=6))
    return Fraction(num * scale, den * scale)


pairs = st.tuples(unreduced(), unreduced())


def test_construction_and_constants():
    assert QQi(3).re == 3 and QQi(3).im == 0
    assert QQi(Fraction(1, 2), -2) == QQi(Fraction(1, 2), Fraction(-2))
    assert T_ZERO == (0, 0, 1) and T_ONE == (1, 0, 1)
    assert QQi(0, 1) * QQi(0, 1) == QQi(-1)


def test_immutable():
    c = QQi(1, 2)
    with pytest.raises(AttributeError):
        c.re = Fraction(5)


def test_float_rejected():
    with pytest.raises(TypeError):
        QQi(0.5)


@given(triples, triples, triples)
def test_ring_axioms(a, b, c):
    add, mul = triple_add, triple_mul
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, T_ZERO) == a and mul(a, T_ONE) == a
    assert add(a, neg(a)) == T_ZERO


@given(triples, triples)
def test_conjugation_automorphism(a, b):
    # the conjugate of a normalised triple (a, b, d) is (a, -b, d)
    assert conj(conj(a)) == a
    assert conj(triple_add(a, b)) == triple_add(conj(a), conj(b))
    assert conj(triple_mul(a, b)) == triple_mul(conj(a), conj(b))
    norm = _make(triple_mul(a, conj(a)))
    assert norm.im == 0 and norm.re >= 0


def test_coercion_with_ints_and_fractions():
    assert QQi(1) + 2 == QQi(3)
    assert QQi(4) * Fraction(1, 2) == QQi(2)
    assert QQi(1, 1) == QQi(1, 1) and QQi(1) == 1


def test_format_examples():
    assert format_qqi(QQi(0)) == "0"
    assert str(QQi(Fraction(-1, 2))) == format_qqi(QQi(Fraction(-1, 2)))
    # i-carrying values render with an explicit i factor
    assert "i" in format_qqi(QQi(0, 1))


# -- the fraction-free state against a reference of Fraction pairs -------


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def assert_matches(q, ref):
    a, b, d = q._v
    assert d > 0 and gcd(a, b, d) == 1
    assert (q.re, q.im) == ref
    assert q == QQi(*ref) and hash(q) == hash(QQi(*ref))


@given(pairs, pairs)
def test_arithmetic_matches_fraction_pairs(x, y):
    p, q = QQi(*x), QQi(*y)
    assert_matches(p, x)
    assert_matches(p + q, (x[0] + y[0], x[1] + y[1]))
    assert_matches(p * q, ref_mul(x, y))


@given(pairs, st.integers(min_value=-9, max_value=9), unreduced())
def test_mixed_operands_match_fraction_pairs(x, n, f):
    p = QQi(*x)
    assert_matches(p + n, (x[0] + n, x[1]))
    assert_matches(p * f, (f * x[0], f * x[1]))
    assert (QQi(f) == f) and (QQi(n) == n) and (QQi(f, 1) != f)


@given(pairs, pairs)
def test_triple_functions_match_fraction_pairs(x, y):
    # the kernel's bare triples, including d != 1 and sums that cancel
    tx, ty, tneg = QQi(*x)._v, QQi(*y)._v, QQi(-x[0], -x[1])._v
    assert_matches(_make(triple_mul(tx, ty)), ref_mul(x, y))
    assert_matches(_make(triple_add(tx, ty)), (x[0] + y[0], x[1] + y[1]))
    assert_matches(_make(triple_add(tx, neg(ty))), (x[0] - y[0], x[1] - y[1]))
    assert_matches(_make(conj(tx)), (x[0], -x[1]))
    assert neg(tx) == tneg and triple_add(tx, tneg) == (0, 0, 1)


def test_equal_values_have_equal_state():
    half = QQi(Fraction(2, 4))
    assert half._v == QQi(Fraction(1, 2))._v == (1, 0, 2)
    assert half == QQi(Fraction(1, 2)) and hash(half) == hash(QQi(Fraction(1, 2)))
    assert QQi(Fraction(3, -6), Fraction(4, 8)) == QQi(Fraction(-1, 2), Fraction(1, 2))
    assert QQi(Fraction(1, 6), Fraction(1, 4))._v == (2, 3, 12)
    assert (QQi(Fraction(1, 2)) + QQi(Fraction(1, 2)))._v == (1, 0, 1)
    assert QQi(Fraction(6, 4)) == Fraction(3, 2) and QQi(Fraction(4, 2)) == 2
