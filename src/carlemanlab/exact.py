"""Exact rational-complex arithmetic used throughout the symbolic kernel.

A Gaussian rational is stored fraction-free as the int triple
``(a, b, d)``, the value ``(a + b*i) / d`` with ``d > 0`` and
``gcd(a, b, d) == 1``, so equal values have equal triples.  The module
functions :func:`triple_mul` and :func:`triple_add` hold the product and
the sum of two triples; nearly every coefficient the canonicalizer meets
is a Gaussian integer (``d == 1``), whose sums and products are plain int
arithmetic with no gcd.  This is the layering of FLINT's ``fmpq`` over
``fmpz`` (https://flintlib.org/doc/), without the dependency.

The canonicalizer keeps bare triples in its dicts and wraps them only at
its boundary.  Everywhere else a coefficient is a :class:`QQi`, an
immutable object whose state is one triple and whose ``*`` and ``+`` call
the same two functions.

No floats ever enter canonical forms, so identity residuals are exact: a
verified identity cancels to the empty canonical form, not to something
small.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Union

RatLike = Union[int, Fraction]


def _frac(x: RatLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class QQi:
    """Gaussian rational (a + b*i) / d, stored as the ints (a, b, d).

    The state is normalised (d > 0, gcd(a, b, d) == 1), so equal values
    have equal state, ``==`` and ``hash``.  ``re`` and ``im`` are the
    parts as Fractions.
    """

    __slots__ = ("_v",)

    def __init__(self, re: RatLike = 0, im: RatLike = 0):
        if type(re) is int and type(im) is int:
            v = (re, im, 1)
        else:
            re, im = _frac(re), _frac(im)
            d = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
            # Both parts are reduced, so the common denominator leaves
            # gcd(a, b, d) == 1.
            v = (re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d)
        _set_v(self, v)

    def __setattr__(self, name, value):
        raise AttributeError("QQi is immutable")

    @property
    def re(self) -> Fraction:
        a, _, d = self._v
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self._v
        return Fraction(b, d)

    # -- algebra and equality --------------------------------------------

    def __add__(self, other) -> "QQi":
        return _make(triple_add(self._v, (other if type(other) is QQi else _coerce(other))._v))

    def __mul__(self, other) -> "QQi":
        return _make(triple_mul(self._v, (other if type(other) is QQi else _coerce(other))._v))

    def __eq__(self, other) -> bool:
        if isinstance(other, QQi):
            return self._v == other._v
        if isinstance(other, (int, Fraction)):
            return self._v == (other.numerator, 0, other.denominator)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._v)

    # -- formatting ------------------------------------------------------

    def __repr__(self) -> str:
        return f"QQi({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return format_qqi(self)


_set_v = QQi._v.__set__
_new = object.__new__


def _make(v: tuple) -> QQi:
    """A QQi with the already-normalised state v, skipping __init__."""
    q = _new(QQi)
    _set_v(q, v)
    return q


def _norm(a: int, b: int, d: int) -> tuple:
    """The normalised triple of (a + b i) / d for any d > 0."""
    g = gcd(a, b, d)
    return (a, b, d) if g == 1 else (a // g, b // g, d // g)


def triple_mul(x: tuple, y: tuple) -> tuple:
    """The normalised triple of the product of two normalised triples."""
    a1, b1, d1 = x
    a2, b2, d2 = y
    a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
    if d1 == 1 and d2 == 1:
        return (a, b, 1)
    return _norm(a, b, d1 * d2)


def triple_add(x: tuple, y: tuple) -> tuple:
    """The normalised triple of the sum of two normalised triples; zero
    is (0, 0, 1)."""
    a1, b1, d1 = x
    a2, b2, d2 = y
    if d1 == 1 and d2 == 1:
        return (a1 + a2, b1 + b2, 1)
    return _norm(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)


def _coerce(x) -> QQi:
    if isinstance(x, QQi):
        return x
    if isinstance(x, (int, Fraction)):
        return QQi(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to QQi")


ZERO = QQi(0)


def format_qqi(c: QQi) -> str:
    """Deterministic text form, parseable by the expression grammar.

    Real values print bare ("3", "-1/2").  Imaginary and mixed values use
    the unit `i` with explicit `*`, mixed values are parenthesized so the
    result is always safe to embed as a factor.
    """
    re, im = c.re, c.im
    if im == 0:
        return str(re)
    if re == 0:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        return f"{im}*i"
    sign = "+" if im > 0 else "-"
    mag = abs(im)
    istr = "i" if mag == 1 else f"{mag}*i"
    return f"({re}{sign}{istr})"
