"""Exact rational arithmetic and a dense univariate polynomial kernel.

A ``Poly`` stores one tuple of integer numerators, ascending by degree and
with no trailing zero, over one positive denominator, in lowest terms, so
``==`` and ``hash`` compare the pair; the zero polynomial is ``()`` over 1.
``Poly()`` takes ``int`` or ``Fraction`` coefficients (anything else raises
`TypeError`), and ``coeffs`` and the other readers return ``Fraction``s.
Arithmetic here and the coefficient checks and basis changes elsewhere
read the numerators and build results through ``Poly._from_ints``, the one
place that strips and reduces them.  Root work (gcd here, Sturm chains and
square-free factorization in ``roots``) runs on primitive integer vectors,
combined by one pseudo-remainder, ``_prem``, which ``divmod`` also uses; its
multiplier is |lc(b)| ** (deg a - deg b + 1), and the normal step, deg a =
deg b + 1, is one pass.  ``_check_tag`` is the one check of the tag rule: a
numerator tagged d needs an ``int`` d >= 0 and degree at most d.  Its ``int``
test, ``_check_int``, also checks every axis, order and power argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Sequence, Union

Coefficient = Union[int, Fraction]


def _rational(c: object, what: str = "coefficient") -> Coefficient:
    """``c`` if it is an ``int`` (not a ``bool``) or a ``Fraction``; else a ``TypeError``."""
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
        raise TypeError(f"{what} {c!r} is not an int or a Fraction")
    return c


class Poly:
    """Dense univariate polynomial over the rationals, immutable.

    ``Poly([1, 0, 7])`` is 1 + 7x^2.  All arithmetic is exact; results are
    normalized (no trailing zeros, lowest terms) on construction.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable[Coefficient] = ()):
        cs = list(coeffs)
        den = 1
        for c in cs:
            if type(c) is not int:  # exact type first: isinstance on Fraction is slow
                den = math.lcm(den, _rational(c).denominator)
        self._store(
            [c * den if type(c) is int else c.numerator * (den // c.denominator) for c in cs], den
        )

    @staticmethod
    def _from_ints(v: Sequence[int], den: int = 1) -> "Poly":
        """The polynomial with coefficients ``v[i] / den``, for integers ``v`` and ``den > 0``."""
        p = Poly.__new__(Poly)
        p._store(v, den)
        return p

    def _store(self, v: Sequence[int], den: int) -> None:
        n = len(v)
        while n and not v[n - 1]:
            n -= 1
        g = math.gcd(den, *v)
        self._num: tuple[int, ...] = tuple(v[:n]) if g == 1 else tuple([c // g for c in v[:n]])
        self._den: int = den // g

    @staticmethod
    def one() -> "Poly":
        return Poly([1])

    @staticmethod
    def x() -> "Poly":
        return Poly([0, 1])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._den) for c in self._num)

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def degree(self) -> int | None:
        """Degree of the polynomial; ``None`` for the zero polynomial."""
        return len(self._num) - 1 if self._num else None

    def coefficient(self, i: int) -> Fraction:
        """Coefficient of x**i (zero beyond the stored range)."""
        if 0 <= i < len(self._num):
            return Fraction(self._num[i], self._den)
        return Fraction(0)

    @property
    def support(self) -> tuple[int, ...]:
        """Indices with nonzero coefficient, ascending."""
        return tuple(i for i, c in enumerate(self._num) if c)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        den = math.lcm(self._den, other._den)
        ma, mb = den // self._den, den // other._den
        pairs = zip_longest(self._num, other._num, fillvalue=0)
        return Poly._from_ints([a * ma + b * mb for a, b in pairs], den)

    def __neg__(self) -> "Poly":
        return Poly._from_ints([-c for c in self._num], self._den)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly()
        return Poly._from_ints(_int_mul(self._num, other._num), self._den * other._den)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    # -- division -------------------------------------------------------------

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if not isinstance(other, Poly):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        # m a = q b + r on the numerators; a/da = (q db / (m da)) (b/db) + r / (m da)
        a, b = self._num, other._num
        m = abs(b[-1]) ** max(len(a) - len(b) + 1, 0)
        r = _prem(a, b)
        q = _int_exact_div(_int_sub([m * c for c in a], r), b)
        den = m * self._den
        return Poly._from_ints([c * other._den for c in q], den), Poly._from_ints(r, den)

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        lead = self._num[-1]
        return Poly._from_ints([c if lead > 0 else -c for c in self._num], abs(lead))

    # -- text -----------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return format_poly(self)


def format_poly(p: Poly) -> str:
    """Human-readable form like ``8x^3 + 10x^2 + 3x + 1`` (descending powers)."""
    if p.is_zero:
        return "0"
    parts = []
    for i, c in reversed(list(enumerate(p.coeffs))):
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            xpow = "x" if i == 1 else f"x^{i}"
            body = xpow if mag == 1 else f"{mag}{xpow}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def _check_int(value: object, what: str) -> None:
    """A ``TypeError`` naming ``what`` unless ``value`` is an ``int`` (not a ``bool``)."""
    if type(value) is not int:
        raise TypeError(f"{what} {value!r} is not an int")


def _check_tag(p: Poly, d: int, name: str) -> None:
    """The tag rule of a numerator ``p`` at reference degree ``d``: an ``int``
    d >= 0 and deg p <= d."""
    _check_int(d, "reference degree")
    if d < 0:
        raise ValueError("reference degree must be nonnegative")
    if len(p._num) > d + 1:
        raise ValueError(f"degree overflow: deg {name} = {p.degree} > d = {d}")


def reverse(h: Poly, d: int) -> Poly:
    """Coefficient reversal x^d * h(1/x); requires deg h <= d.

    An involution at fixed d: coefficient i of the result is coefficient
    d - i of the input (zero-padded).
    """
    _check_tag(h, d, "h")
    return Poly._from_ints((h._num + (0,) * (d + 1 - len(h._num)))[::-1], h._den)


def _is_palindrome(h: Poly, d: int) -> bool:
    """``reverse(h, d) == h`` on the numerators, with no tag check: needs deg h <= d."""
    v = h._num + (0,) * (d + 1 - len(h._num))
    return v == v[::-1]


# -- integer vectors for root work ---------------------------------------------
#
# An integer vector is the ascending coefficient tuple of a polynomial with
# integer coefficients; the zero polynomial is the empty tuple.  Scaling by a
# positive constant changes no sign and no root, so the root layer works on
# primitive multiples of the stored numerators.


def _strip(v: list[int]) -> list[int]:
    """Drop trailing zeros of ``v`` in place."""
    while v and v[-1] == 0:
        v.pop()
    return v


def _primitive(v: Sequence[int]) -> tuple[int, ...]:
    """``v`` (without trailing zeros) divided by its positive content."""
    content = math.gcd(*v) if v else 0
    if content > 1:
        return tuple([c // content for c in v])
    return tuple(v)


def _int_derivative(v: Sequence[int]) -> tuple[int, ...]:
    return tuple(i * c for i, c in enumerate(v) if i)


def _horner(v: Sequence[int], x: Coefficient) -> tuple[int, int]:
    """``(a, q**n)`` with ``v(x) = a / q**n``, for ``x = p/q`` and ``n = deg v``.

    Horner's rule on the numerator of the scaled form, with no rational
    normalization; the empty vector gives ``(0, 1)``.
    """
    num, den = x.numerator, x.denominator
    acc, spow = (v[-1], 1) if v else (0, 1)
    for c in reversed(v[:-1]):
        spow *= den
        acc = acc * num + c * spow
    return acc, spow


def _int_mul(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """The product of the nonzero integer vectors ``a`` and ``b``."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return tuple(out)


def _int_sub(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    return tuple(_strip([x - y for x, y in zip_longest(a, b, fillvalue=0)]))


def _prem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Pseudo-remainder ``m a - q b`` of degree below deg b, for nonzero ``b`` and
    ``m = |lc(b)| ** max(deg a - deg b + 1, 0)``: positive, so every sign of the
    true remainder is kept, and large enough that ``q`` is integral.  Trailing
    zeros are dropped.  The normal step, deg a = deg b + 1, is one pass.
    """
    n = len(b) - 1
    lead = abs(b[-1])
    low = b[:-1] if b[-1] > 0 else [-c for c in b[:-1]]
    if len(a) == n + 2 and n:
        # q = lead t x + u for a nonconstant b, so the remainder is lead^2 a
        # - lead t x b~ - u b~, where b~ = low + [lead] and t = lc(a).
        t = a[-1]
        square, shift, u = lead * lead, lead * t, lead * a[-2] - t * low[-1]
        return _strip([square * x - shift * c - u * d for x, c, d in zip(a, [0, *low], low)])
    r = list(a)
    for i in range(len(r) - 1 - n, -1, -1):
        top = r.pop()
        r = [lead * x for x in r[:i]] + [lead * x - top * c for x, c in zip(r[i:], low)]
    return _strip(r)


def _int_exact_div(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Quotient ``a / b`` for ``b`` dividing ``a`` with an integral quotient:
    for a primitive ``b`` by Gauss's lemma, or for ``m a - r`` with ``r =
    _prem(a, b)``.  Each long division step divides exactly; a remainder
    signals an internal error.
    """
    n = len(b) - 1
    r = list(a)
    q = [0] * (len(a) - n)
    for i in range(len(a) - 1, n - 1, -1):
        if r[i]:
            c = q[i - n] = r[i] // b[-1]
            for j, bj in enumerate(b):
                r[i - n + j] -= c * bj
    if any(r):
        raise ValueError("integer division is not exact")
    return tuple(q)


def _int_gcd(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Primitive greatest common divisor by the primitive pseudo-remainder sequence."""
    if len(a) < len(b):
        a, b = b, a
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_prem(a, b))
    if a and a[-1] < 0:
        a = tuple(-c for c in a)
    return a


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor via the primitive pseudo-remainder sequence."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    return Poly._from_ints(_int_gcd(a._num, b._num)).monic()


@dataclass(frozen=True, slots=True)
class TaggedPoly:
    """A polynomial paired with the reference degree it is a numerator for.

    The tag is the degree of the interpolating polynomial whose generating
    function the `poly` is the numerator of; it drives every degree-dependent
    operator (reversal, reflection, basis changes, Hadamard products).  The
    tag rule is checked once, at construction, and the pair cannot change.
    """

    poly: Poly
    ref_degree: int

    def __post_init__(self):
        _check_tag(self.poly, self.ref_degree, "h")

    def __repr__(self) -> str:
        return f"TaggedPoly({self.poly!r}, ref_degree={self.ref_degree})"

    def __str__(self) -> str:
        return f"({self.poly}, d={self.ref_degree})"
