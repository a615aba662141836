"""Exact rational arithmetic and a dense univariate polynomial kernel.

Coefficients are `fractions.Fraction` values built from `int` or `Fraction`
input (anything else raises `TypeError`), stored dense in ascending degree
order.  The canonical form never stores trailing zero coefficients; the zero
polynomial has an empty coefficient tuple and degree ``None``.

Root work (gcd here, Sturm chains and square-free factorization in
``roots``) runs on integer vectors instead: ascending coefficient tuples of
a primitive integer multiple of a polynomial, combined by pseudo-division so
that no ``Fraction`` is normalised inside the loops.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

Coefficient = Union[int, Fraction]


def comb0(n: int, k: int) -> int:
    """Binomial coefficient with the convention C(n, k) = 0 outside 0 <= k <= n."""
    if k < 0 or k > n or n < 0:
        return 0
    return math.comb(n, k)


def _as_fraction(c: object) -> Fraction:
    """Any other coefficient; ``Poly()`` tests exact types first, as ABC ``isinstance`` is slow."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"coefficient {c!r} is not an int or a Fraction")
    return Fraction(c)


class Poly:
    """Dense univariate polynomial over the rationals, immutable.

    ``Poly([1, 0, 7])`` is 1 + 7x^2.  All arithmetic is exact; results are
    normalized (no trailing zeros) on construction.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Coefficient] = ()):
        cs = [c if type(c) is Fraction else Fraction(c) if type(c) is int
              else _as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs: tuple[Fraction, ...] = tuple(cs)

    @staticmethod
    def one() -> "Poly":
        return Poly([1])

    @staticmethod
    def x() -> "Poly":
        return Poly([0, 1])

    @staticmethod
    def monomial(power: int, coeff: Coefficient = 1) -> "Poly":
        """coeff * x**power."""
        if power < 0:
            raise ValueError("monomial power must be nonnegative")
        return Poly([0] * power + [coeff])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def degree(self) -> int | None:
        """Degree of the polynomial; ``None`` for the zero polynomial."""
        return len(self._coeffs) - 1 if self._coeffs else None

    def coefficient(self, i: int) -> Fraction:
        """Coefficient of x**i (zero beyond the stored range)."""
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return Fraction(0)

    @property
    def support(self) -> tuple[int, ...]:
        """Indices with nonzero coefficient, ascending."""
        return tuple(i for i, c in enumerate(self._coeffs) if c != 0)

    @property
    def leading_coefficient(self) -> Fraction:
        if not self._coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self._coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "Poly | Coefficient") -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly()
        a, b = self._coeffs, other._coeffs
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                if cb != 0:
                    out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def scale(self, c: Coefficient) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return Poly()
        return Poly([a * c for a in self._coeffs])

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

    def shift_up(self, k: int) -> "Poly":
        """Multiply by x**k."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        if self.is_zero:
            return Poly()
        return Poly([Fraction(0)] * k + list(self._coeffs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    # -- calculus and evaluation ----------------------------------------------

    def derivative(self, order: int = 1) -> "Poly":
        """Exact derivative of the given order (zero when order > degree)."""
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        cs = self._coeffs
        for _ in range(order):
            if len(cs) <= 1:
                return Poly()
            cs = tuple(i * c for i, c in enumerate(cs) if i > 0)
        return Poly(cs)

    def evaluate(self, x: Coefficient) -> Fraction:
        """Exact Horner evaluation."""
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "Poly") -> "Poly":
        """Exact composition self(inner(x)) by Horner's rule."""
        acc = Poly()
        for c in reversed(self._coeffs):
            acc = acc * inner + Poly([c])
        return acc

    # -- division -------------------------------------------------------------

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if not isinstance(other, Poly):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self._coeffs)
        d = other.degree
        lead = other._coeffs[-1]
        if len(rem) - 1 < d:
            return Poly(), self
        quo = [Fraction(0)] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i] == 0:
                continue
            q = rem[i] / lead
            quo[i - d] = q
            for j, c in enumerate(other._coeffs):
                rem[i - d + j] -= q * c
        return Poly(quo), Poly(rem)

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self.scale(1 / self._coeffs[-1])

    # -- text -----------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Poly({list(self._coeffs)!r})"

    def __str__(self) -> str:
        return format_poly(self)


def format_poly(p: Poly, var: str = "x") -> str:
    """Human-readable form like ``8x^3 + 10x^2 + 3x + 1`` (descending powers)."""
    if p.is_zero:
        return "0"
    parts = []
    for i in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            xpow = var if i == 1 else f"{var}^{i}"
            body = xpow if mag == 1 else f"{mag}{xpow}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def reverse(h: Poly, d: int) -> Poly:
    """Coefficient reversal x^d * h(1/x); requires deg h <= d.

    An involution at fixed d: coefficient i of the result is coefficient
    d - i of the input (zero-padded).
    """
    if d < 0:
        raise ValueError("reversal degree must be nonnegative")
    if not h.is_zero and h.degree > d:
        raise ValueError(f"degree overflow: deg h = {h.degree} > d = {d}")
    return Poly([h.coefficient(d - i) for i in range(d + 1)])


def reflect(f: Poly, d: int) -> Poly:
    """The reflection (-1)^d * f(-x-1); requires deg f <= d.

    An involution at fixed d.  In the basis x^i (x+1)^(d-i) it swaps the
    coordinates i and d-i, mirroring what `reverse` does for plain
    coefficients.
    """
    if d < 0:
        raise ValueError("reflection degree must be nonnegative")
    if not f.is_zero and f.degree > d:
        raise ValueError(f"degree overflow: deg f = {f.degree} > d = {d}")
    composed = f.compose(Poly([-1, -1]))
    return composed if d % 2 == 0 else -composed


# -- integer vectors for root work ---------------------------------------------
#
# An integer vector is the ascending coefficient tuple of a polynomial with
# integer coefficients; the zero polynomial is the empty tuple.  Scaling by a
# positive constant changes no sign and no root, so the root layer works on
# these primitive multiples rather than on ``Fraction`` coefficients.


def _clear_denominators(p: Poly) -> tuple[list[int], int]:
    """Integer coefficients ``v`` and the least common denominator ``den`` of
    ``p``, so that ``p = v / den``."""
    den = 1
    for c in p.coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    return [c.numerator * (den // c.denominator) for c in p.coeffs], den


def _int_clear(p: Poly) -> tuple[int, ...]:
    """Integer coefficients of a positive rational multiple of ``p``.

    Clears denominators and divides out the content; all sign queries on the
    result agree with those on ``p``.
    """
    return _primitive(_clear_denominators(p)[0])


def _strip(v: list[int]) -> list[int]:
    """Drop trailing zeros of ``v`` in place."""
    while v and v[-1] == 0:
        v.pop()
    return v


def _primitive(v: list[int]) -> tuple[int, ...]:
    """``v`` (without trailing zeros) divided by its positive content."""
    content = math.gcd(*v) if v else 0
    if content > 1:
        return tuple(c // content for c in v)
    return tuple(v)


def _int_derivative(v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(i * c for i, c in enumerate(v) if i)


def _int_sub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    n = max(len(a), len(b))
    a, b = a + (0,) * (n - len(a)), b + (0,) * (n - len(b))
    return tuple(_strip([x - y for x, y in zip(a, b)]))


def _prem(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """A positive integer multiple of the remainder of ``a`` modulo ``b``.

    Pseudo-division: each step multiplies the running remainder by
    ``|lc(b)| / g`` with ``g = gcd(|lc(b)|, top coefficient)``, so the total
    multiplier is a positive divisor of ``|lc(b)|**delta`` and every sign
    of the true remainder is kept.  Trailing zeros are dropped.
    """
    n = len(b) - 1
    lead = b[-1]
    low = b[:-1] if lead > 0 else tuple(-c for c in b[:-1])
    lead = abs(lead)
    r = list(a)
    while len(r) > n:
        top = r.pop()
        if not top:
            continue
        g = math.gcd(lead, top)
        m, top = lead // g, top // g
        if m != 1:
            r = [m * c for c in r]
        k = len(r) - n
        for j, c in enumerate(low):
            if c:
                r[k + j] -= top * c
    return _strip(r)


def _int_exact_div(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Quotient ``a / b`` for primitive ``b`` dividing ``a``.

    By Gauss's lemma the quotient has integer coefficients, so each long
    division step divides exactly; a remainder signals an internal error.
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


def _int_gcd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Primitive greatest common divisor by the primitive pseudo-remainder sequence."""
    if len(a) < len(b):
        a, b = b, a
    a, b = _primitive(list(a)), _primitive(list(b))
    while b:
        a, b = b, _primitive(_prem(a, b))
    if a and a[-1] < 0:
        a = tuple(-c for c in a)
    return a


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor via the primitive pseudo-remainder sequence."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    return Poly(_int_gcd(_int_clear(a), _int_clear(b))).monic()


class TaggedPoly:
    """A polynomial paired with the reference degree it is a numerator for.

    The tag is the degree of the interpolating polynomial whose generating
    function the `poly` is the numerator of; it drives every degree-dependent
    operator (reversal, reflection, basis changes, Hadamard products).
    """

    __slots__ = ("poly", "ref_degree")

    def __init__(self, poly: Poly, ref_degree: int):
        if ref_degree < 0:
            raise ValueError("reference degree must be nonnegative")
        if not poly.is_zero and poly.degree > ref_degree:
            raise ValueError(
                f"tag violation: deg = {poly.degree} exceeds reference degree {ref_degree}"
            )
        self.poly = poly
        self.ref_degree = ref_degree

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaggedPoly):
            return NotImplemented
        return self.poly == other.poly and self.ref_degree == other.ref_degree

    def __hash__(self) -> int:
        return hash((self.poly, self.ref_degree))

    def __repr__(self) -> str:
        return f"TaggedPoly({self.poly!r}, ref_degree={self.ref_degree})"

    def __str__(self) -> str:
        return f"({self.poly}, d={self.ref_degree})"
