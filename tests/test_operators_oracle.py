"""The reflection and the functional equation against sympy as an independent oracle.

``reflect`` and ``check_functional_eq`` work through the h <-> f maps and on
value sequences; here sympy composes the polynomials directly.  sympy is used
only in tests, never by the package.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hadpoly.operators import check_functional_eq, reflect
from hadpoly.poly import Poly

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def to_sympy(p: Poly):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs or [0], X, domain="QQ")


def from_sympy(q) -> Poly:
    return Poly([Fraction(int(c.p), int(c.q)) for c in reversed(q.all_coeffs())])


@given(st.lists(rationals, max_size=9), st.integers(0, 3))
@example([1], 1)
@settings(max_examples=200, deadline=None)
def test_reflect_is_the_reflection(coeffs, extra):
    """reflect(f, d) = (-1)^d f(-x-1) for tags deg f .. deg f + 3."""
    f = Poly(coeffs)
    d = (f.degree or 0) + extra
    expected = to_sympy(f).compose(sympy.Poly(-X - 1, X, domain="QQ")) * (-1) ** d
    assert reflect(f, d) == from_sympy(expected)


@st.composite
def near_solutions(draw):
    """q(x + a/2) + r, a = d + 1 - s, for a q of the parity of d: a solution of
    the functional equation at axis s, with a degree-d top coefficient.  The
    nudge r is zero or c x^j (x + a)^m with j + m <= d; it vanishes at 0 and
    at -a, so the two sides agree at 0, the witness is a coefficient past the
    constant term, and often past the first value where the sides differ."""
    d = draw(st.integers(0, 8))
    a = d + 1 - draw(st.integers(0, d))
    top = draw(rationals.filter(bool))
    lower = [draw(rationals) for _ in range(d % 2, d, 2)]
    y = X + sympy.Rational(a, 2)
    q = top * y**d + sum((c * y**k for c, k in zip(lower, range(d % 2, d, 2))), sympy.Integer(0))
    if d >= 2 and draw(st.booleans()):
        j = draw(st.integers(1, d - 1))
        m = draw(st.integers(1, d - j))
        q += draw(rationals) * X**j * (X + a) ** m
    return from_sympy(sympy.Poly(sympy.expand(q), X, domain="QQ"))


@given(near_solutions())
@example(Poly([1, 1]))  # a solution of odd degree: x + 1 at s = 0
@example(Poly([0, 0, 1, 3, 3, 1]))  # x^2 (x+1)^3: the sides differ by x^2 (x+1)^2 at s = 5
@settings(max_examples=200, deadline=None)
def test_functional_equation_against_sympy(p):
    """The verdict and the witness at every axis: the first coefficient of
    (-1)^d p(-(x + d + 1 - s)) - p(x), d = deg p."""
    if p.is_zero:
        return
    d = p.degree
    for s in range(d + 1):
        lhs = to_sympy(p).compose(sympy.Poly(-X - (d + 1 - s), X, domain="QQ")) * (-1) ** d
        diff = from_sympy(lhs - to_sympy(p))
        report = check_functional_eq(p, s)
        assert report.holds == diff.is_zero
        assert report.witness == (None if diff.is_zero else {"index": diff.support[0]})
