"""Operator calculus on numerators of polynomial-interpolated power series.

For a polynomial p of degree d, the series sum_j p(j) x^j is rational with
denominator (1-x)^(d+1); its numerator h = w_transform(p) has degree at most
d.  This module implements that transform and its inverse, the subdivision
operator (binomial basis C(x,j) -> x^j), conversions between a numerator h
and its f-polynomial f = sum_i h_i x^i (x+1)^(d-i), and the Hadamard product
of two tagged numerators: the coefficientwise product of the two series
h/(1-x)^(d+1), over the integers.  Expand each to its first D+1 coefficients
(D = d1+d2), multiply them pointwise and multiply the result by (1-x)^(D+1).

Two independent realizations of the same product are test-only
cross-checks of ``hadamard``, in ``tests/helpers.py``:

* bullet        -- the bilinear product that reads a numerator h tagged d as
                   the form sum_i h_i x^i y^(d-i), given by an explicit
                   binomial formula on monomials,
* diamond_route -- transport to f-polynomials, where the Hadamard product
                   becomes (f <> g)(x) = sum_j f^(j) g^(j) / (j!)^2 * x^j (x+1)^j.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .analysis import is_nonnegative
from .poly import Poly, TaggedPoly, _check_tag


def _series_values(v: Sequence, d: int, count: int) -> list:
    """Coefficients 0..count-1 of v(x) / (1-x)^(d+1), by d+1 running prefix sums."""
    values = list(v) + [0] * (count - len(v))
    for _ in range(d + 1):
        values = list(accumulate(values))
    return values


def _difference(values: list, times: int) -> list:
    """Coefficients 0..len(values)-1 of values(x) * (1-x)^times, by ``times``
    backward differences."""
    for _ in range(times):
        values = list(map(operator.sub, values, [0] + values))
    return values


def numerator_at(p: Poly, d: int) -> Poly:
    """Coefficients of p in the basis {C(x + d - i, d)}: the numerator of
    sum_j p(j) x^j over (1-x)^(d+1).

    Computed as the product of the value sequence p(0..d) with (1-x)^(d+1),
    truncated to degree d; requires deg p <= d.
    """
    _check_tag(p, d, "p")
    return Poly(_difference([p.evaluate(j) for j in range(d + 1)], d + 1))


def w_transform(p: Poly) -> TaggedPoly:
    """Numerator h of sum_j p(j) x^j = h(x) / (1-x)^(deg p + 1), tagged deg p."""
    if p.is_zero:
        raise ValueError("numerator transform of the zero polynomial is undefined")
    d = p.degree
    return TaggedPoly(numerator_at(p, d), d)


def w_inverse(h: Poly, d: int) -> Poly:
    """The polynomial p with w_transform(p) = (h, d), in Newton form.

    The f-polynomial f = f_from_h(h, d) holds the forward differences
    f_j = (Delta^j p)(0), so p = sum_j f_j C(x, j); deg p = d whenever the
    coefficients of h do not sum to zero.
    """
    acc = Poly()
    basis = Poly.one()  # C(x, j), by C(x, j+1) = C(x, j) (x - j) / (j + 1)
    for j, c in enumerate(f_from_h(h, d).coeffs):
        acc = acc + basis.scale(c)
        basis = basis * Poly([Fraction(-j, j + 1), Fraction(1, j + 1)])
    return acc


def subdivision(p: Poly) -> Poly:
    """Rewrite p in the binomial basis C(x, j) and substitute x^j for C(x, j).

    The coordinates are the iterated forward differences of p at 0, so the
    result is sum_j (Delta^j p)(0) x^j.
    """
    if p.is_zero:
        return Poly()
    return Poly(_forward_differences([p.evaluate(j) for j in range(p.degree + 1)]))


def _forward_differences(values: list) -> list:
    """(Delta^i v)(0) for i = 0..len(values)-1, where v(j) = values[j]."""
    coeffs = []
    while values:
        coeffs.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return coeffs


def f_from_h(h: Poly, d: int) -> Poly:
    """The f-polynomial sum_i h_i x^i (x+1)^(d-i) = (1+x)^d h(x/(1+x)).

    Coefficient m is sum_i h_i C(d-i, m-i).
    """
    _check_tag(h, d, "h")
    return _binomial_basis_change(h, d, 1)


def h_from_f(f: Poly, d: int) -> Poly:
    """Coordinates of f in the basis {x^i (x+1)^(d-i)}: (1-x)^d f(x/(1-x)).

    Coefficient m is sum_i f_i (-1)^(m-i) C(d-i, m-i).
    """
    _check_tag(f, d, "f")
    return _binomial_basis_change(f, d, -1)


def _binomial_basis_change(p: Poly, d: int, sign: int) -> Poly:
    """sum_i p_i x^i (1 + sign*x)^(d-i) by binomial sums over the integers."""
    out = [0] * (d + 1)
    for i, c in enumerate(p._num):
        if c:
            for j in range(d - i + 1):
                out[i + j] += c * sign**j * math.comb(d - i, j)
    return Poly._from_ints(out, p._den)


def diamond(f: Poly, g: Poly) -> Poly:
    """(f <> g)(x) = sum_j f^(j)(x)/j! * g^(j)(x)/j! * x^j (x+1)^j."""
    if f.is_zero or g.is_zero:
        return Poly()
    acc = Poly()
    xj = Poly.one()
    shift = Poly([0, 1]) * Poly([1, 1])  # x(x+1)
    fj, gj = f, g
    for j in range(min(f.degree, g.degree) + 1):
        if j > 0:
            xj = xj * shift
            fj = fj.derivative()
            gj = gj.derivative()
        scale = Fraction(1, math.factorial(j) ** 2)
        acc = acc + (fj * gj).scale(scale) * xj
    return acc


def diamond_power(f: Poly, k: int) -> Poly:
    """Left fold of the diamond product over k copies of f; requires k >= 1."""
    if k < 1:
        raise ValueError("diamond power requires k >= 1 (no degree-free identity)")
    acc = f
    for _ in range(k - 1):
        acc = diamond(acc, f)
    return acc


def hadamard(t1: TaggedPoly, t2: TaggedPoly) -> TaggedPoly:
    """Hadamard product of tagged numerators: (h1, d1) x (h2, d2) -> (h, d1+d2).

    The result is the numerator of sum_j p1(j) p2(j) x^j over
    (1-x)^(d1+d2+1), where p_i = w_inverse(h_i, d_i) has the series
    h_i/(1-x)^(d_i+1).  It is the coefficientwise product of the two
    series, over the integers.  Since p1 p2 has degree at most D = d1+d2,
    its first D+1 values fix the numerator, which is their product with
    (1-x)^(D+1) truncated to degree D.
    """
    d1, d2 = t1.ref_degree, t2.ref_degree
    top = d1 + d2
    p1, p2 = t1.poly, t2.poly
    s1, s2 = _series_values(p1._num, d1, top + 1), _series_values(p2._num, d2, top + 1)
    coeffs = _difference([a * b for a, b in zip(s1, s2)], top + 1)
    return TaggedPoly(Poly._from_ints(coeffs, p1._den * p2._den), top)


def msupp(f: Poly, d: int) -> frozenset[int]:
    """Indices of strictly positive coordinates of f in the basis x^i (x+1)^(d-i).

    Requires all coordinates to be nonnegative (f "magic positive").
    """
    h = h_from_f(f, d)
    report = is_nonnegative(h)
    if not report.holds:
        i, c = report.witness["index"], report.witness["value"]
        raise ValueError(f"not magic positive: coordinate {i} of the magic expansion is {c}")
    return frozenset(h.support)
