"""Operator calculus on numerators of polynomial-interpolated power series.

For p of degree at most d, sum_j p(j) x^j = h(x) / (1-x)^(d+1) for a
numerator h tagged d, and p's f-polynomial is f = sum_i (Delta^i p)(0) x^i =
sum_i h_i x^i (x+1)^(d-i).  Six maps on integer sequences, read over their
input's common denominator, carry the basis changes and the products:

* h <-> f: ``_binomial_horner``, sum_i v_i x^i (1 +- x)^(d-i) by Horner's rule
  in (1 +- x), d^2/2 additions: ``f_from_h`` and the f inside ``w_inverse``
  take the plus sign, ``h_from_f`` the minus sign;
* h -> values: ``_series_values``, p(0), p(1), ... by d+1 running prefix sums
  (``hadamard``, and the Ehrhart values of ``ehrhart``);
* values -> h: ``_difference``, the product with (1-x)^(d+1), truncated, one
  binomial sum per coefficient (``hadamard`` and ``numerator_at``);
* values -> f: ``_forward_differences``, the (Delta^i p)(0);
* f -> values: ``_newton_values``, p(j) = sum_i f_i C(j, i) by running sums
  (``diamond`` and ``diamond_power``);
* f -> p: ``_newton_monomials``, d! sum_i f_i C(x, i) in monomial coordinates.

``reflect``, (-1)^d f(-x-1), is ``reverse`` between the two basis changes, as
it swaps the coordinates i and d-i of f.  The Hadamard product
(h1, d1) x (h2, d2), the numerator of sum_j p1(j) p2(j) x^j, and the diamond
product f_p <> f_q = f_(pq) both multiply d1+d2+1 values pointwise, and
``diamond_power`` raises k deg f + 1 of them to the k-th power.
From tag D = ``_LANES_FROM`` = 21 on, ``hadamard`` and ``numerator_at`` take h in
two heads of about D/2 values: the upper half of h, read from the top, is the lower
head of rev_D(h), whose values are (-1)^D p(-1-j) by Stanley's reciprocity.  The
heads run as the two lanes of x = a + b 2^w, read back exactly by the signed split
``_split``: ``hadamard`` runs each factor and its reversal through one
``_series_values``, and both take their head and tail values to h by one
``_difference``.  The widths follow from |S_j| < max|v| 2^(count+d) for a series
lane and |h_m| <= 2^(D+1) max|value| for a numerator lane; below that tag the
packing costs more than the shorter sums save.
``numerator_at`` and ``subdivision`` take the values of p to h and to f, and
``check_functional_eq`` compares the values of its two sides: each value is
Horner's rule on p's integer numerators, read over their one denominator.
Test-only cross-checks of ``hadamard`` are in ``tests/helpers.py``:
``bullet``, a binomial formula on monomials, and ``diamond_route``, through
Wagner's derivative formula for the diamond product and binomial sums.
"""

from __future__ import annotations

import functools
import operator
from itertools import accumulate, chain, repeat
from math import comb, factorial
from typing import Sequence

from .analysis import PropertyReport, is_nonnegative
from .poly import Poly, TaggedPoly, _check_int, _check_tag, _horner, reverse


def _series_values(v: Sequence, d: int, count: int) -> list:
    """Coefficients 0..count-1 of v(x) / (1-x)^(d+1), by d+1 running prefix sums,
    chained as iterators at most 1000 deep and listed once per chain: each level
    of a chain is a nested C call, and a chain of 10**6 overflows C's stack."""
    for _ in range(d // 1000):
        v, d = _series_values(v, 999, count), d - 1000
    values = chain(v[:count], repeat(0, count - len(v)))
    for _ in range(d + 1):
        values = accumulate(values)
    return list(values)


@functools.lru_cache(maxsize=64)
def _signed_row(n: int) -> tuple[int, ...]:
    """The coefficients (-1)^j C(n, j) of (1-x)^n."""
    return tuple([(-1) ** j * comb(n, j) for j in range(n + 1)])


def _difference(values: list, times: int) -> list:
    """Coefficients 0..len(values)-1 of values(x) * (1-x)^times, one binomial sum each."""
    row = _signed_row(times)
    return [sum(map(operator.mul, row, values[m::-1])) for m in range(len(values))]


#: Tags from which ``hadamard`` and ``numerator_at`` run two heads on two lanes of one int
#: instead of the definition's D+1 values.  On rational factors of both ``products`` heights
#: (Python 3.11, best of 11-15), lanes took 1.04-1.43 times the definition's time at D = 12-18,
#: about as long at D = 19-20 and 0.79-0.98, with one outlier, at D = 21-28.
_LANES_FROM = 21


def _split(packed: list, width: int) -> tuple[list, list]:
    """The lanes a and b of each x = a + b 2^width, for |a| < 2^(width-1): with
    y = x + 2^(width-1), a is the low width bits of y less 2^(width-1), b = y >> width."""
    half, mask = 1 << (width - 1), (1 << width) - 1
    shifted = [x + half for x in packed]
    return [(y & mask) - half for y in shifted], [y >> width for y in shifted]


def _series_lanes(v: tuple, d: int, count: int) -> tuple[list, list]:
    """Series values 0..count-1 of v and of rev_d(v), both tagged d, by one
    ``_series_values`` run on v + rev_d(v) 2^w.  Value j is sum_(i<=j) v_i C(j-i+d, d),
    so |S_j| <= max|v| C(count+d, d+1) < max|v| 2^(count+d) < 2^(w-1)."""
    padded = v + (0,) * (d + 1 - len(v))
    width = max(map(abs, v), default=0).bit_length() + count + d + 1
    lanes = [a + (b << width) for a, b in zip(padded, reversed(padded))]
    return _split(_series_values(lanes, d, count), width)


def _numerator(head: list, tail: list, d: int) -> list:
    """Coefficients 0..d of the numerator tagged d whose values are head, d//2 + 1 of
    them, and whose reversal rev_d has the values tail, d - d//2 of them: the lower
    half from head, the upper half, read from the top, from tail.

    Both go through one ``_difference`` as head + tail 2^w.  Coefficient m is
    sum_t (-1)^t C(d+1, t) head_(m-t), so |h_m| <= 2^(d+1) max|head| < 2^(w-1),
    and ``_split`` reads both lanes back exactly.
    """
    width = max(map(abs, head), default=0).bit_length() + d + 2
    packed = [a + (b << width) for a, b in zip(head, tail + [0])]  # tail may be one short
    lower, upper = _split(_difference(packed, d + 1), width)
    return lower + upper[: len(tail)][::-1]


def _forward_differences(values: list) -> list:
    """(Delta^i v)(0) for i = 0..len(values)-1, where v(j) = values[j]."""
    coeffs = []
    while values:
        coeffs.append(values[0])
        values = list(map(operator.sub, values[1:], values))
    return coeffs


def _newton_values(v: Sequence, count: int) -> list:
    """sum_i v_i C(j, i) for j = 0..count-1, the inverse of ``_forward_differences``:
    each row is a constant v_i plus the running sums of the row before it."""
    row = [0] * count
    for c in reversed(v):
        row = list(accumulate([c] + row[:-1]))
    return row


def _newton_monomials(f: Sequence[int]) -> list[int]:
    """m with sum_j f_j C(x, j) = sum_i m_i x^i / n!, n = len(f) - 1: the inverse of
    ``subdivision``, by Horner's rule on sum_j f_j (n!/j!) x(x-1)...(x-j+1)."""
    m, weight = [], 1  # n!/j!, for j from n down
    for j in reversed(range(len(f))):
        m = [b - j * a for a, b in zip(m + [0], [0] + m)]  # times (x - j)
        m[0] += f[j] * weight
        weight *= j
    return m


def _binomial_horner(v: Sequence[int], d: int, op) -> list[int]:
    """sum_i v_i x^i (1 + x)^(d-i) for ``operator.add``, or (1 - x) for ``operator.sub``,
    where len(v) <= d + 1: by Horner's rule, times (1 +- x), plus the next v_i x^i."""
    out = []
    for c in list(v) + [0] * (d + 1 - len(v)):
        out = list(map(op, out + [0], [0] + out))
        out[-1] += c
    return out


def numerator_at(p: Poly, d: int) -> Poly:
    """Coefficients of p in the basis {C(x + d - i, d)}: the numerator of
    sum_j p(j) x^j over (1-x)^(d+1); requires deg p <= d.

    Below tag ``_LANES_FROM``, the values p(0), ..., p(d) times (1-x)^(d+1).  From it
    on, in two heads, as in ``hadamard``: coefficients 0..floor(d/2) from p(0), p(1), ...,
    the rest, read from the top, from (-1)^d p(-1), (-1)^d p(-2), ..., the series
    values of rev_d(h) by Stanley's reciprocity.
    """
    _check_tag(p, d, "p")
    if d < _LANES_FROM:
        values = [_horner(p._num, j)[0] for j in range(d + 1)]  # p(j) times p._den
        return Poly._from_ints(_difference(values, d + 1), p._den)
    low, sign = d // 2 + 1, (-1) ** d
    head = [_horner(p._num, j)[0] for j in range(low)]
    tail = [sign * _horner(p._num, -1 - j)[0] for j in range(d + 1 - low)]
    return Poly._from_ints(_numerator(head, tail, d), p._den)


def w_transform(p: Poly) -> TaggedPoly:
    """Numerator h of sum_j p(j) x^j = h(x) / (1-x)^(deg p + 1), tagged deg p."""
    if p.is_zero:
        raise ValueError("numerator transform of the zero polynomial is undefined")
    d = p.degree
    return TaggedPoly(numerator_at(p, d), d)


def w_inverse(h: Poly, d: int) -> Poly:
    """The polynomial p with w_transform(p) = (h, d): p = sum_j f_j C(x, j) for the
    forward differences f_j = (Delta^j p)(0), the coefficients of f_from_h(h, d).
    deg p = d whenever the coefficients of h do not sum to zero."""
    _check_tag(h, d, "h")
    f = _binomial_horner(h._num, d, operator.add)  # f_from_h, unstripped
    return Poly._from_ints(_newton_monomials(f), h._den * factorial(d))


def check_functional_eq(p: Poly, s: int) -> PropertyReport:
    """Does p satisfy (-1)^d p(-(x + d + 1 - s)) = p(x), d = deg p?

    This identity holds exactly when the numerator of p's generating function
    equals its own degree-s reversal.  Both sides have degree at most d, so
    their values at x = 0..d decide it; a failure names the first coefficient
    of their difference, read from the difference values by ``_newton_monomials``.
    """
    if p.is_zero:
        raise ValueError("functional equation of the zero polynomial is undefined")
    _check_int(s, "axis")
    d = p.degree
    if not 0 <= s <= d:
        raise ValueError(f"axis {s} must satisfy 0 <= s <= deg p = {d}")
    v = p._num  # both sides over p._den, which changes neither the verdict nor the witness
    diff = [(-1) ** d * _horner(v, s - d - 1 - x)[0] - _horner(v, x)[0] for x in range(d + 1)]
    if not any(diff):
        return PropertyReport.passed()
    j = next(i for i, c in enumerate(_newton_monomials(_forward_differences(diff))) if c)
    return PropertyReport.failed({"index": j}, f"sides differ first at coefficient {j}")


def subdivision(p: Poly) -> Poly:
    """Rewrite p in the binomial basis C(x, j) and substitute x^j for C(x, j).

    The coordinates are the iterated forward differences of p at 0, so the
    result is sum_j (Delta^j p)(0) x^j.
    """
    values = [_horner(p._num, j)[0] for j in range(len(p._num))]  # p(j) times p._den
    return Poly._from_ints(_forward_differences(values), p._den)


def f_from_h(h: Poly, d: int) -> Poly:
    """The f-polynomial sum_i h_i x^i (x+1)^(d-i) = (1+x)^d h(x/(1+x)).

    Coefficient m is sum_i h_i C(d-i, m-i): (Delta^m p)(0) for the values p(j) of h.
    """
    _check_tag(h, d, "h")
    return Poly._from_ints(_binomial_horner(h._num, d, operator.add), h._den)


def h_from_f(f: Poly, d: int) -> Poly:
    """Coordinates of f in the basis {x^i (x+1)^(d-i)}: (1-x)^d f(x/(1-x)).

    Coefficient m is sum_i f_i (-1)^(m-i) C(d-i, m-i): the numerator of f's values.
    """
    _check_tag(f, d, "f")
    return Poly._from_ints(_binomial_horner(f._num, d, operator.sub), f._den)


def reflect(f: Poly, d: int) -> Poly:
    """The reflection (-1)^d * f(-x-1); requires deg f <= d.

    An involution at fixed d.  In the basis x^i (x+1)^(d-i) it swaps the
    coordinates i and d-i: `reverse` of the coordinates ``h_from_f`` reads.
    """
    return f_from_h(reverse(h_from_f(f, d), d), d)


def diamond(f: Poly, g: Poly) -> Poly:
    """(f <> g)(x) = sum_j f^(j)(x)/j! * g^(j)(x)/j! * x^j (x+1)^j.

    With f = f_p and g = f_q, this is f_(pq): the forward differences of the values p(j) q(j).
    """
    count = len(f._num) + len(g._num) - 1
    values = map(operator.mul, _newton_values(f._num, count), _newton_values(g._num, count))
    return Poly._from_ints(_forward_differences(list(values)), f._den * g._den)


def diamond_power(f: Poly, k: int) -> Poly:
    """The diamond product of k copies of f; requires an int k >= 1.

    With f = f_p it is f_(p^k): the forward differences of the values p(j)^k,
    k deg f + 1 of them.
    """
    _check_int(k, "k", 1)
    values = _newton_values(f._num, k * max(len(f._num) - 1, 0) + 1)
    return Poly._from_ints(_forward_differences([v**k for v in values]), f._den**k)


def hadamard(t1: TaggedPoly, t2: TaggedPoly) -> TaggedPoly:
    """Hadamard product of tagged numerators: (h1, d1) x (h2, d2) -> (h, d1+d2).

    The result is the numerator of sum_j p1(j) p2(j) x^j over
    (1-x)^(d1+d2+1), where p_i = w_inverse(h_i, d_i) has the series
    h_i/(1-x)^(d_i+1).  It is the coefficientwise product of the two
    series, over the integers.  Since p1 p2 has degree at most D = d1+d2,
    its first D+1 values fix the numerator, which is their product with
    (1-x)^(D+1) truncated to degree D.  Below tag ``_LANES_FROM`` that is the
    route taken.  From it on, h comes in two heads on two lanes of one int
    (``_series_lanes``, ``_numerator``): by Stanley's reciprocity, sum_j p(-1-j) x^j
    = (-1)^d rev_d(h) / (1-x)^(d+1), and (-1)^d1 (-1)^d2 = (-1)^D, so rev_D(h) =
    rev_d1(h1) x rev_d2(h2): floor(D/2)+1 values give h's lower half, and ceil(D/2)
    values of the reversed factors give its upper half, read from the top.
    """
    d1, d2 = t1.ref_degree, t2.ref_degree
    top, v1, v2 = d1 + d2, t1.poly._num, t2.poly._num
    if top < _LANES_FROM:
        values = map(operator.mul, _series_values(v1, d1, top + 1), _series_values(v2, d2, top + 1))
        h = _difference(list(values), top + 1)
    else:  # each factor and its reversal in one run, on two lanes
        low = top // 2 + 1
        (a1, b1), (a2, b2) = _series_lanes(v1, d1, low), _series_lanes(v2, d2, low)
        tail = list(map(operator.mul, b1[: top + 1 - low], b2))
        h = _numerator(list(map(operator.mul, a1, a2)), tail, top)
    return TaggedPoly(Poly._from_ints(h, t1.poly._den * t2.poly._den), top)


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
