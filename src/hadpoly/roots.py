"""Exact real-root counting and isolation.

Everything here is exact, with no floating point, and runs on integer
vectors (primitive integer multiples of the polynomials, see ``poly``):

* Sturm chains are primitive pseudo-remainder sequences.  One chain of p
  itself, square-free or not, counts its distinct real roots on the whole
  line, and its last element is gcd(p, p').  On an interval they are
  counted on the chain of the square-free part p / gcd(p, p'), with zero
  signs dropped.  A chain starting a, b gives the Cauchy index of b/a and
  ends in gcd(a, b): with the chain of that gcd, it decides interlacing.
* Square-free (Yun) decomposition recovers multiplicities.
* Isolation bisects the square-free integer vector of a product of
  polynomials once, on Sturm counts of its chain, starting from a power of
  two above the Cauchy root bound; rational roots found by a divisor sweep
  or hit by a bisection point are reported exactly and divided out.  Every
  refinement then halves on that one deflated vector, carrying the sign at
  each interval's left end, and builds the immutable roots at the end.  The
  roots come out ascending, and each input's multiplicity at a root is read
  off the Yun factor of that input that vanishes there or changes sign
  across the interval, so no two algebraic numbers are ever compared.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .poly import (
    Poly,
    _horner,
    _int_derivative,
    _int_exact_div,
    _int_gcd,
    _int_mul,
    _int_sub,
    _prem,
    _primitive,
    _rational,
)

#: default maximum width of a reported isolating interval
DEFAULT_MAX_WIDTH = Fraction(1, 8)


def _int_sturm_chain(
    v: tuple[int, ...], w: tuple[int, ...] | None = None
) -> list[tuple[int, ...]]:
    """Sturm chain of the integer vector ``v``, as integer vectors.

    Element i is a positive multiple of the i-th element of the Euclidean
    chain v, w, -rem(v, w), ..., where ``w`` (nonzero) defaults to v': each
    remainder is ``poly._prem``'s, of the dividend times |lc(divisor)| to the
    degree gap plus one, divided by its negated content (the Sturm sign).
    The last element is a multiple of gcd(v, w), so ``v`` need not be
    square-free.  A constant ``v`` is its own chain.
    """
    if len(v) == 1:
        return [v]
    chain = [v, _primitive(list(_int_derivative(v) if w is None else w))]
    while r := _prem(chain[-2], chain[-1]):
        content = -math.gcd(*r)
        r = tuple([c // content for c in r])  # frees the undivided r before the next _prem
        chain.append(r)
    return chain


def _chain_of(p: Poly) -> list[tuple[int, ...]]:
    if p.is_zero:
        raise ValueError("Sturm chain of the zero polynomial is undefined")
    return _int_sturm_chain(_primitive(p._num))


def sturm_chain(p: Poly) -> list[Poly]:
    """Sturm chain of ``p``: positive multiples of p, p', -rem(...), ....

    Every element is a primitive integer polynomial.  ``p`` need not be
    square-free: the last element is then a multiple of gcd(p, p').
    """
    return [Poly(q) for q in _chain_of(p)]


def _variations(signs: list[int]) -> int:
    return sum(map(operator.ne, signs, signs[1:]))


def _variations_at(chain: list[tuple[int, ...]], x: Fraction) -> int:
    """Sign variations of the chain at ``x``, zero signs dropped.

    On the chain of a square-free vector that is also the count just right
    of ``x``: an element vanishing at x, other than the first, sits between
    two of opposite sign, and at a root of the first, the first two agree
    in sign just right of x.
    """
    return _variations([s for q in chain if (s := _sign_at(q, x))])


def _variations_at_infinity(chain: list[tuple[int, ...]], positive: bool) -> int:
    """Sign variations of the chain at +oo (``positive``) or -oo, with each
    sign read as a bool: is the element positive there?"""
    return _variations([(q[-1] > 0) is (positive or len(q) % 2 == 1) for q in chain])


def _sturm_count(
    chain: list[tuple[int, ...]], lo: Fraction | None = None, hi: Fraction | None = None
) -> int:
    """V(lo) - V(hi) of a chain, ``None`` meaning -oo at ``lo`` and +oo at
    ``hi``: for the Sturm chain of p, its distinct real roots in (lo, hi].
    A finite end needs p square-free (see ``_variations_at``)."""
    v_lo = _variations_at_infinity(chain, False) if lo is None else _variations_at(chain, lo)
    v_hi = _variations_at_infinity(chain, True) if hi is None else _variations_at(chain, hi)
    return v_lo - v_hi


def _index_and_reduced_degree(chain: list[tuple[int, ...]]) -> tuple[int, int]:
    """(V(-oo) - V(+oo), deg of the first element - deg of the last) of a chain."""
    return _sturm_count(chain), len(chain[0]) - len(chain[-1])


def distinct_root_counts(p: Poly) -> tuple[int, int]:
    """(distinct real roots, distinct complex roots) of nonzero ``p`` from one Sturm chain.

    The second count is deg p - deg gcd(p, p'), read off the chain's last
    element; no square-free part is computed.
    """
    return _index_and_reduced_degree(_chain_of(p))


def real_rooted_interlacing(b: Poly, a: Poly) -> bool:
    """Are ``a`` and ``b`` real-rooted, deg a >= 1, deg b in {deg a - 1, deg a},
    and do the roots of ``b`` interlace those of ``a``?  False on zero input.

    One remainder chain a, +-b, -rem(a, b), ..., ending in g = gcd(a, b),
    decides it (Hermite-Kakeya-Obreschkoff).  With b's sign matched to a's,
    its V(-oo) - V(+oo) is the Cauchy index of b/a, at most deg a - deg g;
    equality holds iff every pole of the reduced fraction is real and simple
    with a positive residue, i.e. iff b/g is real-rooted and interlaces a/g.  A
    common real-rooted factor keeps that, so g's own chain decides the rest.
    """
    if a.is_zero or b.is_zero or a.degree < 1 or b.degree not in (a.degree - 1, a.degree):
        return False
    sign = 1 if (a._num[-1] > 0) == (b._num[-1] > 0) else -1
    chain = _int_sturm_chain(_primitive(a._num), _primitive([sign * c for c in b._num]))
    index, poles = _index_and_reduced_degree(chain)
    if index != poles:
        return False
    found, distinct = _index_and_reduced_degree(_int_sturm_chain(chain[-1]))
    return found == distinct


def square_free_part(p: Poly) -> Poly:
    """Monic square-free part p / gcd(p, p')."""
    if p.is_zero:
        raise ValueError("square-free part of the zero polynomial is undefined")
    v = _primitive(p._num)
    return Poly(_int_exact_div(v, _int_gcd(v, _int_derivative(v)))).monic()


def yun_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Square-free factorization: pairwise-coprime monic factors with multiplicity.

    Returns pairs (q, m) with p proportional to the product of q**m and every
    q square-free; factors of multiplicity m collect exactly the roots of p
    of multiplicity m.
    """
    if p.is_zero:
        raise ValueError("square-free factorization of zero is undefined")
    return [(Poly(q).monic(), m) for q, m in _yun(_primitive(p._num))]


def _yun(v: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """Yun's square-free factorization of the nonzero integer vector ``v``.

    The factors are primitive with positive leading coefficient.  Each gcd
    is primitive and each division exact, so ``c`` and ``d`` stay integer
    multiples of Yun's sequences by one common constant.
    """
    if len(v) == 1:
        return []
    dv = _int_derivative(v)
    g = _int_gcd(v, dv)
    factors = []
    c = _int_exact_div(v, g)
    d = _int_sub(_int_exact_div(dv, g), _int_derivative(c))
    i = 1
    while len(c) > 1:
        q = _int_gcd(c, d)
        if len(q) > 1:
            factors.append((q, i))
        c = _int_exact_div(c, q)
        d = _int_sub(_int_exact_div(d, q), _int_derivative(c))
        i += 1
    return factors


def _root_bound(v: tuple[int, ...]) -> Fraction:
    """The smallest power of two at least the Cauchy bound 1 + max|a_i|/|a_n|.

    Every real root of nonconstant ``v`` lies strictly inside (-B, B), and
    bisection points stay dyadic.
    """
    ceil_ratio = -(-max(map(abs, v[:-1])) // abs(v[-1]))
    return Fraction(1 << ceil_ratio.bit_length())


# Skip the rational-root sweep when divisor enumeration would get expensive;
# roots stay correctly isolated, just not recognized as exact rationals.
_SWEEP_COEFF_CAP = 10**6
_SWEEP_CANDIDATE_CAP = 4096


def _divisors(n: int) -> list[int]:
    """Positive divisors of n > 0 by trial division."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _linear_factor(r: Fraction) -> tuple[int, ...]:
    """The primitive integer vector of x - r."""
    return (-r.numerator, r.denominator)


def _rational_roots_capped(ints: tuple[int, ...]) -> list[Fraction]:
    """All rational roots of the square-free primitive ``ints``, via candidate divisors.

    A root at zero is always detected; the divisor sweep for the remaining
    candidates runs only while the constant and leading coefficients stay
    small.
    """
    found = []
    if ints[0] == 0:
        found.append(Fraction(0))
        ints = _int_exact_div(ints, _linear_factor(Fraction(0)))
    if len(ints) < 2:
        return found
    a0, an = abs(ints[0]), abs(ints[-1])
    if a0 > _SWEEP_COEFF_CAP or an > _SWEEP_COEFF_CAP:
        return found
    nums = _divisors(a0)
    dens = _divisors(an)
    if len(nums) * len(dens) > _SWEEP_CANDIDATE_CAP:
        return found
    for num in nums:
        for den in dens:
            if math.gcd(num, den) > 1:  # met already, in lowest terms, earlier in the sweep
                continue
            cand = Fraction(num, den)
            for signed in (cand, -cand):
                if _sign_at(ints, signed) == 0:
                    found.append(signed)
    return found


def _sign_at(int_coeffs: tuple[int, ...], x: Fraction) -> int:
    """Sign of the polynomial with the given integer coefficients at x."""
    value = _horner(int_coeffs, x)[0]
    return (value > 0) - (value < 0)


@dataclass(frozen=True)
class RealRoot:
    """A single real root: an exact rational (lo == hi) or the only root in
    the open interval (lo, hi)."""

    lo: Fraction
    hi: Fraction

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi


@dataclass(frozen=True)
class RootInterval(RealRoot):
    multiplicity: int


def _isolate_square_free(
    work: tuple[int, ...]
) -> tuple[list[Fraction], list[tuple[Fraction, Fraction]], tuple[int, ...]]:
    """The exact rational roots, the isolating intervals of the other real
    roots, and ``work`` with the exact roots divided out, for the square-free
    integer vector ``work``.

    The intervals are disjoint, and their ends are neither roots nor exact
    roots found by bisection; an exact root found by the sweep may lie inside.
    """
    exact = sorted(_rational_roots_capped(work))
    for r in exact:
        work = _int_exact_div(work, _linear_factor(r))
    if len(work) == 1:
        return exact, [], work
    chain = _int_sturm_chain(work)
    bound = _root_bound(work)
    # A rational root at a bisection point is divided out, so no interval end
    # is a root and the Sturm count on (lo, hi] is that on (lo, hi).
    isolated = []
    stack = [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        v = _sturm_count(chain, lo, hi)
        if v == 0:
            continue
        if v == 1:
            isolated.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        if _sign_at(work, mid) == 0:
            exact.append(mid)
            work = _int_exact_div(work, _linear_factor(mid))
            chain = _int_sturm_chain(work)
        stack.append((lo, mid))
        stack.append((mid, hi))
    return exact, isolated, work


def _halve(work: tuple[int, ...], lo: Fraction, hi: Fraction, s: int) -> tuple:
    """(lo, hi, s) for the half of (lo, hi) around the one root of the
    square-free ``work`` in it, with s the sign of ``work`` at lo; an exact
    root (mid, mid, 0) if the midpoint hits it.  lo only moves to a point of
    sign s, so one evaluation decides each halving."""
    mid = (lo + hi) / 2
    s_mid = _sign_at(work, mid)
    if s_mid == 0:
        return mid, mid, 0
    return (mid, hi, s) if s_mid == s else (lo, mid, s)


def real_roots_of_product(
    polys: list[Poly], max_width: Fraction | None = None
) -> list[tuple[RealRoot, tuple[int, ...]]]:
    """The distinct real roots of the product of nonzero ``polys``, ascending.

    Each root comes with its multiplicity in every input, in input order (0
    where it is not a root of that input).  The square-free part of the
    product is isolated once; each interval is then refined below
    ``max_width`` if given, and touching neighbours are separated by refining
    the wider one (both on a tie, never an exact root), so intervals are
    pairwise disjoint and no interval end is a root.
    """
    if max_width is not None and _rational(max_width, "isolating width") <= 0:
        raise ValueError(f"isolating width must be positive, got {max_width}")
    if any(p.is_zero for p in polys):
        raise ValueError("cannot isolate roots of the zero polynomial")
    yuns = [_yun(_primitive(p._num)) for p in polys]
    # one input's Yun factors multiply to its square-free part; several need a gcd
    work: tuple[int, ...] = (1,)
    for q, _ in (factor for yun in yuns for factor in yun):
        work = _int_mul(work, q)
    if len(polys) > 1:
        work = _int_exact_div(work, _int_gcd(work, _int_derivative(work)))
    exact, isolated, work = _isolate_square_free(work)
    # Every halving runs on the final ``work``: a root divided out lies
    # outside each interval, so its factor has one sign there.
    roots = [(r, r, 0) for r in exact]
    for lo, hi in isolated:
        s = _sign_at(work, lo)
        while (max_width is not None and hi - lo > max_width) or any(lo < r < hi for r in exact):
            lo, hi, s = _halve(work, lo, hi, s)
        roots.append((lo, hi, s))
    roots.sort()  # disjoint entries, an exact one ahead of an interval starting at it
    for i in range(len(roots) - 1):
        while not roots[i][1] < roots[i + 1][0]:
            w1, w2 = (hi - lo for lo, hi, _ in roots[i : i + 2])
            if w1 >= w2:
                roots[i] = _halve(work, *roots[i])
            if w2 >= w1:
                roots[i + 1] = _halve(work, *roots[i + 1])
    located = [RealRoot(lo, hi) for lo, hi, _ in roots]
    return [
        (root, tuple(next((m for q, m in yun if _has_root(q, root)), 0) for yun in yuns))
        for root in located
    ]


def _has_root(q: tuple[int, ...], root: RealRoot) -> bool:
    """Is ``root`` a root of the square-free ``q``?  It is iff q vanishes at an
    exact root, or changes sign across the interval, whose ends are not roots."""
    if root.is_exact:
        return _sign_at(q, root.lo) == 0
    return _sign_at(q, root.lo) != _sign_at(q, root.hi)


def isolate_roots(p: Poly, max_width: Fraction = DEFAULT_MAX_WIDTH) -> tuple[RootInterval, ...]:
    """Isolating intervals of all real roots of ``p``, ascending, with multiplicities.

    Each interval holds exactly one distinct real root, an exact rational one
    when lo == hi.  The intervals are pairwise disjoint and no wider than
    ``max_width``, which must be positive (see ``real_roots_of_product``).
    The multiplicities sum to the number of real roots with multiplicity.
    """
    if p.degree == 0:
        raise ValueError("cannot isolate roots of a constant polynomial")
    located = real_roots_of_product([p], max_width)
    return tuple(RootInterval(r.lo, r.hi, m) for r, (m,) in located)
