"""Test-only helpers: rational draws for seeded tests, the bullet and
diamond routes of the Hadamard product, binomial sums for the basis changes,
the reflection, the numerator of a value sequence and the subdivision, the
closed form of the symmetric decomposition, a ``Fraction`` Newton sum, ring
formulas for the f-side split, the defect-1 factor and the diamond power, a
derivative, rational evaluation, the Sturm interval count, a rational
Euclidean chain, the Reeve closed form and the Eulerian polynomials.

Nothing here comes from ``hadpoly.operators``, so the routes are independent
of the code they cross-check: ``diamond_route`` runs on Wagner's derivative
formula for the diamond product and on binomial sums for the h <-> f basis
changes, where ``operators`` works on value sequences and Horner's rule, and
``newton_sum`` sums ``Fraction`` Newton coefficients, where ``w_inverse``
sums integers.  ``reflection_by_binomials``, ``numerator_by_binomials`` and
``subdivision_by_binomials`` are explicit binomial sums for ``reflect``,
``numerator_at`` and ``subdivision``, and ``symmetric_split`` is the closed
form of ``i_decompose``.
``reflection_split``, ``defect1_by_division`` and ``diamond_fold`` are the
``Poly`` ring formulas of ``r_decompose``, ``defect1_ell`` and
``diamond_power``, which compose the value maps instead.
``count_real_roots`` counts distinct real roots on an interval with the Sturm
chain of the square-free part, the second root-count method beside
``isolate_roots``.

The draws take the numerator, then the denominator, from a ``SplitMix64``:
the order in which the generators draw their integer pairs (n, q), so a
test and a generator on the same seed see the same values.
"""

import math
from fractions import Fraction

from hadpoly.poly import (
    Poly,
    TaggedPoly,
    _horner,
    _int_derivative,
    _int_exact_div,
    _rational,
    reverse,
)
from hadpoly.roots import _chain_of, _int_sturm_chain, _sturm_count


def rational(rng, max_numerator: int, max_denominator: int) -> Fraction:
    """Nonnegative n/q with n <= max_numerator and 1 <= q <= max_denominator."""
    num = rng.randint(0, max_numerator)
    return Fraction(num, rng.randint(1, max_denominator))


def positive_rational(rng, max_numerator: int, max_denominator: int) -> Fraction:
    """Positive n/q with 1 <= n <= max_numerator and 1 <= q <= max_denominator."""
    num = rng.randint(1, max_numerator)
    return Fraction(num, rng.randint(1, max_denominator))


def comb0(n: int, k: int) -> int:
    """Binomial coefficient with the convention C(n, k) = 0 outside 0 <= k <= n."""
    if k < 0 or k > n or n < 0:
        return 0
    return math.comb(n, k)


def bullet_monomial(k: int, a: int, l: int, b: int) -> tuple[int, ...]:
    """Product of the basis monomials x^k y^(a-k) and x^l y^(b-l).

    Entry i is the coefficient of x^i y^(a+b-i), namely
    C(a-k+l, i-k) * C(b-l+k, i-l), with binomials vanishing outside their
    range.
    """
    if not (0 <= k <= a):
        raise ValueError(f"range violation: need 0 <= k <= a, got k={k}, a={a}")
    if not (0 <= l <= b):
        raise ValueError(f"range violation: need 0 <= l <= b, got l={l}, b={b}")
    return tuple(comb0(a - k + l, i - k) * comb0(b - l + k, i - l) for i in range(a + b + 1))


def bullet(t1: TaggedPoly, t2: TaggedPoly) -> TaggedPoly:
    """Bilinear extension of ``bullet_monomial``: coefficient k of a numerator
    tagged a multiplies x^k y^(a-k), and y = 1 reads the product back."""
    a, b = t1.ref_degree, t2.ref_degree
    out = [Fraction(0)] * (a + b + 1)
    for k, ck in enumerate(t1.poly.coeffs):
        if ck == 0:
            continue
        for l, cl in enumerate(t2.poly.coeffs):
            if cl == 0:
                continue
            w = ck * cl
            for i, t in enumerate(bullet_monomial(k, a, l, b)):
                if t != 0:
                    out[i] += w * t
    return TaggedPoly(Poly(out), a + b)


def binomial_basis_change(p: Poly, d: int, sign: int) -> Poly:
    """sum_i p_i x^i (1 + sign*x)^(d-i) by binomial sums: ``f_from_h`` at
    sign 1 and ``h_from_f`` at sign -1, for deg p <= d."""
    out = [Fraction(0)] * (d + 1)
    for i, c in enumerate(p.coeffs):
        for j in range(d - i + 1):
            out[i + j] += c * sign**j * math.comb(d - i, j)
    return Poly(out)


def reflection_by_binomials(f: Poly, d: int) -> Poly:
    """(-1)^d f(-x-1) = sum_m (sum_i f_i (-1)^(d+i) C(i, m)) x^m: the reference for
    ``reflect``."""
    out = [Fraction(0)] * len(f.coeffs)
    for i, c in enumerate(f.coeffs):
        for m in range(i + 1):
            out[m] += c * (-1) ** (d + i) * math.comb(i, m)
    return Poly(out)


def numerator_by_binomials(p: Poly, d: int) -> Poly:
    """h_i = sum_(j <= i) (-1)^(i-j) C(d+1, i-j) p(j) for i = 0..d, the coefficients
    of sum_j p(j) x^j times (1-x)^(d+1): the reference for ``numerator_at``."""
    out = [Fraction(0)] * (d + 1)
    for j in range(d + 1):
        value = evaluate(p, j)
        for i in range(j, d + 1):
            out[i] += (-1) ** (i - j) * math.comb(d + 1, i - j) * value
    return Poly(out)


def subdivision_by_binomials(p: Poly) -> Poly:
    """sum_m (Delta^m p)(0) x^m, with (Delta^m p)(0) = sum_(j <= m) (-1)^(m-j) C(m, j)
    p(j) for m = 0..deg p: the reference for ``subdivision``."""
    n = len(p.coeffs)
    out = [Fraction(0)] * n
    for j in range(n):
        value = evaluate(p, j)
        for m in range(j, n):
            out[m] += (-1) ** (m - j) * math.comb(m, j) * value
    return Poly(out)


def symmetric_split(h: Poly, d: int) -> tuple[Poly, Poly]:
    """(a, b) with b = (x^d h(1/x) - h) / (1 - x) and a = h - x b: the closed form
    of ``i_decompose``.  With h = a + x b, reverse(a, d) = a and reverse(b, d-1) = b,
    x^d h(1/x) = a + b, so x^d h(1/x) - h = (1 - x) b."""
    b, remainder = divmod(reverse(h, d) - h, Poly([1, -1]))
    assert remainder.is_zero
    return h - Poly.x() * b, b


def newton_sum(h: Poly, d: int) -> Poly:
    """sum_j f_j C(x, j) over ``Fraction`` polynomials, for the coefficients f_j of
    the f-polynomial of (h, d): the reference for ``w_inverse``."""
    acc = Poly()
    basis = Poly.one()  # C(x, j), by C(x, j+1) = C(x, j) (x - j) / (j + 1)
    for j, c in enumerate(binomial_basis_change(h, d, 1).coeffs):
        acc = acc + Poly([c]) * basis
        basis = basis * Poly([Fraction(-j, j + 1), Fraction(1, j + 1)])
    return acc


def evaluate(p: Poly, x) -> Fraction:
    """p(x) for an int or ``Fraction`` x, by Horner's rule on the numerators."""
    value, scale = _horner(p._num, x)
    return Fraction(value, p._den * scale)


def derivative(p: Poly, order: int = 1) -> Poly:
    """The derivative of p of the given order (zero when order > deg p)."""
    v = p._num
    for _ in range(order):
        v = _int_derivative(v)
    return Poly._from_ints(v, p._den)


def diamond_by_derivatives(f: Poly, g: Poly) -> Poly:
    """Wagner's diamond product, sum_j f^(j)(x)/j! * g^(j)(x)/j! * x^j (x+1)^j."""
    if f.is_zero or g.is_zero:
        return Poly()
    acc = Poly()
    for j in range(min(f.degree, g.degree) + 1):
        term = derivative(f, j) * derivative(g, j) * Poly([0, 1, 1]) ** j
        acc = acc + Poly([Fraction(1, math.factorial(j) ** 2)]) * term
    return acc


def reflection_split(f: Poly, d: int) -> tuple[Poly, Poly]:
    """(a~, b~) = ((x+1) f - x rf, rf - f) for the reflection rf = (-1)^d f(-x-1),
    taken as ``reverse`` between the binomial basis changes: the reference for
    ``r_decompose``."""
    rf = binomial_basis_change(reverse(binomial_basis_change(f, d, -1), d), d, 1)
    return Poly([1, 1]) * f - Poly.x() * rf, rf - f


def defect1_by_division(b1: Poly, b2: Poly) -> Poly:
    """((x+1) b1 <> (x+1) b2) / (x+1), by Wagner's formula and exact division:
    the reference for ``defect1_ell``."""
    x1 = Poly([1, 1])
    quotient, remainder = divmod(diamond_by_derivatives(x1 * b1, x1 * b2), x1)
    assert remainder.is_zero
    return quotient


def diamond_fold(f: Poly, k: int) -> Poly:
    """The left fold of Wagner's diamond product over k >= 1 copies of f: the
    reference for ``diamond_power``."""
    acc = f
    for _ in range(k - 1):
        acc = diamond_by_derivatives(acc, f)
    return acc


def diamond_route(t1: TaggedPoly, t2: TaggedPoly) -> TaggedPoly:
    """The Hadamard product of two tagged numerators through the diamond
    product of their f-polynomials: a cross-check of ``hadamard``."""
    d1, d2 = t1.ref_degree, t2.ref_degree
    f1, f2 = binomial_basis_change(t1.poly, d1, 1), binomial_basis_change(t2.poly, d2, 1)
    return TaggedPoly(binomial_basis_change(diamond_by_derivatives(f1, f2), d1 + d2, -1), d1 + d2)


def count_real_roots(p: Poly, lo: Fraction | None = None, hi: Fraction | None = None) -> int:
    """Distinct real roots of ``p`` in (lo, hi], with ``None`` meaning +-infinity.

    Counted on the Sturm chain of the square-free part p / gcd(p, p').
    Raises on a reversed interval (lo > hi); (lo, lo] is empty.
    """
    lo, hi = (None if x is None else _rational(x, "interval end") for x in (lo, hi))
    if lo is not None and hi is not None and lo > hi:
        raise ValueError(f"reversed interval: lo = {lo} > hi = {hi}")
    chain = _chain_of(p)  # its last element is gcd(p, p'), primitive
    return _sturm_count(_int_sturm_chain(_int_exact_div(chain[0], chain[-1])), lo, hi)


def _fraction_remainder(a: list, b: list) -> list:
    """The remainder of ``a`` by ``b`` over the rationals, by long division;
    neither ``b`` nor the result has a trailing zero."""
    r = list(a)
    while len(r) >= len(b):
        q = r[-1] / b[-1]
        shift = len(r) - len(b)
        for j, c in enumerate(b):
            r[shift + j] -= q * c
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return r


def euclidean_chain(v, w=None) -> list[list[Fraction]]:
    """The Sturm sequence v, w, -rem(v, w), ... over the rationals, up to the
    last nonzero element; ``w`` defaults to v'.  A constant ``v`` is its own
    chain."""
    chain = [[Fraction(c) for c in v]]
    if len(v) == 1:
        return chain
    if w is None:
        w = [i * c for i, c in enumerate(v) if i]
    chain.append([Fraction(c) for c in w])
    while r := _fraction_remainder(chain[-2], chain[-1]):
        chain.append([-c for c in r])
    return chain


def closed_form(k: int) -> tuple[int, int, int]:
    """The three lowest f-coefficients (1, 4^k - 1, 17^k - 2*4^k + 1) of the
    k-th Reeve power."""
    if k < 1:
        raise ValueError("power must be at least 1")
    return (1, 4**k - 1, 17**k - 2 * 4**k + 1)


def eulerian(n: int) -> Poly:
    """The Eulerian polynomial A_n, sum_k A(n, k) x^k, the numerator of
    sum_j (j+1)^n x^j over (1-x)^(n+1): by the recurrence
    A(n, k) = (k+1) A(n-1, k) + (n-k) A(n-1, k-1) from A(0, 0) = 1."""
    row = [1]
    for m in range(1, n + 1):
        row = [(k + 1) * a + (m - k) * b for k, (a, b) in enumerate(zip(row + [0], [0] + row))]
    return Poly(row)
