"""Test-only helpers: rational draws for seeded tests, the diamond route of
the Hadamard product and the Reeve closed form.

The draws take the numerator, then the denominator, from a ``SplitMix64``:
the order in which the generators draw their integer pairs (n, q), so a
test and a generator on the same seed see the same values.
"""

from fractions import Fraction

from hadpoly.operators import diamond, f_from_h, h_from_f
from hadpoly.poly import TaggedPoly


def rational(rng, max_numerator: int, max_denominator: int) -> Fraction:
    """Nonnegative n/q with n <= max_numerator and 1 <= q <= max_denominator."""
    num = rng.randint(0, max_numerator)
    return Fraction(num, rng.randint(1, max_denominator))


def positive_rational(rng, max_numerator: int, max_denominator: int) -> Fraction:
    """Positive n/q with 1 <= n <= max_numerator and 1 <= q <= max_denominator."""
    num = rng.randint(1, max_numerator)
    return Fraction(num, rng.randint(1, max_denominator))


def diamond_route(t1: TaggedPoly, t2: TaggedPoly) -> TaggedPoly:
    """The Hadamard product of two tagged numerators through the diamond
    product of their f-polynomials: a cross-check of ``hadamard``."""
    d1, d2 = t1.ref_degree, t2.ref_degree
    prod = diamond(f_from_h(t1.poly, d1), f_from_h(t2.poly, d2))
    return TaggedPoly(h_from_f(prod, d1 + d2), d1 + d2)


def closed_form(k: int) -> tuple[int, int, int]:
    """The three lowest f-coefficients (1, 4^k - 1, 17^k - 2*4^k + 1) of the
    k-th Reeve power."""
    if k < 1:
        raise ValueError("power must be at least 1")
    return (1, 4**k - 1, 17**k - 2 * 4**k + 1)
