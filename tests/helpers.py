"""Test-only helpers: rational draws for seeded tests and the Reeve closed form.

The draws take the numerator, then the denominator, from a ``SplitMix64``:
the order in which the generators draw their integer pairs (n, q), so a
test and a generator on the same seed see the same values.
"""

from fractions import Fraction


def rational(rng, max_numerator: int, max_denominator: int) -> Fraction:
    """Nonnegative n/q with n <= max_numerator and 1 <= q <= max_denominator."""
    num = rng.randint(0, max_numerator)
    return Fraction(num, rng.randint(1, max_denominator))


def positive_rational(rng, max_numerator: int, max_denominator: int) -> Fraction:
    """Positive n/q with 1 <= n <= max_numerator and 1 <= q <= max_denominator."""
    num = rng.randint(1, max_numerator)
    return Fraction(num, rng.randint(1, max_denominator))


def closed_form(k: int) -> tuple[int, int, int]:
    """The three lowest f-coefficients (1, 4^k - 1, 17^k - 2*4^k + 1) of the
    k-th Reeve power."""
    if k < 1:
        raise ValueError("power must be at least 1")
    return (1, 4**k - 1, 17**k - 2 * 4**k + 1)
