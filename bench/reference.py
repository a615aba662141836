"""The reference computations that define a reference unit.

A unit is the time of one exact convolution of two fixed vectors of
``Fraction`` values, using only the standard library.  Every pass samples
the unit next to and inside the program's items and divides by it, so that
host speed cancels out of ``pass_ref``.

Two vector sets are kept, because code does not slow down alike when the
host is busy: small fractions (interpreter-bound, like the suites and the
Hadamard kernel) slow down three to four times as much as Fraction
arithmetic on numbers of a thousand digits and more (like the Reeve Sturm
chains).  Each workload uses the one whose slow-downs its own items follow.

Changing anything in this file changes the units and makes every earlier
figure incomparable: leave it as it is.
"""

from __future__ import annotations

from fractions import Fraction

_SMALL_N = 14
_SMALL_A = tuple(Fraction(2 * i + 1, i + 3) for i in range(_SMALL_N))
_SMALL_B = tuple(Fraction(i + 2, 3 * i + 1) for i in range(_SMALL_N))

# entries of about 1000 decimal digits in numerator and denominator
_LARGE_A = (Fraction(3**2100 + 1, 7**1180 + 2), Fraction(5**1430 + 3, 2**3320 + 1))
_LARGE_B = (Fraction(11**960 + 4, 3**2095 + 2), Fraction(13**900 + 1, 7**1185 + 6))


def _convolve(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> Fraction:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out[len(a) - 1]


def convolve_small() -> Fraction:
    """One small unit: 14 x 14 terms of small fractions, about 1 ms here."""
    return _convolve(_SMALL_A, _SMALL_B)


def convolve_large() -> Fraction:
    """One large unit: 2 x 2 terms of thousand-digit fractions."""
    return _convolve(_LARGE_A, _LARGE_B)


#: the unit each workload is measured in
UNITS = {"suites": convolve_small, "products": convolve_small, "reeve": convolve_large}
