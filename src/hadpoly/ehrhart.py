"""Hadamard powers of a nonnegative numerator, the Reeve tetrahedron's by default.

The Reeve tetrahedron (lattice simplex with vertices (0,0,0), (1,0,0),
(0,1,0), (1,7,8)) has numerator 1 + 7x^2 in dimension 3 and Ehrhart values
L(j) = C(j+3, 3) + 7 C(j+1, 3), the series coefficients of (1 + 7x^2)/(1-x)^4.
Its k-fold Cartesian power has the values L(j)^k, of degree n = 3k in j (the
tag of power k): its f-polynomial, the k-fold diamond power of
8x^3 + 10x^2 + 3x + 1, has coefficients f_(k,i) = Delta^i(L^k)(0), and its
numerator, L(0..n)^k times (1-x)^(n+1) truncated to degree n, is built from
f as ``h_from_f(f, n)``, one Horner pass in (1-x).  The three lowest
f-coefficients obey

    f_(k+1,0) = f_(k,0)
    f_(k+1,1) = 3 f_(k,0) + 4 f_(k,1)
    f_(k+1,2) = 10 f_(k,0) + 26 f_(k,1) + 17 f_(k,2)

with closed forms (1, 4^k - 1, 17^k - 2*4^k + 1), and the strict inequality
f_(k,1)^2 < f_(k,0) f_(k,2) for every k >= 1: no power is log-concave, hence
none is real-rooted.  Any nonnegative integer numerator h tagged d works the
same way, with its own values L(j) and tags n = d k.

``counterexample_report`` decides each k from L(0), L(1), L(2) alone: the
three lowest f-coefficients against the recurrence, the strict inequality,
then Newton's inequality at index 1 of the numerator, at the tag.  Full
polynomials are built only as cross-checks, at k <= 3, at k = min(k_max, 60)
and at any k that certificate misses: their low coefficients must be the
sweep's, f must fail log-concavity, decided on its integer numerators by
the kernel of ``is_log_concave`` with no failure text, and the numerator
some Newton inequality or else its Sturm chain.  Both are built over
denominator 1, so every comparison reads integer numerators, and the report
formats no number it does not print.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator

from .analysis import (
    PropertyReport,
    _log_concave_index,
    _newton_index,
    _printed,
    _require_nonnegative,
    is_nonnegative,
    is_real_rooted,
    newton_violation,
)
from .operators import _forward_differences, _series_values, diamond_power, h_from_f
from .poly import Poly, _check_int, _check_tag


@dataclass(frozen=True)
class ReeveData:
    """Constants of the Reeve tetrahedron; no lattice-point counting happens here."""

    hstar: Poly
    dim: int
    f_poly: Poly
    vertices: tuple[tuple[int, int, int], ...]


_REEVE = ReeveData(
    Poly([1, 0, 7]), 3, Poly([1, 3, 10, 8]), ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 7, 8))
)


def reeve() -> ReeveData:
    """The Reeve tetrahedron's numerator and f-polynomial."""
    return _REEVE


def product_f(k: int) -> Poly:
    """f-polynomial of the k-fold Cartesian power: the k-fold diamond power.

    Kept as an independent cross-check of ``powers``.
    """
    return diamond_power(_REEVE.f_poly, k)


def _values(h: Poly, d: int, count: int) -> list[int]:
    """L(0..count-1), the series coefficients of h / (1-x)^(d+1); L(j) reads h_0..h_j."""
    _check_tag(h, d, "h")
    if h._den != 1 or not is_nonnegative(h):
        raise ValueError(f"need a nonnegative integer numerator of degree at most {d}")
    return _series_values(h._num[:count], d, count)


def _power(k: int, h: Poly, d: int) -> tuple[Poly, Poly]:
    """(f-polynomial, numerator) of power k: the forward differences of its values
    L(0..n)^k, and that f's coordinates in the basis x^i (x+1)^(n-i)."""
    n = d * k
    f = Poly._from_ints(_forward_differences([value**k for value in _values(h, d, n + 1)]))
    return f, h_from_f(f, n)


def powers(
    k_max: int, h: Poly = _REEVE.hstar, d: int = _REEVE.dim
) -> Iterator[tuple[int, Poly, Poly]]:
    """Yield (k, f-polynomial, numerator) of the k-th Hadamard power of (h, d)
    for k = 1..k_max, each built in full."""
    _check_int(k_max, "k_max", 1)
    for k in range(1, k_max + 1):
        yield (k, *_power(k, h, d))


def low_coefficients(
    k_max: int, h: Poly = _REEVE.hstar, d: int = _REEVE.dim
) -> Iterator[tuple[int, tuple[int, int, int], tuple[int, int, int]]]:
    """Yield (k, (f_(k,0), f_(k,1), f_(k,2)), (h_(k,0), h_(k,1), h_(k,2))) for
    k = 1..k_max, the lowest coefficients of the f-polynomial and of the
    numerator of power k, from P_j = L(j)^k (j <= 2) carried across k.

    f_(k,i) = Delta^i(L^k)(0), so f = (P_0, P_1 - P_0, P_2 - 2 P_1 + P_0).
    The numerator is sum_j P_j x^j times (1-x)^(n+1), whose coefficients at
    x and x^2 are -(n+1) and C(n+1, 2), so h = (P_0, P_1 - (n+1) P_0,
    P_2 - (n+1) P_1 + C(n+1, 2) P_0).  That product vanishes above degree n,
    so this holds at every tag, n < 2 included.
    """
    _check_int(k_max, "k_max", 1)
    l0, l1, l2 = _values(h, d, 3)
    p0 = p1 = p2 = 1
    for k in range(1, k_max + 1):
        p0, p1, p2 = p0 * l0, p1 * l1, p2 * l2
        m = d * k + 1  # n + 1
        yield k, (p0, p1 - p0, p2 - 2 * p1 + p0), (p0, p1 - m * p0, p2 - m * p1 + comb(m, 2) * p0)


def _newton_fails_at_tag(h_lows: tuple[int, int, int], n: int) -> bool:
    """h_1^2 (n-1) < 2n h_0 h_2: Newton's inequality at index 1 fails at the tag n.

    This certifies that the numerator is not real-rooted.  The left side is
    >= 0, so a failure gives h_0 h_2 > 0, and the true degree m has
    2 <= m <= n.  At degree m, index 1 needs h_1^2 >= h_0 h_2 2m/(m-1)
    (Hardy, Littlewood & Polya, *Inequalities*, 2.22), and 2m/(m-1) does not
    increase with m, so h_1^2 < h_0 h_2 2n/(n-1) <= h_0 h_2 2m/(m-1): index 1
    fails at m as well, and ``newton_violation`` returns 1.
    """
    return _newton_index(h_lows, n) == 1


def _lows_differ(k: int, got: tuple) -> PropertyReport:
    return PropertyReport.failed(
        {"k": k, "stage": "closed form", "got": [_printed(c) for c in got]},
        f"low coefficients at k={k} differ from the closed form",
    )


def counterexample_report(
    k_max: int, h: Poly = _REEVE.hstar, d: int = _REEVE.dim
) -> PropertyReport:
    """Confirm, for every k <= k_max, that the k-th Hadamard power of (h, d)
    is not log-concave and its numerator not real-rooted, in the stages of
    the module docstring.  Holds iff every k passes; the witness names the
    first failing stage otherwise.

    f_(k,0) f_(k,2) - f_(k,1)^2 = P_0 P_2 - P_1^2 = (L0 L2)^k - L1^(2k), so
    the strict inequality holds at every k exactly when L1^2 < L0 L2 (16 < 17
    for Reeve); it breaks log-concavity of the nonnegative f at index 1.  So
    the sweep's check at k = 1, L1^2 < L0 L2, gives the strict inequality at
    every k >= 1, and a pass says so.
    """
    _check_int(k_max, "k_max", 1)
    l0, l1, l2 = _values(h, d, 3)
    # f of power k+1 from that of power k, since P_j = sum_i C(j, i) f_i and
    # P_j -> L(j) P_j; for Reeve it is the recurrence of the module docstring
    a, b, c = l1 - l0, l2 - 2 * l1 + l0, 2 * (l2 - l1)
    expected = (1, 0, 0)
    checked = {1, 2, 3, min(k_max, 60)}
    for k, f_lows, h_lows in low_coefficients(k_max, h, d):
        e0, e1, e2 = expected
        expected = (l0 * e0, a * e0 + l1 * e1, b * e0 + c * e1 + l2 * e2)
        if f_lows != expected:
            return _lows_differ(k, f_lows)
        f0, f1, f2 = f_lows
        if not f1 * f1 < f0 * f2:
            return PropertyReport.failed(
                {"k": k, "stage": "strict inequality"},
                f"f_(k,1)^2 < f_(k,0) f_(k,2) fails at k={k}",
            )
        if k not in checked and _newton_fails_at_tag(h_lows, d * k):
            continue
        f, numerator = _power(k, h, d)
        for full, lows in ((f, f_lows), (numerator, h_lows)):
            got = (full._num + (0, 0, 0))[:3]  # _power builds both over denominator 1
            if got != lows:
                return _lows_differ(k, got)
        if _log_concave_index(_require_nonnegative(f)) is None:
            return PropertyReport.failed(
                {"k": k, "stage": "log-concavity"},
                f"power {k} is unexpectedly log-concave",
            )
        if newton_violation(numerator) is None and is_real_rooted(numerator).holds:
            return PropertyReport.failed(
                {"k": k, "stage": "real-rootedness"},
                f"numerator of power {k} is unexpectedly real-rooted",
            )
    return PropertyReport.passed(
        f"counterexample confirmed for every power k >= 1, and power by power up to {k_max}"
    )
