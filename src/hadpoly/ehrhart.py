"""Cartesian powers of the Reeve tetrahedron, computed in value space.

The Reeve tetrahedron (lattice simplex with vertices (0,0,0), (1,0,0),
(0,1,0), (1,7,8)) has lattice-point numerator 1 + 7x^2 in dimension 3; its
f-polynomial is 8x^3 + 10x^2 + 3x + 1.  Its Ehrhart values are the series
coefficients L(j) = C(j+3, 3) + 7 C(j+1, 3) of (1 + 7x^2)/(1-x)^4.  Taking
Cartesian powers of the simplex multiplies the point counts, so the k-fold
power has the values L(j)^k, a polynomial of degree 3k in j.  Its
numerator is the product of L(0..3k)^k with (1-x)^(3k+1), truncated to
degree 3k (3k+1 backward differences), and its f-polynomial, the k-fold
diamond power of the base f-polynomial, has coefficients
f_(k,i) = Delta^i(L^k)(0) (forward differences).  The three lowest obey

    f_(k+1,0) = f_(k,0)
    f_(k+1,1) = 3 f_(k,0) + 4 f_(k,1)
    f_(k+1,2) = 10 f_(k,0) + 26 f_(k,1) + 17 f_(k,2)

with closed forms (1, 4^k - 1, 17^k - 2*4^k + 1), and the strict inequality
f_(k,1)^2 < f_(k,0) f_(k,2) for every k >= 1: no power is log-concave, hence
none is real-rooted.  The numerator's failure to be real-rooted is
certified by one failed Newton inequality, with a Sturm chain only as the
fallback when every Newton inequality holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .analysis import PropertyReport, is_log_concave, is_real_rooted, newton_violation
from .operators import _difference, _forward_differences, _series_values, diamond_power
from .poly import Poly


@dataclass(frozen=True)
class ReeveData:
    """Constants of the Reeve tetrahedron; no lattice-point counting happens here."""

    hstar: Poly = field(default_factory=lambda: Poly([1, 0, 7]))
    dim: int = 3
    f_poly: Poly = field(default_factory=lambda: Poly([1, 3, 10, 8]))
    vertices: tuple[tuple[int, int, int], ...] = (
        (0, 0, 0),
        (1, 0, 0),
        (0, 1, 0),
        (1, 7, 8),
    )


def reeve() -> ReeveData:
    """The Reeve tetrahedron's numerator and f-polynomial."""
    return ReeveData()


def product_f(k: int) -> Poly:
    """f-polynomial of the k-fold Cartesian power: the k-fold diamond power.

    Kept as an independent cross-check of ``powers``.
    """
    if k < 1:
        raise ValueError("power must be at least 1")
    return diamond_power(reeve().f_poly, k)


def closed_form(k: int) -> tuple[Fraction, Fraction, Fraction]:
    """The three lowest coefficients (1, 4^k - 1, 17^k - 2*4^k + 1) exactly."""
    if k < 1:
        raise ValueError("power must be at least 1")
    return (Fraction(1), Fraction(4**k - 1), Fraction(17**k - 2 * 4**k + 1))


def powers(k_max: int) -> Iterator[tuple[int, Poly, Poly]]:
    """Yield (k, f-polynomial, numerator) of the k-fold power for k = 1..k_max.

    Works on the integer Ehrhart values: the values of power k are those of
    power k-1 times L(j), extended to j <= 3k.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    data = reeve()
    ell = _series_values([int(c) for c in data.hstar.coeffs], data.dim, data.dim * k_max + 1)
    values: list[int] = []
    for k in range(1, k_max + 1):
        top = data.dim * k
        values = [v * l for v, l in zip(values, ell)] + [l**k for l in ell[len(values):top + 1]]
        yield k, Poly(_forward_differences(values)), Poly(_difference(values, top + 1))


def counterexample_report(k_max: int) -> PropertyReport:
    """Confirm, for every k <= k_max, that the k-fold power misbehaves.

    Checks that the f-polynomial from ``powers`` matches the closed-form low
    coefficients, that f_(k,1)^2 < f_(k,0) f_(k,2), that the f-polynomial is
    not log-concave, and that the degree-3k numerator is not real-rooted.
    Holds iff every k passes; the witness names the first failing stage
    otherwise.  Non-real-rootedness is certified by a failed Newton
    inequality (``analysis.newton_violation``); only if every inequality
    holds does ``is_real_rooted`` decide, so the verdict stays exact.
    """
    for k, f, numerator in powers(k_max):
        lows = tuple(f.coefficient(i) for i in range(3))
        expected = closed_form(k)
        if lows != expected:
            return PropertyReport.failed(
                {"k": k, "stage": "closed form", "got": [str(c) for c in lows]},
                f"low coefficients at k={k} differ from the closed form",
            )
        f0, f1, f2 = lows
        if not f1 * f1 < f0 * f2:
            return PropertyReport.failed(
                {"k": k, "stage": "strict inequality"},
                f"f_(k,1)^2 < f_(k,0) f_(k,2) fails at k={k}",
            )
        if is_log_concave(f).holds:
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
        f"counterexample confirmed for every k in 1..{k_max}"
    )
