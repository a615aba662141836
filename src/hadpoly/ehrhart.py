"""Diamond powers of the Reeve simplex numerator.

The Reeve tetrahedron (lattice simplex with vertices (0,0,0), (1,0,0),
(0,1,0), (1,7,8)) has lattice-point numerator 1 + 7x^2 in dimension 3; its
f-polynomial is 8x^3 + 10x^2 + 3x + 1.  Taking Cartesian powers of the
simplex multiplies the point-count polynomials, so the f-polynomial of the
k-fold power is the k-fold diamond power of the base f-polynomial.  Its three
lowest coefficients obey

    f_(k+1,0) = f_(k,0)
    f_(k+1,1) = 3 f_(k,0) + 4 f_(k,1)
    f_(k+1,2) = 10 f_(k,0) + 26 f_(k,1) + 17 f_(k,2)

with closed forms (1, 4^k - 1, 17^k - 2*4^k + 1), and the strict inequality
f_(k,1)^2 < f_(k,0) f_(k,2) for every k >= 1: no power is log-concave, hence
none is real-rooted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .analysis import PropertyReport, is_log_concave, is_real_rooted
from .operators import diamond, diamond_power, h_from_f
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
    """f-polynomial of the k-fold Cartesian power: the k-fold diamond power."""
    if k < 1:
        raise ValueError("power must be at least 1")
    return diamond_power(reeve().f_poly, k)


def closed_form(k: int) -> tuple[Fraction, Fraction, Fraction]:
    """The three lowest coefficients (1, 4^k - 1, 17^k - 2*4^k + 1) exactly."""
    if k < 1:
        raise ValueError("power must be at least 1")
    return (Fraction(1), Fraction(4**k - 1), Fraction(17**k - 2 * 4**k + 1))


def counterexample_report(k_max: int) -> PropertyReport:
    """Confirm, for every k <= k_max, that the k-fold power misbehaves.

    Checks that the computed diamond power matches the closed-form low
    coefficients, that f_(k,1)^2 < f_(k,0) f_(k,2), that the f-polynomial is
    not log-concave, and that the underlying degree-3k numerator is not
    real-rooted.  Holds iff every k passes; the witness names the first
    failing stage otherwise.  The powers are folded one diamond product per
    k, as ``product_f`` folds them.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    base = reeve().f_poly
    f = base
    for k in range(1, k_max + 1):
        if k > 1:
            f = diamond(f, base)
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
        numerator = h_from_f(f, 3 * k)
        if is_real_rooted(numerator).holds:
            return PropertyReport.failed(
                {"k": k, "stage": "real-rootedness"},
                f"numerator of power {k} is unexpectedly real-rooted",
            )
    return PropertyReport.passed(
        f"counterexample confirmed for every k in 1..{k_max}"
    )
