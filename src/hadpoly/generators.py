"""Seeded random instances satisfying the hypotheses of the theorem suites.

Every generator draws only from a ``SplitMix64`` stream, so a (seed, trial)
pair reproduces the instance exactly.  Instances hold by construction
(products of linear factors x + n/q from integer pairs (n, q), multiplied
over the integers with one denominator by ``_linear_product``; gamma-basis
combinations; paired-root palindromes) or by rejection sampling against the
exact checker, bounded by ``REJECTION_BUDGET``; exhaustion raises instead of
silently skipping.  ``gen_ulc`` shrinks on that integer vector in one pass.
A constructed instance is not re-checked here: the suites validate every
hypothesis with the exact checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .analysis import gamma_contract, is_log_concave, is_ulc
from .decomp import SymDecomp
from .poly import Poly, TaggedPoly
from .rng import SplitMix64

REJECTION_BUDGET = 10_000


class GeneratorExhausted(RuntimeError):
    """A rejection-sampling generator ran out of attempts."""


@dataclass(frozen=True)
class TrialConfig:
    """Shared knobs for the verification suites.

    The same config always produces the same trial stream; coefficients and
    denominators of random rationals are bounded by ``max_coefficient``.
    """

    seed: int = 1
    trials: int = 200
    max_degree: int = 8
    max_coefficient: int = 9

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.max_degree < 1:
            raise ValueError("max_degree must be positive")
        if self.max_coefficient < 1:
            raise ValueError("max_coefficient must be positive")


def gen_real_rooted(rng: SplitMix64, degree: int, max_coeff: int) -> TaggedPoly:
    """Product of linear factors (x + r) with random nonnegative rational r.

    Real-rooted with nonnegative coefficients by construction; tagged with
    its own degree.
    """
    v, den = _linear_product(1, _shifts(rng, degree, max_coeff))
    return TaggedPoly(Poly._from_ints(v, den), degree)


def _shifts(rng: SplitMix64, degree: int, max_coeff: int) -> list[tuple[int, int]]:
    """``degree`` pairs (n, q) for n/q, drawn as ``rng.rational(max_coeff, max_coeff)``."""
    return [(rng.randint(0, max_coeff), rng.randint(1, max_coeff)) for _ in range(degree)]


def _linear_product(scale: Fraction | int, shifts: list[tuple[int, int]]) -> tuple[list[int], int]:
    """scale * prod (x + n/q) over the pairs (n, q), q > 0, as (q x + n) on one
    integer vector: that vector and its denominator, neither reduced."""
    v, den = [scale.numerator], scale.denominator
    for n, q in shifts:
        v = [n * a + q * b for a, b in zip(v + [0], [0] + v)]
        den *= q
    return v, den


def gen_ulc(rng: SplitMix64, degree: int, max_coeff: int) -> TaggedPoly:
    """Order-``degree`` ultra log-concave instance with no internal zeros.

    Starts from a real-rooted product and randomly shrinks interior
    coefficients, rejection sampling until the exact checker accepts; this
    reaches instances that are not real-rooted.
    """
    for _ in range(REJECTION_BUDGET):
        v, den = _linear_product(1, _shifts(rng, degree, max_coeff))
        shrink, big_q = [(1, 1)] * len(v), 1
        for j in range(1, len(v) - 1):
            if v[j] and rng.chance(1, 2):
                shrink[j] = _unit_interval_pair(rng, max_coeff)
                big_q *= shrink[j][1]
        # coefficient j times n_j/q_j is v[j] n_j (Q/q_j) over den Q, Q = prod q_j
        candidate = Poly._from_ints(
            [c * n * (big_q // q) for c, (n, q) in zip(v, shrink)], den * big_q
        )
        if is_ulc(candidate, degree).holds:
            return TaggedPoly(candidate, degree)
    raise GeneratorExhausted(
        f"no ULC instance of degree {degree} within {REJECTION_BUDGET} attempts"
    )


def gen_symmetric(
    rng: SplitMix64, s: int, defect: int, max_coeff: int
) -> TaggedPoly:
    """Symmetric, gamma-positive numerator with axis s and the given defect.

    Emits sum_i g_i x^i (1+x)^(s-2i) with random nonnegative g_i (at least
    one positive), tagged s + defect.
    """
    if s < 0 or defect < 0:
        raise ValueError("axis and defect must be nonnegative")
    gamma = [rng.rational(max_coeff, max_coeff) for _ in range(s // 2 + 1)]
    terms = gamma_contract(Poly(gamma), s)
    if terms.is_zero:
        terms = gamma_contract(Poly([rng.positive_rational(max_coeff, max_coeff)]), s)
    return TaggedPoly(terms, s + defect)


def gen_gamma_positive(rng: SplitMix64, s: int, max_coeff: int) -> TaggedPoly:
    """Symmetric gamma-positive numerator with axis s and defect zero."""
    return gen_symmetric(rng, s, 0, max_coeff)


def _unit_interval_pair(rng: SplitMix64, max_coeff: int) -> tuple[int, int]:
    """(n, q) with 0 < n <= q, for the rational n/q in (0, 1]."""
    a = rng.randint(1, max_coeff)
    b = rng.randint(1, max_coeff)
    return min(a, b), max(a, b)


def _point_in_gap(rng: SplitMix64, lo: Fraction, hi: Fraction) -> Fraction:
    """Random rational in the closed interval [lo, hi] (endpoints allowed)."""
    grid = 8
    return lo + Fraction(rng.randint(0, grid), grid) * (hi - lo)


def gen_interlacing_symdec(rng: SplitMix64, d: int, max_coeff: int) -> SymDecomp:
    """Nonnegative interlacing decomposition (a, b) at reference degree d.

    The symmetric part a is a product of paired factors (x + r)(x + 1/r) and
    copies of (x + 1), so its root multiset is closed under inversion; the
    roots of b are drawn inside consecutive root gaps of a, mirrored so b is
    palindromic as well.  Both parts carry random positive scales.  With
    small probability b is zero, exercising that convention.
    """
    scale_a = rng.positive_rational(max_coeff, max_coeff)
    if d == 0:
        return SymDecomp(Poly([scale_a]), Poly(), 0)
    pairs = rng.randint(0, d // 2)
    roots: list[Fraction] = []
    for _ in range(pairs):
        r = Fraction(*_unit_interval_pair(rng, max_coeff))
        roots.extend([-r, Fraction(-1) / r])
    roots.extend([Fraction(-1)] * (d - 2 * pairs))
    roots.sort(reverse=True)
    a = Poly._from_ints(*_linear_product(scale_a, [(-r.numerator, r.denominator) for r in roots]))

    if rng.chance(1, 8):
        b = Poly()
    else:
        m = d - 1
        t: list[Fraction] = [Fraction(0)] * m
        for i in range(m // 2):
            pick = _point_in_gap(rng, roots[i + 1], roots[i])
            t[i] = pick
            t[m - 1 - i] = Fraction(1) / pick
        if m % 2 == 1:
            t[m // 2] = Fraction(-1)  # the self-inverse middle gap contains -1
        scale_b = rng.positive_rational(max_coeff, max_coeff)
        b = Poly._from_ints(*_linear_product(scale_b, [(-r.numerator, r.denominator) for r in t]))
    return SymDecomp(a, b, d)


def gen_logconcave(rng: SplitMix64, degree: int, max_coeff: int) -> TaggedPoly:
    """Log-concave numerator with contiguous support, by rejection sampling.

    Coefficients on a random support window [u, degree] are positive random
    rationals; the exact checker filters.
    """
    for _ in range(REJECTION_BUDGET):
        candidate = gen_contiguous_nonneg(rng, degree, max_coeff)
        if is_log_concave(candidate.poly).holds:
            return candidate
    raise GeneratorExhausted(
        f"no log-concave instance of degree {degree} within {REJECTION_BUDGET} attempts"
    )


def gen_contiguous_nonneg(rng: SplitMix64, degree: int, max_coeff: int) -> TaggedPoly:
    """Nonnegative numerator whose support is the contiguous window [u, degree]."""
    u = rng.randint(0, degree)
    coeffs = [Fraction(0)] * u + [
        rng.positive_rational(max_coeff, max_coeff) for _ in range(degree - u + 1)
    ]
    return TaggedPoly(Poly(coeffs), degree)


def _random_palindromic(rng: SplitMix64, d: int, max_coeff: int) -> Poly:
    """Random nonnegative polynomial equal to its own degree-d reversal."""
    half = [rng.rational(max_coeff, max_coeff) for _ in range(d // 2 + 1)]
    coeffs = [Fraction(0)] * (d + 1)
    for i, c in enumerate(half):
        coeffs[i] = c
        coeffs[d - i] = c
    return Poly(coeffs)


def gen_nonneg_symdec(rng: SplitMix64, d: int, max_coeff: int) -> SymDecomp:
    """Random nonnegative symmetric decomposition at reference degree d."""
    a = _random_palindromic(rng, d, max_coeff)
    b = _random_palindromic(rng, d - 1, max_coeff) if d >= 1 else Poly()
    if a.is_zero and b.is_zero:
        a = Poly([1] * (d + 1))
    return SymDecomp(a, b, d)


def gen_gamma_positive_symdec(rng: SplitMix64, d: int, max_coeff: int) -> SymDecomp:
    """Random decomposition whose two halves are both gamma-positive."""
    a = gen_gamma_positive(rng, d, max_coeff).poly
    b = gen_gamma_positive(rng, d - 1, max_coeff).poly if d >= 1 else Poly()
    return SymDecomp(a, b, d)
