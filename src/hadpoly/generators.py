"""Seeded random instances satisfying the hypotheses of the theorem suites.

Every generator draws only from a ``SplitMix64`` stream, so a (seed, trial)
pair reproduces the instance exactly.  Rationals are drawn as integer pairs
(n, q) in the order of ``rng.rational``, with no ``Fraction``; linear
factors x + n/q multiply one at a time as q x + n (``_linear_product``).
Every instance holds by construction: products of linear factors;
gamma-basis combinations; paired-root palindromes; and, for log-concave and
ULC instances, successive coefficient ratios drawn and sorted so that they
do not increase (``_descending_ratio_vector``).  An instance is not checked
here: the suites validate every hypothesis with the exact checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd, lcm

from .analysis import gamma_contract
from .decomp import SymDecomp
from .poly import Poly, TaggedPoly, _check_int
from .rng import SplitMix64


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
        for name in ("seed", "trials", "max_degree", "max_coefficient"):
            _check_int(getattr(self, name), name)
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        for name in ("trials", "max_degree", "max_coefficient"):
            _check_int(getattr(self, name), name, 1)


def gen_real_rooted(rng: SplitMix64, degree: int, max_coeff: int) -> TaggedPoly:
    """Product of linear factors (x + r) with random nonnegative rational r.

    Real-rooted with nonnegative coefficients by construction; tagged with
    its own degree.
    """
    v, den = _linear_product(1, _pairs(rng, degree, max_coeff))
    return TaggedPoly(Poly._from_ints(v, den), degree)


def _pairs(rng: SplitMix64, count: int, max_coeff: int, low: int = 0) -> list[tuple[int, int]]:
    """``count`` pairs (n, q) for n/q in [low, max_coeff] x [1, max_coeff],
    each numerator drawn just before its denominator."""
    return [(rng.randint(low, max_coeff), rng.randint(1, max_coeff)) for _ in range(count)]


def _pairs_poly(pairs: list[tuple[int, int]]) -> Poly:
    """The polynomial whose coefficients are the n/q of the pairs (n, q), over one lcm."""
    den = lcm(*(q for _, q in pairs))
    return Poly._from_ints([n * (den // q) for n, q in pairs], den)


def _linear_product(scale: int, shifts: list[tuple[int, int]]) -> tuple[list[int], int]:
    """scale * prod (x + n/q) over the pairs (n, q), q > 0, as prod (q x + n) on
    one integer vector: that vector and its denominator, neither reduced."""
    v, den = [scale], 1
    for n, q in shifts:
        v = [n * a + q * b for a, b in zip(v + [0], [0] + v)]
        den *= q
    return v, den


def gen_ulc(rng: SplitMix64, degree: int, max_coeff: int) -> TaggedPoly:
    """Order-``degree`` ultra log-concave numerator whose support is a window [u, degree].

    ``C(degree, j) b_j`` for a log-concave ``b`` drawn as in ``gen_logconcave``:
    ULC(m) is the log-concavity of a_j / C(m, j) with no internal zeros.
    Tied ratios reach its equality cases, such as (1 + x)^degree, and not
    every instance is real-rooted.
    """
    v, den = _log_concave_window(rng, degree, max_coeff)
    return TaggedPoly(Poly._from_ints([comb(degree, j) * c for j, c in enumerate(v)], den), degree)


def gen_symmetric(
    rng: SplitMix64, s: int, defect: int, max_coeff: int
) -> TaggedPoly:
    """Symmetric, gamma-positive numerator with axis s and the given defect.

    Emits sum_i g_i x^i (1+x)^(s-2i) with random nonnegative g_i (at least
    one positive), tagged s + defect.
    """
    _check_int(s, "axis", 0)
    _check_int(defect, "defect", 0)
    gamma = _pairs(rng, s // 2 + 1, max_coeff)
    if not any(n for n, _ in gamma):
        gamma = _pairs(rng, 1, max_coeff, 1)
    return TaggedPoly(gamma_contract(_pairs_poly(gamma), s), s + defect)


def _unit_interval_pair(rng: SplitMix64, max_coeff: int) -> tuple[int, int]:
    """(n, q) with 0 < n <= q, for the rational n/q in (0, 1]."""
    a = rng.randint(1, max_coeff)
    b = rng.randint(1, max_coeff)
    return min(a, b), max(a, b)


def gen_interlacing_symdec(rng: SplitMix64, d: int, max_coeff: int) -> SymDecomp:
    """Nonnegative interlacing decomposition (a, b) at reference degree d.

    The symmetric part a is a product of paired factors (x + r)(x + 1/r) and
    copies of (x + 1), so its root multiset is closed under inversion; the
    roots of b are drawn inside consecutive root gaps of a, mirrored so b is
    palindromic as well.  Both parts carry random positive scales.  With
    small probability b is zero, exercising that convention.
    """
    scale_a, den_a = _pairs(rng, 1, max_coeff, 1)[0]
    if d == 0:
        return SymDecomp(Poly._from_ints([scale_a], den_a), Poly(), 0)
    small = [_unit_interval_pair(rng, max_coeff) for _ in range(rng.randint(0, d // 2))]
    common = lcm(*(q for _, q in small))
    small.sort(key=lambda r: r[0] * common // r[1])
    # the roots of a are -n/q over these pairs, of ascending size n/q
    sizes = small + [(1, 1)] * (d - 2 * len(small)) + [(q, n) for n, q in reversed(small)]
    v, den = _linear_product(scale_a, sizes)
    a = Poly._from_ints(v, den * den_a)

    if rng.chance(1, 8):
        b = Poly()
    else:
        m = d - 1
        t = [(1, 1)] * m  # the self-inverse middle gap, if any, contains -1
        for i in range(m // 2):
            (n0, q0), (n1, q1) = sizes[i], sizes[i + 1]
            # grid point k/8 of the gap from -n1/q1 toward -n0/q0, and its inverse
            num = 8 * n1 * q0 - rng.randint(0, 8) * (n1 * q0 - n0 * q1)
            g = gcd(num, 8 * q0 * q1)
            t[i] = num // g, 8 * q0 * q1 // g
            t[m - 1 - i] = t[i][::-1]
        scale_b, den_b = _pairs(rng, 1, max_coeff, 1)[0]
        v, den = _linear_product(scale_b, t)
        b = Poly._from_ints(v, den * den_b)
    return SymDecomp(a, b, d)


def gen_logconcave(rng: SplitMix64, degree: int, max_coeff: int) -> TaggedPoly:
    """Log-concave numerator whose support is the contiguous window [u, degree]."""
    return TaggedPoly(Poly._from_ints(*_log_concave_window(rng, degree, max_coeff)), degree)


def _log_concave_window(rng: SplitMix64, degree: int, max_coeff: int) -> tuple[list[int], int]:
    """Zero below a random u, then a positive scale times degree - u drawn ratios
    in ``_descending_ratio_vector``: the integer vector and its denominator."""
    u = rng.randint(0, degree)
    scale, *ratios = _pairs(rng, degree - u + 1, max_coeff, 1)
    v, den = _descending_ratio_vector(scale, ratios)
    return [0] * u + v, den


def _descending_ratio_vector(
    scale: tuple[int, int], ratios: list[tuple[int, int]]
) -> tuple[list[int], int]:
    """b_0 = n/q of ``scale`` and b_j / b_(j-1) = the j-th largest n/q of the
    positive ``ratios``: log-concave, since a positive sequence is log-concave
    exactly when its successive ratios do not increase, with equality in
    b_j^2 >= b_(j-1) b_(j+1) exactly where two adjacent ratios tie.  Over
    Q = prod q_i, b_j Q = n * prod_(i<=j) n_i * prod_(i>j) q_i: that integer
    vector and its denominator q Q, neither reduced."""
    common = lcm(*(q for _, q in ratios))
    v, den = [scale[0]], scale[1]
    for n, q in sorted(ratios, key=lambda r: r[0] * common // r[1], reverse=True):
        v = [c * q for c in v] + [v[-1] * n]
        den *= q
    return v, den


def gen_contiguous_nonneg(rng: SplitMix64, degree: int, max_coeff: int) -> TaggedPoly:
    """Nonnegative numerator whose support is the contiguous window [u, degree]."""
    u = rng.randint(0, degree)
    window = _pairs(rng, degree - u + 1, max_coeff, 1)
    return TaggedPoly(_pairs_poly([(0, 1)] * u + window), degree)


def _random_palindromic(rng: SplitMix64, d: int, max_coeff: int) -> Poly:
    """Random nonnegative polynomial equal to its own degree-d reversal."""
    half = _pairs(rng, d // 2 + 1, max_coeff)
    return _pairs_poly(half + half[: (d + 1) // 2][::-1])


def gen_nonneg_symdec(rng: SplitMix64, d: int, max_coeff: int) -> SymDecomp:
    """Random nonnegative symmetric decomposition at reference degree d."""
    a = _random_palindromic(rng, d, max_coeff)
    b = _random_palindromic(rng, d - 1, max_coeff) if d >= 1 else Poly()
    if a.is_zero and b.is_zero:
        a = Poly([1] * (d + 1))
    return SymDecomp(a, b, d)


def gen_gamma_positive_symdec(rng: SplitMix64, d: int, max_coeff: int) -> SymDecomp:
    """Random decomposition whose two halves are both gamma-positive."""
    a = gen_symmetric(rng, d, 0, max_coeff).poly
    b = gen_symmetric(rng, d - 1, 0, max_coeff).poly if d >= 1 else Poly()
    return SymDecomp(a, b, d)
