import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hadpoly import operators
from hadpoly.analysis import interlaces, is_gamma_positive, is_real_rooted
from hadpoly.decomp import decomposition_is_interlacing, i_decompose
from hadpoly.operators import (
    _difference,
    _forward_differences,
    _newton_values,
    _series_values,
    diamond,
    diamond_power,
    f_from_h,
    h_from_f,
    hadamard,
    msupp,
    numerator_at,
    reflect,
    subdivision,
    w_inverse,
    w_transform,
)
from hadpoly.poly import Poly, TaggedPoly, reverse
from hadpoly.rng import SplitMix64

import helpers
from helpers import (
    binomial_basis_change,
    bullet,
    bullet_monomial,
    comb0,
    derivative,
    diamond_by_derivatives,
    diamond_fold,
    diamond_route,
    eulerian,
    evaluate,
    newton_sum,
    numerator_by_binomials,
    rational,
    reflection_by_binomials,
    subdivision_by_binomials,
    symmetric_split,
)


def P(*coeffs):
    return Poly(coeffs)


# The sextic interpolating polynomial with numerator x^3 + 1
SEXTIC = Poly([Fraction(c, 720) for c in (720, 1776, 1628, 720, 170, 24, 2)])
# The cubic with numerator 1: binomial C(x+3, 3)
CUBIC = Poly([Fraction(c, 6) for c in (6, 11, 6, 1)])
REEVE_F = P(1, 3, 10, 8)
REEVE_H = P(1, 0, 7)


def random_poly(rng, max_degree, nonneg=True):
    d = rng.randint(0, max_degree)
    coeffs = [rational(rng, 9, 9) for _ in range(d + 1)]
    if not nonneg:
        coeffs = [c if rng.chance(1, 2) else -c for c in coeffs]
    return Poly(coeffs)


# -- independent oracles -------------------------------------------------------


def stirling2(n, k):
    """Second-kind Stirling numbers by the standard recurrence."""
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def subdivision_oracle(p):
    """Basis change via x^n = sum_k S(n, k) k! C(x, k), independent of the
    forward-difference implementation."""
    acc = Poly()
    for n, c in enumerate(p.coeffs):
        if c != 0:
            term = Poly(
                [c * stirling2(n, k) * math.factorial(k) for k in range(n + 1)]
            )
            acc = acc + term
    return acc


def series_from_numerator(h, d, count):
    """Coefficients of h(x) / (1-x)^(d+1), synthesized termwise."""
    return [
        sum(h.coefficient(i) * comb0(j - i + d, d) for i in range(d + 1))
        for j in range(count)
    ]


#: rationals of small and of large height, of either sign
rationals = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
    st.fractions(min_value=-(10**12), max_value=10**12, max_denominator=10**9),
)


@st.composite
def tagged_factor(draw, max_tag=12):
    """A numerator tagged d <= max_tag: zero, of degree below d, or of degree d."""
    d = draw(st.integers(min_value=0, max_value=max_tag))
    coeffs = draw(st.lists(rationals, min_size=0, max_size=d + 1))
    return TaggedPoly(Poly(coeffs), d)


@given(st.lists(st.one_of(st.integers(-20, 20), rationals), max_size=10), st.integers(0, 6))
@example([], 0)
@example([], 6)
@example([1, 2, 3], 6)
@settings(max_examples=100, deadline=None)
def test_difference_is_the_truncated_product_with_a_power_of_one_minus_x(v, t):
    """``_difference(v, t)`` is v(x) (1-x)^t below x^len(v)."""
    product = Poly(v) * Poly([1, -1]) ** t
    assert _difference(v, t) == [product.coefficient(i) for i in range(len(v))]


def test_series_values_stop_at_count():
    """``_series_values(v, d, count)`` gives count values when v is longer than count."""
    assert _series_values([1, 2, 3], 2, 2) == [1, 5]
    assert len(_series_values([1, 2, 3], 2, 2)) == 2


@pytest.mark.parametrize("d", [0, 1, 998, 999, 1000, 1001, 2999, 10**6])
def test_series_values_are_binomial_sums_at_any_tag(d):
    """Coefficient j of v(x) / (1-x)^(d+1) is sum_i v_i C(d + j - i, d), past every
    block of 1000 prefix sums; a chain of 10**6 nested iterators overflows C's stack."""
    v = (3, 0, 7)
    want = [sum(c * math.comb(d + j - i, d) for i, c in enumerate(v[: j + 1])) for j in range(4)]
    assert _series_values(v, d, 4) == want


class TestWTransform:
    def test_constant(self):
        t = w_transform(Poly.one())
        assert t.poly == Poly.one() and t.ref_degree == 0

    def test_binomial_has_unit_numerator(self):
        p = Poly([1, Fraction(3, 2), Fraction(1, 2)])  # C(x+2, 2)
        t = w_transform(p)
        assert t.poly == Poly.one() and t.ref_degree == 2

    def test_sextic_with_gap_numerator(self):
        t = w_transform(SEXTIC)
        assert t.poly == P(1, 0, 0, 1) and t.ref_degree == 6

    def test_cubic_unit_numerator(self):
        t = w_transform(CUBIC)
        assert t.poly == Poly.one() and t.ref_degree == 3

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            w_transform(Poly())

    def test_numerator_matches_series(self):
        rng = SplitMix64(7)
        for _ in range(25):
            p = random_poly(rng, 5, nonneg=False)
            if p.is_zero:
                continue
            d = p.degree
            h = numerator_at(p, d)
            series = series_from_numerator(h, d, d + 5)
            assert series == [evaluate(p, j) for j in range(d + 5)]


class TestWInverse:
    def test_unit_at_three(self):
        assert w_inverse(Poly.one(), 3) == CUBIC

    def test_gap_numerator_at_six(self):
        assert w_inverse(P(1, 0, 0, 1), 6) == SEXTIC

    def test_degree_overflow(self):
        with pytest.raises(ValueError):
            w_inverse(P(1, 0, 7), 1)

    def test_round_trip(self):
        rng = SplitMix64(11)
        for _ in range(40):
            d = rng.randint(0, 8)
            h = Poly([rational(rng, 9, 9) for _ in range(rng.randint(0, d) + 1)])
            if h.is_zero:
                continue
            t = w_transform(w_inverse(h, d))
            assert t == TaggedPoly(h, d)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(rationals, max_size=28), st.integers(0, 3))
    @example([], 0)
    @example([], 3)
    @example([Fraction(1, 7)] * 28, 3)
    @example([0, 0, 0, 1], 0)
    @example([1, -1], 1)
    def test_matches_the_fraction_newton_sum(self, coeffs, extra):
        """The integer Newton map equals the ``Fraction`` sum it replaced, at
        every tag from deg h to deg h + 3, up to 30."""
        h = Poly(coeffs)
        d = max(len(h.coeffs) - 1, 0) + extra
        assert w_inverse(h, d) == newton_sum(h, d)


class TestSubdivision:
    def test_linear_fixed(self):
        assert subdivision(Poly.x()) == Poly.x()

    def test_square(self):
        assert subdivision(P(0, 0, 1)) == P(0, 1, 2)

    def test_reeve_f_polynomial(self):
        assert subdivision(w_inverse(REEVE_H, 3)) == REEVE_F

    def test_zero(self):
        assert subdivision(Poly()) == Poly()

    def test_against_stirling_oracle(self):
        rng = SplitMix64(13)
        for _ in range(30):
            p = random_poly(rng, 6, nonneg=False)
            assert subdivision(p) == subdivision_oracle(p)

    def test_agrees_with_basis_change(self):
        rng = SplitMix64(17)
        for _ in range(30):
            d = rng.randint(0, 8)
            h = Poly([rational(rng, 9, 9) for _ in range(rng.randint(0, d) + 1)])
            assert subdivision(w_inverse(h, d)) == f_from_h(h, d)


class TestBasisChanges:
    def test_f_from_h_reeve(self):
        assert f_from_h(REEVE_H, 3) == REEVE_F

    def test_f_from_h_unit(self):
        for d in range(6):
            assert f_from_h(Poly.one(), d) == P(1, 1) ** d

    def test_f_from_h_top_monomial(self):
        assert f_from_h(Poly.x() ** 4, 4) == Poly.x() ** 4

    def test_h_from_f_reeve(self):
        assert h_from_f(REEVE_F, 3) == REEVE_H

    def test_h_from_f_binomial_power(self):
        assert h_from_f(P(1, 1) ** 5, 5) == Poly.one()

    def test_h_from_f_satisfies_its_defining_identity(self):
        # both sides have degree <= 9, so agreement at 11 points is the identity
        points = [Fraction(j, 3) - 2 for j in range(11)]
        rng = SplitMix64(31)
        for _ in range(40):
            d = rng.randint(0, 9)
            f = Poly([rational(rng, 9, 9) for _ in range(rng.randint(0, d) + 1)])
            h = h_from_f(f, d)
            for x in points:
                rebuilt = sum(c * x**i * (x + 1) ** (d - i) for i, c in enumerate(h.coeffs))
                assert rebuilt == evaluate(f, x)

    def test_round_trip(self):
        rng = SplitMix64(19)
        for _ in range(40):
            d = rng.randint(0, 9)
            h = Poly([rational(rng, 9, 9) for _ in range(rng.randint(0, d) + 1)])
            assert h_from_f(f_from_h(h, d), d) == h

    @pytest.mark.parametrize("op", [f_from_h, h_from_f, w_inverse, msupp])
    def test_negative_degree_rejected_for_zero(self, op):
        with pytest.raises(ValueError, match="reference degree must be nonnegative"):
            op(Poly(), -2)

    def test_reflect_is_reversal_in_magic_basis(self):
        rng = SplitMix64(23)
        for _ in range(30):
            d = rng.randint(0, 8)
            h = Poly([rational(rng, 9, 9) for _ in range(rng.randint(0, d) + 1)])
            f = f_from_h(h, d)
            assert h_from_f(reflect(f, d), d) == reverse(h, d)


class TestHadamard:
    def test_gap_times_unit(self):
        out = hadamard(TaggedPoly(P(1, 0, 0, 1), 6), TaggedPoly(Poly.one(), 3))
        assert out == TaggedPoly(P(1, 18, 45, 40, 45, 18, 1), 9)

    def test_near_symmetric_cubic_squared(self):
        t = TaggedPoly(P(1, 3, 9, 1), 3)
        out = hadamard(t, t)
        assert out == TaggedPoly(P(1, 42, 639, 1836, 1239, 162, 1), 6)

    def test_triangular_squared(self):
        # C(x+1, 2) squared: series 0, 1, 9, 36, ... convolved against (1-x)^5
        t = TaggedPoly(Poly.x(), 2)
        assert hadamard(t, t) == TaggedPoly(P(0, 1, 4, 1), 4)

    def test_identity_tag_zero(self):
        t = TaggedPoly(P(2, 5, 1), 2)
        assert hadamard(t, TaggedPoly(Poly.one(), 0)) == t

    def test_matches_series_oracle(self):
        # coefficientwise products of the two synthesized series
        t1 = TaggedPoly(P(1, 0, 0, 1), 6)
        t2 = TaggedPoly(Poly.one(), 3)
        out = hadamard(t1, t2)
        n = 14
        s1 = series_from_numerator(t1.poly, 6, n)
        s2 = series_from_numerator(t2.poly, 3, n)
        assert series_from_numerator(out.poly, 9, n) == [a * b for a, b in zip(s1, s2)]

    def test_three_routes_agree(self):
        rng = SplitMix64(29)
        for _ in range(40):
            d1, d2 = rng.randint(0, 6), rng.randint(0, 6)
            h1 = Poly([rational(rng, 9, 9) for _ in range(rng.randint(0, d1) + 1)])
            h2 = Poly([rational(rng, 9, 9) for _ in range(rng.randint(0, d2) + 1)])
            t1, t2 = TaggedPoly(h1, d1), TaggedPoly(h2, d2)
            direct = hadamard(t1, t2)
            assert bullet(t1, t2) == direct
            assert diamond_route(t1, t2) == direct

    def test_bilinear(self):
        rng = SplitMix64(31)
        for _ in range(15):
            d1, d2 = rng.randint(0, 5), rng.randint(0, 5)
            h1 = Poly([rational(rng, 5, 5) for _ in range(rng.randint(0, d1) + 1)])
            h2 = Poly([rational(rng, 5, 5) for _ in range(rng.randint(0, d1) + 1)])
            g = Poly([rational(rng, 5, 5) for _ in range(rng.randint(0, d2) + 1)])
            a, b = rational(rng, 5, 5), rational(rng, 5, 5)
            combo = hadamard(
                TaggedPoly(Poly([a]) * h1 + Poly([b]) * h2, d1), TaggedPoly(g, d2)
            )
            lhs = Poly([a]) * hadamard(TaggedPoly(h1, d1), TaggedPoly(g, d2)).poly
            rhs = Poly([b]) * hadamard(TaggedPoly(h2, d1), TaggedPoly(g, d2)).poly
            assert combo.poly == lhs + rhs

    def test_zero_factor_on_every_route(self):
        z = TaggedPoly(Poly(), 4)
        t = TaggedPoly(P(1, 2, 1), 3)
        for route in (hadamard, bullet, diamond_route):
            out = route(z, t)
            assert out.poly.is_zero and out.ref_degree == 7

    @settings(max_examples=60, deadline=None)
    @given(tagged_factor(), tagged_factor())
    def test_direct_route_matches_bullet_and_diamond(self, t1, t2):
        direct = hadamard(t1, t2)
        assert direct.ref_degree == t1.ref_degree + t2.ref_degree
        assert bullet(t1, t2) == direct
        assert diamond_route(t1, t2) == direct

    def test_direct_route_matches_series_oracle_at_forty_by_twenty(self):
        rng = SplitMix64(37)
        h1 = Poly([rational(rng, 999999, 999999) for _ in range(41)])
        h2 = Poly([-rational(rng, 999999, 999999) for _ in range(21)])
        out = hadamard(TaggedPoly(h1, 40), TaggedPoly(h2, 20))
        n = 64
        s1 = series_from_numerator(h1, 40, n)
        s2 = series_from_numerator(h2, 20, n)
        assert out.ref_degree == 60
        assert series_from_numerator(out.poly, 60, n) == [a * b for a, b in zip(s1, s2)]


def unit(i):
    """The basis numerator x^i."""
    return Poly([0] * i + [1])


GATE = operators._LANES_FROM


@st.composite
def pair_across_the_gate(draw):
    """Two tagged factors whose tags sum to within 12 of ``_LANES_FROM``, on either side."""
    top = draw(st.integers(min_value=GATE - 12, max_value=GATE + 12))
    d1 = draw(st.integers(min_value=0, max_value=top))
    coeffs = [draw(st.lists(rationals, max_size=d + 1)) for d in (d1, top - d1)]
    return TaggedPoly(Poly(coeffs[0]), d1), TaggedPoly(Poly(coeffs[1]), top - d1)


def alternating(height, length):
    return Poly([(-1) ** i * height for i in range(length)])


def alternating_values(height, count):
    """height sum_(k < count) (-2)^k C(x, k), whose values at 0..count-1 are (-1)^j height:
    the numerator's lower half then comes close to 2^d height, the bound of its lane."""
    acc, term = Poly(), Poly([height])
    for k in range(count):
        acc = acc + Poly([(-2) ** k]) * term
        term = term * Poly([Fraction(-k, k + 1), Fraction(1, k + 1)])  # C(x, k+1)
    return acc


#: a numerator whose values at 0..GATE//2 alternate in sign, all of height 10**40
ALTERNATING_VALUES = numerator_at(alternating_values(10**40, GATE // 2 + 1), GATE)

#: signed coefficients up to 10**40 in height, integers and rationals
tall = st.one_of(
    rationals,
    st.integers(-(10**40), 10**40),
    st.fractions(min_value=-(10**40), max_value=10**40, max_denominator=10**40),
)


def coefficients_at(d):
    """Coefficients of a numerator tagged d: any up to degree d (zero included), a
    constant, or a multiple of x^d."""
    return st.one_of(
        st.lists(tall, max_size=d + 1),
        tall.map(lambda c: [c]),
        tall.map(lambda c: [0] * d + [c]),
    )


class TestLanes:
    """From tag ``_LANES_FROM`` on, ``hadamard`` runs each factor and its reversal as
    two lanes of one int, and ``numerator_at`` and ``hadamard`` their two heads."""

    @settings(max_examples=40, deadline=None)
    @given(pair_across_the_gate())
    @example((TaggedPoly(Poly(), GATE - 4), TaggedPoly(P(1, -2, 3), 4)))  # a zero factor
    @example((TaggedPoly(Poly(), GATE), TaggedPoly(Poly(), 0)))
    @example((TaggedPoly(P(-7), 0), TaggedPoly(alternating(3, GATE + 1), GATE)))  # d = 0
    @example((TaggedPoly(unit(GATE - 10), GATE - 10), TaggedPoly(unit(10), 10)))  # x^d alone
    @example((TaggedPoly(unit(GATE), GATE), TaggedPoly(Poly.one(), 3)))
    @example((TaggedPoly(alternating(10**40, 20), 19), TaggedPoly(alternating(-(10**40), 17), 16)))
    @example((TaggedPoly(P(*[-(10**40)] * 21), 20), TaggedPoly(P(*[-(10**40)] * 21), 20)))
    @example((TaggedPoly(ALTERNATING_VALUES, GATE), TaggedPoly(Poly.one(), 0)))
    def test_hadamard_matches_bullet_across_the_gate(self, pair):
        assert hadamard(*pair) == bullet(*pair)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(GATE - 8, GATE + 8), st.lists(rationals, max_size=GATE + 9))
    @example(GATE, [])
    @example(GATE, [Fraction(-5, 3)])
    @example(GATE + 1, [0] * GATE + [1])
    @example(GATE, [(-1) ** i * 10**40 for i in range(GATE + 1)])
    @example(GATE + 1, [-(10**40)] * (GATE + 2))
    @example(GATE, list(alternating_values(10**40, GATE // 2 + 1).coeffs))
    def test_numerator_at_is_the_numerator_of_the_values_across_the_gate(self, d, coeffs):
        p = Poly(coeffs[: d + 1])
        h = numerator_at(p, d)
        assert series_from_numerator(h, d, d + 2) == [evaluate(p, j) for j in range(d + 2)]

    @pytest.mark.parametrize("top", range(49))
    @settings(max_examples=8, deadline=None)
    @given(st.data())
    def test_both_routes_agree_at_every_tag(self, top, data):
        """Each route also runs on the other's side of the gate: the lanes at 0, the
        definition at a gate above every tag."""
        d1 = data.draw(st.integers(0, top))
        t1, t2 = (TaggedPoly(Poly(data.draw(coefficients_at(d))), d) for d in (d1, top - d1))
        p = Poly(data.draw(coefficients_at(top)))
        results = []
        for gate in (0, 10**9):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(operators, "_LANES_FROM", gate)
                results.append((hadamard(t1, t2), numerator_at(p, top)))
        assert results[0] == results[1]

    @pytest.mark.parametrize("top, runs, differences", [(GATE - 1, 2, 1), (GATE, 2, 1), (97, 2, 1)])
    def test_runs_per_call(self, monkeypatch, top, runs, differences):
        calls = []
        def counting(name, real):
            return lambda *args: calls.append(name) or real(*args)

        for name in ("_series_values", "_difference"):
            monkeypatch.setattr(operators, name, counting(name, getattr(operators, name)))
        t1, t2 = TaggedPoly(P(1, 2, 3), top // 2), TaggedPoly(P(4, 0, 5), top - top // 2)
        hadamard(t1, t2)
        assert sorted(calls) == ["_difference"] * differences + ["_series_values"] * runs
        calls.clear()
        numerator_at(P(1, 2, 3), top)
        assert calls == ["_difference"] * differences


class TestEulerian:
    """Known answers at degrees the suites never reach: A_n, the numerator of
    sum_j (j+1)^n x^j tagged n, at both parities of the tag."""

    def test_hadamard_of_eulerians_is_eulerian(self):
        A = [TaggedPoly(eulerian(n), n) for n in range(49)]
        for a, b in product(range(25), repeat=2):
            assert hadamard(A[a], A[b]) == A[a + b]

    @pytest.mark.parametrize("a, b", [(48, 48), (20, 76), (33, 31), (0, 96), (1, 94)])
    def test_hadamard_of_eulerians_up_to_ninety_six(self, a, b):
        assert hadamard(TaggedPoly(eulerian(a), a), TaggedPoly(eulerian(b), b)) == TaggedPoly(
            eulerian(a + b), a + b
        )

    @pytest.mark.parametrize("n", range(49))
    def test_numerator_of_a_power_of_x_plus_one(self, n):
        power = Poly([math.comb(n, i) for i in range(n + 1)])  # (x+1)^n
        assert numerator_at(power, n) == eulerian(n)
        assert w_inverse(eulerian(n), n) == power

    @pytest.mark.parametrize("n", [8, 16, 24, 32, 40, 48])
    def test_root_checks_hold(self, n):
        """Real-rooted (Frobenius), interlaced by A_(n-1), gamma-positive on the axis
        n - 1 (Foata & Schutzenberger); the interlacing I-decomposition is evidence,
        not a cited theorem.  The roots are mostly irrational."""
        a = eulerian(n)
        assert is_real_rooted(a)
        assert interlaces(eulerian(n - 1), a)
        assert is_gamma_positive(a, n - 1)
        assert decomposition_is_interlacing(i_decompose(a, n))

    @settings(max_examples=60, deadline=None)
    @given(tagged_factor(), tagged_factor())
    def test_reversal_at_the_tags_commutes_with_hadamard(self, t1, t2):
        def rev(t):
            return TaggedPoly(reverse(t.poly, t.ref_degree), t.ref_degree)

        top = t1.ref_degree + t2.ref_degree
        assert reverse(hadamard(t1, t2).poly, top) == hadamard(rev(t1), rev(t2)).poly


class TestOnBases:
    """At fixed tags ``hadamard`` and ``diamond_route`` are bilinear, and the basis
    changes, ``w_inverse``, ``reflect``, ``numerator_at``, ``subdivision`` and
    ``i_decompose`` linear, so agreeing on every pair of basis numerators, with
    the bilinearity tests, covers every input at those tags."""

    def test_hadamard_structure_constants(self):
        for a, b in product(range(13), repeat=2):
            for i, j in product(range(a + 1), range(b + 1)):
                out = hadamard(TaggedPoly(unit(i), a), TaggedPoly(unit(j), b))
                assert out == TaggedPoly(Poly(bullet_monomial(i, a, j, b)), a + b), (i, a, j, b)

    def test_hadamard_matches_the_diamond_route(self):
        for a, b in product(range(7), repeat=2):
            for i, j in product(range(a + 1), range(b + 1)):
                t1, t2 = TaggedPoly(unit(i), a), TaggedPoly(unit(j), b)
                assert hadamard(t1, t2) == diamond_route(t1, t2), (i, a, j, b)

    def test_linear_maps_on_unit_vectors(self):
        for d in range(25):
            for i in range(d + 1):
                e = unit(i)
                assert f_from_h(e, d) == binomial_basis_change(e, d, 1), (i, d)
                assert h_from_f(e, d) == binomial_basis_change(e, d, -1), (i, d)
                assert w_inverse(e, d) == newton_sum(e, d), (i, d)

    def test_reflect_numerator_at_and_subdivision_on_unit_vectors(self):
        for d in range(25):
            for i in range(d + 1):
                e = unit(i)
                assert reflect(e, d) == reflection_by_binomials(e, d), (i, d)
                assert numerator_at(e, d) == numerator_by_binomials(e, d), (i, d)
            assert subdivision(unit(d)) == subdivision_by_binomials(unit(d)), d

    def test_i_decompose_on_unit_vectors(self):
        for d in range(25):
            for j in range(d + 1):
                dec = i_decompose(unit(j), d)
                assert (dec.a, dec.b) == symmetric_split(unit(j), d), (j, d)

    def test_basis_changes_above_the_unit_vector_degrees(self):
        # the Horner passes at d = 40, 48, ..., 96, on signed rationals of degree d and below
        rng = SplitMix64(3801)
        for d in range(40, 97, 8):
            for top in (d, rng.randint(0, d - 1)):
                signs = [(-1) ** rng.randint(0, 1) for _ in range(top + 1)]
                h = Poly([rational(rng, 99, 9) * sign for sign in signs])
                assert f_from_h(h, d) == binomial_basis_change(h, d, 1), d
                assert h_from_f(h, d) == binomial_basis_change(h, d, -1), d


class TestBullet:
    def test_monomial_pair(self):
        assert bullet_monomial(1, 2, 1, 2) == (0, 1, 4, 1, 0)

    def test_degree_zero(self):
        assert bullet_monomial(0, 0, 0, 0) == (1,)

    def test_top_corner_matches_direct_route(self):
        # k = a, l = b exercises the reversed binomial pattern
        direct = hadamard(TaggedPoly(Poly.x() ** 2, 2), TaggedPoly(Poly.x(), 1))
        assert TaggedPoly(Poly(bullet_monomial(2, 2, 1, 1)), 3) == direct

    def test_range_violation(self):
        with pytest.raises(ValueError):
            bullet_monomial(3, 2, 0, 1)
        with pytest.raises(ValueError):
            bullet_monomial(0, 2, 2, 1)

    def test_bilinear_extension(self):
        t1, t2 = TaggedPoly(P(2, 0, 5), 3), TaggedPoly(P(1, 7), 2)
        assert bullet(t1, t2) == hadamard(t1, t2)


class TestDiamond:
    def test_x_with_x(self):
        # subdivision of x*x is x + 2x^2
        assert diamond(Poly.x(), Poly.x()) == P(0, 1, 2)

    def test_unit_is_identity(self):
        f = P(3, 1, 4)
        assert diamond(f, Poly.one()) == f

    def test_reeve_square_low_coefficients(self):
        sq = diamond(REEVE_F, REEVE_F)
        assert [sq.coefficient(i) for i in range(3)] == [1, 15, 258]

    def test_matches_subdivision_of_product(self):
        rng = SplitMix64(37)
        for _ in range(25):
            p = random_poly(rng, 5, nonneg=False)
            q = random_poly(rng, 5, nonneg=False)
            assert diamond(subdivision(p), subdivision(q)) == subdivision(p * q)

    def test_reflect_compatibility(self):
        rng = SplitMix64(41)
        for _ in range(25):
            d1, d2 = rng.randint(0, 5), rng.randint(0, 5)
            f = Poly([rational(rng, 9, 9) for _ in range(d1 + 1)])
            g = Poly([rational(rng, 9, 9) for _ in range(d2 + 1)])
            if f.is_zero or g.is_zero or f.degree < d1 or g.degree < d2:
                continue
            lhs = reflect(diamond(f, g), d1 + d2)
            rhs = diamond(reflect(f, d1), reflect(g, d2))
            assert lhs == rhs

    def test_bilinear(self):
        rng = SplitMix64(43)
        for _ in range(15):
            f1 = random_poly(rng, 4, nonneg=False)
            f2 = random_poly(rng, 4, nonneg=False)
            g = random_poly(rng, 4, nonneg=False)
            a, b = rational(rng, 5, 5), rational(rng, 5, 5)
            assert diamond(Poly([a]) * f1 + Poly([b]) * f2, g) == Poly([a]) * diamond(
                f1, g
            ) + Poly([b]) * diamond(f2, g)


class TestDiamondPower:
    def test_power_one(self):
        assert diamond_power(REEVE_F, 1) == REEVE_F

    def test_power_two_low_coefficients(self):
        sq = diamond_power(REEVE_F, 2)
        assert [sq.coefficient(i) for i in range(3)] == [1, 15, 258]

    def test_closed_forms_up_to_eight(self):
        for k in range(1, 9):
            f = diamond_power(REEVE_F, k)
            assert f.coefficient(0) == 1
            assert f.coefficient(1) == 4**k - 1
            assert f.coefficient(2) == 17**k - 2 * 4**k + 1

    def test_zeroth_power_rejected(self):
        with pytest.raises(ValueError):
            diamond_power(REEVE_F, 0)

    @given(
        st.lists(st.just(Fraction(0)) | st.fractions(-9, 9, max_denominator=6), max_size=9),
        st.integers(1, 6),
    )
    @example([], 3)
    @example([Fraction(-2, 3)], 6)
    @settings(max_examples=60, deadline=None)
    def test_matches_the_diamond_fold(self, coeffs, k):
        f = Poly(coeffs)
        assert diamond_power(f, k) == diamond_fold(f, k)

    @pytest.mark.parametrize("k", [True, 2.0, Fraction(2)], ids=["bool", "float", "fraction"])
    def test_power_that_is_not_an_int_rejected(self, k):
        with pytest.raises(TypeError) as raised:
            diamond_power(REEVE_F, k)
        assert str(raised.value) == f"k {k!r} is not an int"


# -- value maps against the formulas they replaced -------------------------------


@st.composite
def poly_and_tag(draw):
    """A polynomial of degree at most 40, zero included, with a tag from its
    degree to its degree + 3."""
    p = Poly(draw(st.lists(rationals, max_size=draw(st.sampled_from([1, 6, 41])))))
    return p, max(len(p.coeffs) - 1, 0) + draw(st.integers(0, 3))


@settings(max_examples=80, deadline=None)
@given(poly_and_tag(), poly_and_tag())
@example((Poly(), 0), (Poly(), 3))
@example((Poly(), 2), (P(-1, 2, 3), 2))
@example((P(Fraction(-2, 3)), 0), (Poly([Fraction(k, 7) for k in range(-20, 21)]), 40))
@example((P(5), 3), (Poly(range(1, 42)), 43))
def test_value_maps_match_the_derivative_and_binomial_formulas(fd, ge):
    (f, d), (g, e) = fd, ge
    assert diamond(f, g) == diamond_by_derivatives(f, g)
    assert diamond(g, f) == diamond_by_derivatives(g, f)
    for p, tag in ((f, d), (g, e)):
        assert f_from_h(p, tag) == binomial_basis_change(p, tag, 1)
        assert h_from_f(p, tag) == binomial_basis_change(p, tag, -1)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-(10**12), 10**12), max_size=12), st.integers(0, 5))
@example([], 0)
@example([], 3)
@example([0, 0, 7], 0)
def test_newton_values_invert_forward_differences(v, extra):
    n = len(v) + extra
    values = _newton_values(v, n)
    assert len(values) == n
    assert _forward_differences(values) == v + [0] * extra


def _borrowed_from_operators(namespace):
    """Names in ``namespace`` bound to ``hadpoly.operators`` or to one of its objects."""
    bound = {
        name: (getattr(v, "__module__", None), getattr(v, "__name__", None))
        for name, v in namespace.items()
    }
    return [name for name, origin in bound.items() if "hadpoly.operators" in origin]


def test_helpers_share_no_code_with_operators():
    """``bullet`` and ``diamond_route`` stay independent of what they cross-check."""
    assert _borrowed_from_operators(vars(helpers)) == []


def test_borrow_guard_flags_an_operator_name():
    namespace = {"diamond": diamond, "ops": operators, "Poly": Poly, "bullet": bullet}
    assert _borrowed_from_operators(namespace) == ["diamond", "ops"]


class TestMagicPositivity:
    """Closure of nonnegative magic-basis coordinates under the basic operations."""

    def magic_positive(self, rng, d):
        h = Poly([rational(rng, 4, 4) for _ in range(d + 1)])
        return f_from_h(h, d), h

    def is_magic_positive(self, f, d):
        try:
            msupp(f, d)
        except ValueError:
            return False
        return True

    def test_derivative_closure(self):
        rng = SplitMix64(47)
        for _ in range(20):
            d = rng.randint(1, 6)
            f, _ = self.magic_positive(rng, d)
            if f.is_zero:
                continue
            assert self.is_magic_positive(derivative(f), d - 1)

    def test_product_closure(self):
        rng = SplitMix64(53)
        for _ in range(20):
            d1, d2 = rng.randint(0, 5), rng.randint(0, 5)
            f, _ = self.magic_positive(rng, d1)
            g, _ = self.magic_positive(rng, d2)
            assert self.is_magic_positive(f * g, d1 + d2)

    def test_sum_closure_equal_degree(self):
        rng = SplitMix64(59)
        for _ in range(20):
            d = rng.randint(0, 6)
            f, _ = self.magic_positive(rng, d)
            g, _ = self.magic_positive(rng, d)
            assert self.is_magic_positive(f + g, d)

    def test_diamond_closure(self):
        rng = SplitMix64(61)
        for _ in range(20):
            d1, d2 = rng.randint(0, 5), rng.randint(0, 5)
            f, hf = self.magic_positive(rng, d1)
            g, hg = self.magic_positive(rng, d2)
            if f.is_zero or g.is_zero:
                continue
            assert self.is_magic_positive(diamond(f, g), d1 + d2)

    def test_support_functoriality(self):
        # the magic support of a diamond product depends only on the supports
        rng = SplitMix64(67)
        for _ in range(15):
            d1, d2 = rng.randint(1, 4), rng.randint(1, 4)
            f1, h1 = self.magic_positive(rng, d1)
            g, hg = self.magic_positive(rng, d2)
            if f1.is_zero or g.is_zero:
                continue
            # replace every positive magic coordinate of f1 by a different one
            replaced = Poly([c * 2 + 1 if c != 0 else c for c in h1.coeffs])
            f2 = f_from_h(replaced, d1)
            assert msupp(f1, d1) == msupp(f2, d1)
            assert msupp(diamond(f1, g), d1 + d2) == msupp(diamond(f2, g), d1 + d2)


class TestMsupp:
    def test_pure_binomial_power(self):
        assert msupp(P(1, 1) ** 3, 3) == frozenset({0})

    def test_reeve(self):
        assert msupp(REEVE_F, 3) == frozenset({0, 2})

    def test_gap_numerator(self):
        assert msupp(f_from_h(P(1, 0, 0, 1), 6), 6) == frozenset({0, 3})

    def test_rejects_negative_coordinates(self):
        with pytest.raises(ValueError):
            msupp(Poly.x(), 2)  # x = 0*(x+1)^2 + 1*x(x+1) - 1*x^2... not positive

    @pytest.mark.parametrize(
        "f, d, i, c",
        [(Poly.x(), 2, 2, "-1"), (P(Fraction(1, 3), Fraction(-5, 7), 2), 3, 1, "-12/7")],
    )
    def test_negative_coordinate_message(self, f, d, i, c):
        message = f"^not magic positive: coordinate {i} of the magic expansion is {c}$"
        with pytest.raises(ValueError, match=message):
            msupp(f, d)
