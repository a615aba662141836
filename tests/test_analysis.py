import dataclasses
import re
from fractions import Fraction
from math import comb, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadpoly.analysis import (
    PropertyReport,
    _log_concave_index,
    _root_order,
    gamma_contract,
    gamma_expand,
    has_internal_zeros,
    interlaces,
    is_gamma_positive,
    is_log_concave,
    is_nonnegative,
    is_real_rooted,
    is_ulc,
    is_unimodal,
    newton_violation,
    symmetry_certificate,
)
from hadpoly.operators import check_functional_eq, w_inverse
from hadpoly.poly import Poly, reverse
from hadpoly.rng import SplitMix64
from hadpoly.roots import real_rooted_interlacing

from helpers import positive_rational, rational

SYMMETRIC_ULC = Poly([1, 8, 24, 36, 24, 8, 1])
GAP_CUBE = Poly([1, 0, 0, 1])
REEVE_F = Poly([1, 3, 10, 8])
SQUARE_EX = Poly([1, 42, 639, 1836, 1239, 162, 1])


def P(*coeffs):
    return Poly(coeffs)


def linear_product(*roots):
    p = Poly.one()
    for r in roots:
        p = p * Poly([Fraction(r), 1])  # (x + r)
    return p


def random_real_rooted(rng, degree):
    return linear_product(*[rational(rng, 9, 9) for _ in range(degree)])


def ulc_failure(h, m):
    """``is_ulc`` as None (holds), "gap" or the failing index."""
    rep = is_ulc(h, m)
    if rep.holds:
        return None
    return "gap" if rep.witness.get("reason") == "internal zeros" else rep.witness["index"]


def ulc_failure_by_division(h, m):
    """The same verdict from the definition: a_j / C(m, j) log-concave, no gaps."""
    cs, supp = h.coeffs, h.support
    if supp and any(cs[j] == 0 for j in range(supp[0], supp[-1])):
        return "gap"
    a = [c / comb(m, j) for j, c in enumerate(cs)]
    return next((j for j in range(1, len(a) - 1) if a[j] ** 2 < a[j - 1] * a[j + 1]), None)


class TestPropertyReport:
    def test_a_pass_without_detail_is_the_plain_pass(self):
        assert PropertyReport.passed() == PropertyReport(True, None, "")
        assert PropertyReport.passed() is PropertyReport.passed()

    def test_the_shared_pass_is_frozen(self):
        # every detail-less pass is one instance, which is safe only while frozen
        with pytest.raises(dataclasses.FrozenInstanceError):
            PropertyReport.passed().holds = False
        assert PropertyReport.passed().holds is True

    def test_a_pass_keeps_its_detail(self):
        assert PropertyReport.passed("x").detail == "x"
        assert PropertyReport.passed("x") == PropertyReport(True, None, "x")


class TestNonnegative:
    def test_holds(self):
        assert is_nonnegative(P(1, 0, 7)).holds
        assert is_nonnegative(Poly()).holds

    def test_witness_names_the_first_negative_coefficient(self):
        rep = is_nonnegative(P(1, Fraction(-1, 2), -3))
        assert not rep.holds
        assert rep.witness == {"index": 1, "value": "-1/2"}
        assert rep.detail == "coefficient 1 is -1/2"

    def test_checks_that_require_it_raise_its_message(self):
        with pytest.raises(ValueError, match="^negative coefficient -2/3 at index 2$"):
            is_log_concave(P(1, 1, Fraction(-2, 3), -1))

    def test_values_past_the_digit_limit_still_fail(self):
        # -10^5000 has more digits than the default int-to-str limit of 4300;
        # -10^4299 has exactly 4300 and is still printed
        edge = -(10**4299)
        rep = is_nonnegative(P(1, edge))
        assert rep.witness == {"index": 1, "value": str(edge)}
        assert rep.detail == f"coefficient 1 is {edge}"
        marker = "(too many digits to print)"
        big = -(10**5000)
        rep = is_nonnegative(P(1, big))
        assert not rep.holds and rep.witness == {"index": 1, "value": marker}
        assert rep.detail == f"coefficient 1 is {marker}"
        with pytest.raises(ValueError) as raised:
            is_log_concave(P(1, big))
        assert str(raised.value) == f"negative coefficient {marker} at index 1"
        rep = is_gamma_positive(P(big), 0)
        assert rep.witness == {"index": 0, "value": marker}
        assert rep.detail == f"gamma coordinate 0 is {marker}"


class TestInternalZeros:
    def test_gap_fails_with_witness(self):
        rep = has_internal_zeros(GAP_CUBE)
        assert not rep.holds
        assert rep.witness == {"i": 0, "j": 1, "k": 3}

    def test_binomial_cube_holds(self):
        assert has_internal_zeros(P(1, 3, 3, 1)).holds

    def test_shifted_window_holds(self):
        assert has_internal_zeros(P(0, 1, 4, 1)).holds

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            has_internal_zeros(P(1, -1))


class TestLogConcave:
    def test_reeve_f_fails_at_one(self):
        rep = is_log_concave(REEVE_F)
        assert not rep.holds and rep.witness == {"index": 1}
        assert rep.detail == "a_1^2 = 9 < a_0 a_2 = 10"

    def test_rational_failure_detail(self):
        rep = is_log_concave(P(1, Fraction(1, 2), 1))
        assert not rep.holds and rep.witness == {"index": 1}
        assert rep.detail == "a_1^2 = 1/4 < a_0 a_2 = 1"

    def test_binomials_hold(self):
        assert is_log_concave(P(1, 1) ** 7).holds

    def test_gap_product_fails(self):
        rep = is_log_concave(P(1, 18, 45, 40, 45, 18, 1))
        assert not rep.holds and rep.witness == {"index": 3}

    def test_values_past_the_digit_limit_still_fail(self):
        # a_1^2 = 1 < a_0 a_2 = 9 * 10^4400, whose decimal text is past the default
        # int-to-str limit of 4300 digits
        a = 3 * 10**2200
        rep = is_log_concave(P(a, 1, a))
        assert not rep.holds and rep.witness == {"index": 1}
        assert rep.detail == "a_1^2 < a_0 a_2 (too many digits to print the values)"

    def test_detail_matches_the_fraction_text(self):
        rng = SplitMix64(3901)
        failures = 0
        for _ in range(300):
            h = P(*[rational(rng, 9, 6) for _ in range(rng.randint(3, 6))])
            rep = is_log_concave(h)
            index = _log_concave_index(h._num)
            assert rep.holds == (index is None)
            if index is not None:
                failures += 1
                a = h.coeffs
                assert rep.witness == {"index": index}
                assert rep.detail == (
                    f"a_{index}^2 = {a[index] ** 2} < "
                    f"a_{index - 1} a_{index + 1} = {a[index - 1] * a[index + 1]}"
                )
        assert failures > 50


class TestUnimodal:
    def test_valley_fails(self):
        assert not is_unimodal(P(1, 18, 45, 40, 45, 18, 1)).holds

    def test_gamma_counterexample_fails(self):
        assert not is_unimodal(P(1, 2, 1, 2)).holds

    def test_peak_holds(self):
        assert is_unimodal(P(1, 2, 1)).holds

    def test_witness_names_descent_then_ascent(self):
        rep = is_unimodal(P(1, 18, 45, 40, 45, 18, 1))
        assert rep.witness == {"descent": 2, "ascent": 3}


class TestUlc:
    def test_symmetric_example_holds(self):
        assert is_ulc(SYMMETRIC_ULC, 6).holds

    def test_internal_zeros_fail(self):
        rep = is_ulc(GAP_CUBE, 3)
        assert not rep.holds
        assert rep.witness and rep.witness.get("reason") == "internal zeros"

    def test_binomial_power_borderline(self):
        m = 5
        assert is_ulc(P(1, 1) ** m, m).holds

    def test_order_below_degree_rejected(self):
        with pytest.raises(ValueError):
            is_ulc(P(1, 1, 1), 1)

    def test_negative_order_rejected_for_zero(self):
        with pytest.raises(ValueError):
            is_ulc(Poly(), -3)

    def test_negative_coefficient_reported_before_order(self):
        with pytest.raises(ValueError, match="^negative coefficient -1 at index 1$"):
            is_ulc(P(1, -1, 1, 1), 1)

    @pytest.mark.parametrize("order", [2.0, Fraction(2), True, -1.0], ids=repr)
    def test_order_that_is_not_an_int_rejected_first(self, order):
        # a float order would decide the Newton comparison in float arithmetic:
        # these coefficients fail at order 2 and would hold at 2.0, and the
        # second polynomial overflows a float; -1.0 is no negative order
        a0, a2 = 10**20 + 1, 10**20 + 3
        near = P(a0, isqrt(4 * a0 * a2), a2)
        assert not is_ulc(near, 2).holds
        message = f"order {order!r} is not an int"
        for h in (near, P(10**200, 10**200, 1), P(1, -1, 1, 1)):
            with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
                is_ulc(h, order)

    @given(st.lists(st.fractions(min_value=0, max_value=9, max_denominator=6), max_size=9),
           st.integers(0, 3))
    def test_agrees_with_division_form(self, coeffs, extra):
        h = Poly(coeffs)
        m = (h.degree or 0) + extra
        assert ulc_failure_by_division(h, m) == ulc_failure(h, m)

    @given(st.integers(1, 10), st.data())
    def test_binomial_rows_and_unit_perturbations(self, m, data):
        # (1+x)^m meets every inequality of ULC(m) with equality
        scale = data.draw(st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9))
        j = data.draw(st.integers(0, m))
        delta = data.draw(st.sampled_from([-1, 1]))
        row = [comb(m, i) for i in range(m + 1)]
        bumped = row[:j] + [row[j] + delta] + row[j + 1:]
        for coeffs in (row, bumped):
            h = Poly([scale * c for c in coeffs])
            for order in range(h.degree, h.degree + 4):
                assert ulc_failure_by_division(h, order) == ulc_failure(h, order)
        assert is_ulc(Poly(row), m).holds
        if 0 < j < m and delta == -1:
            assert ulc_failure(Poly([scale * c for c in bumped]), m) == j

    @pytest.mark.parametrize("m", range(2, 13))
    def test_binomial_row_is_tight_at_every_index(self, m):
        # (1+x)^m meets a_j^2 j (m-j) >= a_(j-1) a_(j+1) (j+1) (m-j+1) with
        # equality, so lowering any one interior coefficient by 1 fails there
        row = [comb(m, j) for j in range(m + 1)]
        for j in range(1, m):
            assert row[j] ** 2 * j * (m - j) == row[j - 1] * row[j + 1] * (j + 1) * (m - j + 1)
        assert is_ulc(Poly(row), m).holds
        for j in range(1, m):
            lowered = row[:j] + [row[j] - 1] + row[j + 1:]
            assert not is_ulc(Poly(lowered), m).holds
            assert is_ulc(Poly(lowered), m).witness == {"index": j}

    @pytest.mark.parametrize("m", range(0, 9))
    def test_shifted_binomial_rows_hold(self, m):
        # x^k (1+x)^(m-k) is real-rooted with nonpositive zeros, so in ULC(m)
        for k in range(m + 1):
            v = [0] * k + [comb(m - k, j) for j in range(m - k + 1)]
            assert is_ulc(Poly(v), m).holds

    def test_internal_zero_is_reported_ahead_of_a_failing_index(self):
        # 1 + x^3 meets every Newton inequality at order 3; only its gap fails
        assert not is_ulc(Poly([1, 0, 0, 1]), 3).holds
        assert is_ulc(GAP_CUBE, 3).witness == {"i": 0, "j": 1, "k": 3, "reason": "internal zeros"}
        # index 1 fails here as well, and the gap at 3 is still what is reported
        rep = is_ulc(P(1, 1, 9, 0, 1), 4)
        assert rep.witness == {"i": 0, "j": 3, "k": 4, "reason": "internal zeros"}
        assert rep.detail == "support is not contiguous"
        assert is_ulc(P(1, 1, 9, 1, 1), 4).witness == {"index": 1}

    @given(st.lists(st.integers(0, 12), max_size=10), st.integers(0, 3))
    def test_newton_form_agrees_with_the_definition(self, v, extra):
        m = max(len(v) - 1, 0) + extra
        assert is_ulc(Poly(v), m).holds == (ulc_failure_by_division(Poly(v), m) is None)

    @given(st.integers(0, 10), st.integers(1, 4), st.integers(0, 2), st.data())
    def test_newton_form_agrees_near_equality(self, n, scale, extra, data):
        # a scaled binomial row with each coefficient moved by at most 1
        moves = data.draw(st.lists(st.integers(-1, 1), min_size=n + 1, max_size=n + 1))
        v = [max(0, scale * comb(n, j) + d) for j, d in enumerate(moves)]
        m = n + extra
        assert is_ulc(Poly(v), m).holds == (ulc_failure_by_division(Poly(v), m) is None)

    def test_newton_inequalities(self):
        # nonpositive real zeros put a polynomial in ULC(degree)
        rng = SplitMix64(71)
        for _ in range(30):
            d = rng.randint(0, 7)
            p = random_real_rooted(rng, d)
            assert is_ulc(p, d).holds

    def test_order_monotone(self):
        rng = SplitMix64(73)
        for _ in range(30):
            d = rng.randint(0, 6)
            p = random_real_rooted(rng, d)
            assert is_ulc(p, d + 1).holds
            assert is_ulc(p, d + 3).holds

    def test_log_concave_contiguous_implies_unimodal(self):
        rng = SplitMix64(79)
        checked = 0
        for _ in range(200):
            d = rng.randint(1, 6)
            u = rng.randint(0, d)
            h = Poly(
                [Fraction(0)] * u
                + [positive_rational(rng, 9, 9) for _ in range(d - u + 1)]
            )
            if is_log_concave(h).holds and has_internal_zeros(h).holds:
                checked += 1
                assert is_unimodal(h).holds
        assert checked > 10


class TestRealRooted:
    def test_two_linear_factors(self):
        assert is_real_rooted(P(2, 3, 1)).holds

    def test_reeve_numerator_fails(self):
        assert not is_real_rooted(P(1, 0, 7)).holds

    @pytest.mark.parametrize(
        "p, real, needed, pairs",
        [(P(1, 0, 7), 0, 2, 1), (P(1, 0, 0, 1), 1, 3, 1), (P(1, 0, 1) ** 2 * P(4, 0, 1), 0, 4, 2)],
    )
    def test_failure_detail_counts_the_non_real_pairs(self, p, real, needed, pairs):
        rep = is_real_rooted(p)
        assert rep.witness == {"distinct_real_roots": real, "distinct_roots_needed": needed}
        assert rep.detail == (
            f"only {real} of {needed} distinct roots are real, non-real pairs: {pairs}"
        )

    def test_square_example_fails(self):
        assert not is_real_rooted(SQUARE_EX).holds

    def test_constant_vacuous(self):
        assert is_real_rooted(P(5)).holds

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_real_rooted(P())

    def test_repeated_roots(self):
        assert is_real_rooted(P(1, 1) ** 4 * P(3, 1)).holds


#: a rational root num/den as the integer factor den x - num, with a multiplicity
root_factors = st.lists(
    st.tuples(st.integers(-6, 6), st.integers(1, 4), st.integers(1, 3)), max_size=6
)


class TestNewtonViolation:
    @settings(max_examples=400, deadline=None)
    @given(root_factors, st.integers(0, 3), st.sampled_from([1, -1, 3, -7]))
    def test_never_fires_on_real_rooted_polynomials(self, factors, zero_roots, lead):
        p = Poly([0] * zero_roots + [lead])
        for num, den, mult in factors:
            p = p * Poly([-num, den]) ** mult
        assert all(c.denominator == 1 for c in p.coeffs)
        assert newton_violation(p) is None

    def test_reeve_numerator_fails_at_index_one(self):
        # 0^2 * 1 * 1 < 1 * 7 * 2 * 2
        assert newton_violation(P(1, 0, 7)) == 1

    def test_on_quadratics_it_is_the_discriminant(self):
        # n = 2, i = 1: c_1^2 >= 4 c_0 c_2, so it fires iff the roots are complex
        for c0 in range(-4, 5):
            for c1 in range(-9, 10):
                for c2 in (-3, -1, 1, 2, 5):
                    fired = newton_violation(P(c0, c1, c2)) is not None
                    assert fired == (c1 * c1 < 4 * c0 * c2)
        assert newton_violation(P(100, 200, 101)) == 1

    def test_trailing_zeros_do_not_count_toward_the_degree(self):
        # n = 2: 2^2 * 1 * 1 = 4 >= 1 * 1 * 2 * 2, so (1 + x)^2 passes
        assert newton_violation(P(1, 2, 1, 0, 0)) is None

    def test_constants_and_linear_polynomials_have_no_index(self):
        for p in (P(5), P(-1, 3)):
            assert newton_violation(p) is None

    def test_no_certificate_leaves_the_decision_to_sturm(self):
        # one real root, yet 4^2*1*2 >= 1*5*2*3 and 5^2*2*1 >= 4*1*3*2
        p = P(1, 4, 5, 1)
        assert newton_violation(p) is None
        rep = is_real_rooted(p)
        assert not rep.holds
        assert rep.witness == {"distinct_real_roots": 1, "distinct_roots_needed": 3}


class TestInterlaces:
    def test_separated_linear(self):
        assert interlaces(P(2, 1), P(1, 1)).holds

    def test_b_below_all_roots_of_a(self):
        assert not interlaces(P(1, 1), P(6, 5, 1)).holds

    def test_root_above_triple_root_fails(self):
        # 0 does not interlace {-1, -1, -1}: largest root must belong to a
        assert not interlaces(P(0, 6), P(1, 3, 3, 1)).holds

    def test_zero_polynomial_conventions(self):
        assert interlaces(Poly(), P(1, 1)).holds
        assert interlaces(P(1, 1), Poly()).holds

    def test_degree_gap_fails(self):
        assert not interlaces(P(1, 1), P(1, 1) ** 3).holds

    def test_shared_roots_weakly_interlace(self):
        a = P(1, 1) ** 2 * P(3, 1)
        b = P(1, 1) * P(2, 1)
        assert interlaces(b, a).holds

    def test_equal_degrees(self):
        a = P(3, 4, 1)  # roots -1, -3
        b = P(8, 6, 1)  # roots -2, -4
        assert interlaces(b, a).holds
        assert not interlaces(a, b).holds

    def test_proper_interlacing_with_multiplicity(self):
        a = linear_product(1, 3)
        b = linear_product(2)
        assert interlaces(b, a).holds
        assert not interlaces(a, b).holds

    def test_non_real_rooted_rejected(self):
        with pytest.raises(ValueError):
            interlaces(P(1, 0, 7), P(1, 1))

    def test_not_mutually_interlacing_when_degrees_differ(self):
        # only b <= a can hold when deg a = deg b + 1, never both directions
        rng = SplitMix64(83)
        for _ in range(25):
            d = rng.randint(1, 5)
            a = random_real_rooted(rng, d + 1)
            b = random_real_rooted(rng, d)
            assert not interlaces(a, b).holds


#: a small shared pool of real-rooted factors: x - r for a few rationals r,
#: and x^2 - 2 and x^2 - x - 1, whose roots are irrational
ROOT_POOL = [P(-r, 1) for r in (-2, -1, Fraction(-1, 2), 0, Fraction(1, 3), 1, 2)] + [
    P(-2, 0, 1),
    P(-1, -1, 1),
]


def draw_real_rooted(data, degree):
    """A product of pool factors, multiplicities up to 3, of the given degree."""
    p = Poly([data.draw(st.sampled_from([-3, -1, Fraction(1, 2), 2]))])
    while p.degree < degree:
        room = degree - p.degree
        factor = data.draw(st.sampled_from([f for f in ROOT_POOL if f.degree <= room]))
        mult = data.draw(st.integers(1, min(3, room // factor.degree)))
        p = p * factor**mult
    return p


class TestCauchyIndexAgainstRootOrder:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_index_verdict_equals_root_comparison(self, data):
        deg_a = data.draw(st.integers(1, 6))
        a = draw_real_rooted(data, deg_a)
        b = draw_real_rooted(data, deg_a - data.draw(st.integers(0, 1)))
        expected = _root_order(b, a).holds
        assert real_rooted_interlacing(b, a) == expected
        assert interlaces(b, a).holds == expected

    def test_failure_witness_names_the_first_out_of_order_pair(self):
        rep = interlaces(P(0, 1), P(1, 2, 1))
        assert rep.witness == {"index": 1, "root_of_b": "0", "root_of_a": "-1"}
        assert rep.detail == "t_1 > s_1"
        rep = interlaces(P(-2, 0, 1), P(-1, 0, 1))
        assert rep.witness == {"index": 1, "root_of_b": "(5/4, 3/2)", "root_of_a": "1"}
        rep = interlaces(P(0, 1), P(3, -4, 1))
        assert rep.witness == {"index": 1, "root_of_a": "1", "root_of_b": "0"}
        assert rep.detail == "s_2 > t_1"


class TestSymmetryCertificate:
    def test_gap_cube(self):
        cert = symmetry_certificate(GAP_CUBE, 6)
        assert cert.center_numerator == 3 and cert.defect == 3

    def test_not_symmetric(self):
        assert symmetry_certificate(P(1, 0, 7)) is None

    def test_symmetric_ulc_with_tag(self):
        cert = symmetry_certificate(SYMMETRIC_ULC, 6)
        assert cert.center_numerator == 6 and cert.defect == 0

    def test_axis_from_support(self):
        cert = symmetry_certificate(P(0, 2, 2))
        assert cert.center_numerator == 3 and cert.defect is None

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            symmetry_certificate(P())


class TestFunctionalEquation:
    def test_gap_sextic_axis_three(self):
        assert check_functional_eq(w_inverse(GAP_CUBE, 6), 3).holds

    def test_reeve_fails_for_every_axis(self):
        p = w_inverse(P(1, 0, 7), 3)
        assert all(not check_functional_eq(p, s).holds for s in range(4))

    def test_binomial_axis_zero(self):
        for d in range(1, 7):
            assert check_functional_eq(w_inverse(Poly.one(), d), 0).holds

    def test_axis_type_checked_before_its_range(self):
        p = w_inverse(P(1, 0, 1), 2)
        for axis in (True, Fraction(3, 2), 2.0):
            with pytest.raises(TypeError, match=f"^axis {re.escape(repr(axis))} is not an int$"):
                check_functional_eq(p, axis)

    def test_equivalent_to_numerator_symmetry(self):
        rng = SplitMix64(89)
        for _ in range(40):
            d = rng.randint(1, 6)
            h = Poly([rational(rng, 4, 4) for _ in range(rng.randint(0, d) + 1)])
            if h.is_zero:
                continue
            p = w_inverse(h, d)
            if p.degree != d:
                continue
            for s in range(d + 1):
                lhs = check_functional_eq(p, s).holds
                rhs = h.degree <= s and reverse(h, s) == h
                assert lhs == rhs


class TestGamma:
    def test_expansion_of_symmetric_ulc(self):
        assert gamma_expand(SYMMETRIC_ULC, 6) == P(1, 2, 1, 2)

    def test_binomial_power(self):
        assert gamma_expand(P(1, 1) ** 5, 5) == Poly.one()

    def test_small_case(self):
        assert gamma_expand(P(1, 4, 1), 2) == P(1, 2)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            gamma_expand(P(1, 0, 7), 2)

    def test_contract_inverts(self):
        assert gamma_contract(P(1, 2, 1, 2), 6) == SYMMETRIC_ULC
        assert gamma_contract(Poly.one(), 4) == P(1, 1) ** 4

    def test_contract_small_combination(self):
        # (1+x)^2 + 7x
        assert gamma_contract(P(1, 7), 2) == P(1, 9, 1)

    def test_round_trip(self):
        rng = SplitMix64(97)
        for _ in range(40):
            s = rng.randint(0, 9)
            g = Poly([rational(rng, 9, 9) for _ in range(rng.randint(0, s // 2) + 1)])
            assert gamma_expand(gamma_contract(g, s), s) == g

    def test_basis_vectors(self):
        # both maps are linear, so the basis x^i (1+x)^(s-2i) pins them at each axis
        for s in range(25):
            for i in range(s // 2 + 1):
                e = Poly([0] * i + [1])
                basis = Poly.x() ** i * P(1, 1) ** (s - 2 * i)
                assert gamma_contract(e, s) == basis, (i, s)
                assert gamma_expand(basis, s) == e, (i, s)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 40), st.data())
    def test_basis_change_against_the_basis_sum(self, s, data):
        entries = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=7))
        g = Poly(data.draw(st.lists(entries, max_size=s // 2 + 1)))
        oracle = Poly()
        for i, c in enumerate(g.coeffs):
            oracle = oracle + Poly([0] * i + [c]) * P(1, 1) ** (s - 2 * i)
        h = gamma_contract(g, s)
        assert h == oracle
        assert gamma_expand(h, s) == g
        negative = [i for i, c in enumerate(g.coeffs) if c < 0]
        rep = is_gamma_positive(h, s)
        if not negative:
            assert rep == PropertyReport(True)
        else:
            i, value = negative[0], str(g.coefficient(negative[0]))
            assert rep.witness == {"index": i, "value": value}
            assert rep.detail == f"gamma coordinate {i} is {value}"

    @pytest.mark.parametrize(
        "call",
        [
            lambda s: gamma_contract(P(1), s),
            lambda s: gamma_contract(P(1, 2), s),
            lambda s: gamma_expand(P(), s),
            lambda s: gamma_expand(P(1, 2, 1), s),
            lambda s: is_gamma_positive(P(), s),
            lambda s: is_gamma_positive(P(1, 2, 1), s),
        ],
        ids=["contract-one", "contract", "expand-zero", "expand", "positive-zero", "positive"],
    )
    def test_axis_checked_first(self, call):
        for axis in (True, False, 2.0, 2.5, Fraction(2), -1.0):
            with pytest.raises(TypeError, match=f"^axis {re.escape(repr(axis))} is not an int$"):
                call(axis)
        for axis in (-1, -2):
            with pytest.raises(ValueError, match="^axis must be nonnegative$"):
                call(axis)

    def test_positive_example(self):
        assert is_gamma_positive(SYMMETRIC_ULC, 6).holds
        assert is_gamma_positive(P(1, 1) ** 4, 4).holds

    def test_negative_gamma_coordinate(self):
        rep = is_gamma_positive(P(1, 1, 1), 2)
        assert not rep.holds and rep.witness["index"] == 1

    def test_symmetric_real_rooted_implies_gamma_positive(self):
        rng = SplitMix64(101)
        # single magic-style generators x^i (1+x)^(s-2i)
        for s in range(0, 9):
            for i in range(s // 2 + 1):
                h = Poly([0] * i + [1]) * P(1, 1) ** (s - 2 * i)
                assert is_gamma_positive(h, s).holds
        # palindromic products of (x + r)(x + 1/r) with (x + 1) padding
        for _ in range(30):
            pairs = rng.randint(0, 3)
            ones = rng.randint(0, 3)
            h = P(1, 1) ** ones
            for _ in range(pairs):
                r = positive_rational(rng, 9, 9)
                h = h * Poly([r, 1]) * Poly([r]) * Poly([1 / r, 1])
            s = h.degree
            assert symmetry_certificate(h).center_numerator == s
            assert is_real_rooted(h).holds
            assert is_gamma_positive(h, s).holds

    def test_ulc_gamma_implies_ulc(self):
        rng = SplitMix64(103)
        for _ in range(30):
            s = rng.randint(0, 8)
            gdeg = rng.randint(0, s // 2)
            gamma = random_real_rooted(rng, gdeg)
            assert is_ulc(gamma, s // 2).holds
            h = gamma_contract(gamma, s)
            assert is_ulc(h, s).holds

    def test_converse_fails_on_record_example(self):
        # ULC polynomial whose gamma polynomial is not even unimodal
        assert is_ulc(SYMMETRIC_ULC, 6).holds
        g = gamma_expand(SYMMETRIC_ULC, 6)
        assert not is_unimodal(g).holds
