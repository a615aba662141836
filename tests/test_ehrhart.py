import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hadpoly import ehrhart
from hadpoly.analysis import (
    PropertyReport,
    has_internal_zeros,
    is_log_concave,
    is_real_rooted,
    newton_violation,
)
from hadpoly.ehrhart import counterexample_report, low_coefficients, powers, product_f, reeve
from hadpoly.generators import gen_real_rooted
from hadpoly.operators import _forward_differences, diamond_power, f_from_h, h_from_f, hadamard
from hadpoly.poly import Poly, TaggedPoly, _strip
from hadpoly.rng import SplitMix64

from helpers import closed_form, positive_rational


def P(*coeffs):
    return Poly(coeffs)


class TestReeveData:
    def test_numerator(self):
        assert reeve().hstar == P(1, 0, 7)

    def test_f_polynomial(self):
        assert reeve().f_poly == P(1, 3, 10, 8)

    def test_consistency(self):
        data = reeve()
        assert f_from_h(data.hstar, data.dim) == data.f_poly

    def test_dimension_and_vertices(self):
        data = reeve()
        assert data.dim == 3
        assert len(data.vertices) == 4


class TestProductF:
    def test_first_power(self):
        assert product_f(1) == P(1, 3, 10, 8)

    def test_second_power_low_coefficients(self):
        f = product_f(2)
        assert [f.coefficient(i) for i in range(3)] == [1, 15, 258]

    def test_constant_term_always_one(self):
        for k in range(1, 6):
            assert product_f(k).coefficient(0) == 1

    def test_degree(self):
        for k in range(1, 5):
            assert product_f(k).degree == 3 * k

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError):
            product_f(0)

    def test_matches_hadamard_powers(self):
        base = TaggedPoly(reeve().hstar, 3)
        acc = base
        for k in range(2, 5):
            acc = hadamard(acc, base)
            assert f_from_h(acc.poly, 3 * k) == product_f(k)


class TestValueSpacePowers:
    def test_equal_the_diamond_powers_up_to_12(self):
        # the Sturm verdict on each numerator is the independent check of
        # the Newton certificate that counterexample_report relies on; powers
        # builds the numerator from f, so it is checked against hadamard
        ks = []
        base = acc = TaggedPoly(reeve().hstar, 3)
        for k, f, numerator in powers(12):
            ks.append(k)
            assert f == product_f(k)
            assert TaggedPoly(numerator, 3 * k) == acc
            assert not is_real_rooted(numerator).holds
            acc = hadamard(acc, base)
        assert ks == list(range(1, 13))

    def test_numerators_equal_the_hadamard_powers(self):
        rng = SplitMix64(3802)
        for _ in range(40):
            d = rng.randint(0, 4)
            h = P(*(rng.randint(0, 9) for _ in range(rng.randint(1, d + 1))))
            base = acc = TaggedPoly(h, d)
            for k, f, numerator in powers(6, h, d):
                assert f == diamond_power(f_from_h(h, d), k), (h, d, k)
                assert TaggedPoly(numerator, d * k) == acc, (h, d, k)
                acc = hadamard(acc, base)

    def test_tables_of_values_double(self, monkeypatch):
        # each table reaches power 2k's tag, capped at k_max's, so powers(12)
        # builds three and the first power of powers(10**9) reads 7 values
        calls = []
        series = ehrhart._series_values
        monkeypatch.setattr(
            ehrhart, "_series_values", lambda v, d, count: calls.append(count) or series(v, d, count)
        )
        assert [k for k, _, _ in powers(12)] == list(range(1, 13))
        assert calls == [7, 19, 37]
        assert next(powers(10**9))[0] == 1
        assert calls[3:] == [7]

    def test_invalid_kmax(self):
        # low_coefficients checks its range like the other two, on its first step
        for k_max in (0, -3):
            for call in (
                lambda: next(powers(k_max)),
                lambda: list(low_coefficients(k_max)),
                lambda: counterexample_report(k_max),
            ):
                with pytest.raises(ValueError, match="^k_max must be at least 1$"):
                    call()

    @pytest.mark.parametrize("k", [True, 2.0, Fraction(2)], ids=["bool", "float", "fraction"])
    def test_power_that_is_not_an_int_rejected(self, k):
        calls = (
            ("k_max", lambda: next(powers(k))),
            ("k_max", lambda: next(low_coefficients(k))),
            ("k_max", lambda: counterexample_report(k)),
            ("k", lambda: product_f(k)),
        )
        for name, call in calls:
            with pytest.raises(TypeError) as raised:
                call()
            assert str(raised.value) == f"{name} {k!r} is not an int"

    @pytest.mark.parametrize("d", ["3", None, 3.0], ids=["str", "none", "float"])
    def test_tag_that_is_not_an_int_rejected(self, d):
        # the tag is checked before any table size is worked out from it
        for call in (
            lambda: next(powers(2, P(1, 0, 7), d)),
            lambda: next(low_coefficients(2, P(1, 0, 7), d)),
            lambda: counterexample_report(2, P(1, 0, 7), d),
        ):
            with pytest.raises(TypeError) as raised:
                call()
            assert str(raised.value) == f"reference degree {d!r} is not an int"

    @pytest.mark.parametrize(
        "h, d", [(P(1, -1), 2), (P(1, 2, 3), 1), (P(1, 0, 7), -1), (P(1, Fraction(1, 2)), 1)]
    )
    def test_invalid_numerator(self, h, d):
        with pytest.raises(ValueError):
            next(powers(2, h, d))
        with pytest.raises(ValueError):
            next(low_coefficients(2, h, d))
        with pytest.raises(ValueError):
            counterexample_report(2, h, d)

    @pytest.mark.parametrize("h, d", [(P(1, -1), 2), (P(1, Fraction(1, 2)), 1), (P(-1), 0)])
    def test_invalid_numerator_message(self, h, d):
        message = f"^need a nonnegative integer numerator of degree at most {d}$"
        with pytest.raises(ValueError, match=message):
            next(powers(2, h, d))
        with pytest.raises(ValueError, match=message):
            counterexample_report(2, h, d)


class TestPowerTriangle:
    """``_power`` builds f and the numerator from one triangle of backward
    differences; at k = 1 it reads the values as given."""

    @given(st.lists(st.integers(), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_equals_forward_differences_then_h_from_f(self, values):
        n = len(values) - 1
        f, numerator = ehrhart._power(1, values, n)
        differences = _forward_differences(values)
        assert f == tuple(_strip(list(differences)))
        assert Poly._from_ints(numerator) == h_from_f(Poly(differences), n)
        assert numerator == tuple(_strip(list(numerator)))

    @pytest.mark.parametrize(
        "h, d, k, f, numerator",
        [
            # d = 0: L(j) = 5 and every tag is 0
            (P(5), 0, 1, (5,), (5,)),
            (P(5), 0, 3, (125,), (125,)),
            # h_0 = 0, so f_0 = 0: L(j) = j and sum j^2 x^j = (x + x^2) / (1-x)^3
            (P(0, 1), 1, 2, (0, 1, 2), (0, 1, 1)),
            # deg h < d: sum C(j+2, 2)^2 x^j = (1 + 4x + x^2) / (1-x)^5, tagged 4
            (P(1), 2, 2, (1, 8, 19, 18, 6), (1, 4, 1)),
        ],
    )
    def test_pinned_powers(self, h, d, k, f, numerator):
        n = d * k
        assert ehrhart._power(k, ehrhart._values(h, d, k), n) == (f, numerator)
        assert Poly(f) == diamond_power(f_from_h(h, d), k)


def lows(p):
    return tuple(p.coefficient(i) for i in range(3))


def binomial_values(coeffs, d):
    """L(0), L(1), L(2) for h tagged d: L(j) = sum_i h_i C(j - i + d, d), the
    series coefficients of h / (1-x)^(d+1)."""
    return tuple(
        sum(c * math.comb(j - i + d, d) for i, c in enumerate(coeffs[: j + 1])) for j in range(3)
    )


numerators = st.integers(0, 6).flatmap(
    lambda d: st.tuples(st.lists(st.integers(0, 9), min_size=1, max_size=d + 1), st.just(d))
)


class TestLowCoefficients:
    """The three-value sweep against full polynomials built two other ways."""

    @given(numerators, st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_match_powers_and_diamond_powers(self, numerator, k_max):
        coeffs, d = numerator
        h = P(*coeffs)
        sweep = list(low_coefficients(k_max, h, d))
        full = list(powers(k_max, h, d))
        assert [k for k, _, _ in sweep] == [k for k, _, _ in full] == list(range(1, k_max + 1))
        for (k, f_lows, h_lows), (_, f, numerator) in zip(sweep, full):
            assert lows(f) == f_lows and lows(numerator) == h_lows
            diamond = diamond_power(f_from_h(h, d), k)
            assert diamond == f and h_from_f(diamond, d * k) == numerator
            if ehrhart._newton_fails_at_tag(h_lows, d * k):
                assert newton_violation(numerator) == 1

    def test_reeve_matches_powers_and_closed_form_up_to_40(self):
        sweep = low_coefficients(40)
        for (k, f_lows, h_lows), (_, f, numerator) in zip(sweep, powers(40)):
            assert lows(f) == f_lows == closed_form(k)
            assert lows(numerator) == h_lows
            assert ehrhart._newton_fails_at_tag(h_lows, 3 * k)

    @given(numerators, st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_log_concavity_margin_identity(self, numerator, k):
        # f0 f2 - f1^2 = P0 (P2 - 2 P1 + P0) - (P1 - P0)^2 = P0 P2 - P1^2
        coeffs, d = numerator
        l0, l1, l2 = binomial_values(coeffs, d)
        *_, (_, (f0, f1, f2), _) = low_coefficients(k, P(*coeffs), d)
        assert f0 * f2 - f1 * f1 == (l0 * l2) ** k - l1 ** (2 * k)


class TestEveryK:
    """A pass says no power k >= 1 is real-rooted, since power 1's strict
    inequality, L1^2 < L0 L2, gives f_(k,1)^2 < f_(k,0) f_(k,2) at every k."""

    @given(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 300)),
        st.lists(st.integers(0, 9), max_size=4),
        st.integers(0, 6),
        st.integers(1, 300),
    )
    @example((1, 0, 7), [], 3, 300)  # Reeve
    @example((1, 0, 6), [], 3, 2)  # T_7: L(1)^2 = L(0) L(2), not certified
    @example((1, 0, 9), [], 1, 1)  # d = 1
    @settings(max_examples=80, deadline=None)
    def test_holds_at_each_k_of_the_sweep(self, low, tail, d, k):
        coeffs = [*low, *tail][: d + 1]
        l0, l1, l2 = binomial_values(coeffs, d)
        certified = l1 * l1 < l0 * l2
        # power 1 alone decides the report: it passes exactly on the certificate
        assert counterexample_report(1, P(*coeffs), d).holds == certified
        *_, (_, (f0, f1, f2), _) = low_coefficients(k, P(*coeffs), d)
        if certified:
            assert f1 * f1 < f0 * f2

    def test_wagner_control(self):
        # a real-rooted nonnegative h has real-rooted Hadamard powers at every tag
        # d >= deg h (Wagner 1992), so it must never be certified
        rng = SplitMix64(3803)
        for trial in range(300):
            degree = rng.randint(0, 6)
            h = P(*gen_real_rooted(rng, degree, 9).poly._num)  # denominators cleared
            for d in range(degree, degree + 3):
                l0, l1, l2 = ehrhart._values(h, d, 0)
                assert not l1 * l1 < l0 * l2, (trial, h, d)
                assert not counterexample_report(3, h, d).holds, (trial, h, d)

    def test_reeve_pass_says_every_k(self):
        report = counterexample_report(8)
        assert report.detail == (
            "counterexample confirmed for every power k >= 1, and power by power up to 8"
        )


class TestClosedForm:
    def test_first(self):
        assert closed_form(1) == (1, 3, 10)

    def test_second(self):
        assert closed_form(2) == (1, 15, 258)

    def test_recursion(self):
        for k in range(1, 9):
            f0, f1, f2 = closed_form(k)
            g0, g1, g2 = closed_form(k + 1)
            assert g0 == f0
            assert g1 == 3 * f0 + 4 * f1
            assert g2 == 10 * f0 + 26 * f1 + 17 * f2

    def test_matches_diamond_powers(self):
        for k in range(1, 9):
            f = product_f(k)
            assert tuple(f.coefficient(i) for i in range(3)) == closed_form(k)

    def test_margin_grows(self):
        # the gap f2*f0 - f1^2 equals 17^k - 16^k, strictly increasing
        previous = 0
        for k in range(1, 9):
            f0, f1, f2 = closed_form(k)
            margin = f0 * f2 - f1 * f1
            assert margin == 17**k - 16**k
            assert margin > previous
            previous = margin


class TestCounterexampleReport:
    def test_first_power(self):
        assert counterexample_report(1).holds

    def test_four_powers_with_nonnegative_numerators(self):
        assert counterexample_report(4).holds
        for k in range(1, 5):
            numerator = h_from_f(product_f(k), 3 * k)
            assert all(c >= 0 for c in numerator.coeffs)

    @pytest.mark.parametrize("k, real, needed", [(8, 21, 23), (11, 30, 32), (12, 33, 35)])
    def test_numerator_root_count_witness(self, k, real, needed):
        report = is_real_rooted(h_from_f(product_f(k), 3 * k))
        assert not report.holds
        assert report.witness == {"distinct_real_roots": real, "distinct_roots_needed": needed}

    def test_invalid_kmax(self):
        with pytest.raises(ValueError):
            counterexample_report(0)

    def test_sturm_fallback_decides_without_a_certificate(self, monkeypatch):
        # no Newton inequality fails, neither the sweep's at the tag nor the full
        # numerator's, so every power up to 12 is built and decided by its Sturm chain
        calls = []
        monkeypatch.setattr(ehrhart, "_newton_index", lambda v, m: None)
        monkeypatch.setattr(
            ehrhart, "is_real_rooted", lambda p: calls.append(p) or is_real_rooted(p)
        )
        assert counterexample_report(12).holds
        assert calls == [numerator for _, _, numerator in powers(12)]

    def test_real_rooted_numerator_fails_the_last_stage(self, monkeypatch):
        monkeypatch.setattr(ehrhart, "_newton_index", lambda v, m: None)
        monkeypatch.setattr(ehrhart, "is_real_rooted", lambda p: PropertyReport.passed())
        report = counterexample_report(3)
        assert not report.holds
        assert report.witness == {"k": 1, "stage": "real-rootedness"}
        assert report.detail == "numerator of power 1 is unexpectedly real-rooted"

    def test_log_concave_power_fails_its_stage(self, monkeypatch):
        monkeypatch.setattr(ehrhart, "_log_concave_index", lambda v: None)
        report = counterexample_report(3)
        assert not report.holds
        assert report.witness == {"k": 1, "stage": "log-concavity"}
        assert report.detail == "power 1 is unexpectedly log-concave"

    def test_negative_f_coefficient_is_rejected(self, monkeypatch):
        # the low coefficients still match the sweep's, so only the precondition
        # of the log-concavity stage sees the -8
        power = ehrhart._power
        monkeypatch.setattr(ehrhart, "_power", lambda *args: ((1, 3, 10, -8), power(*args)[1]))
        with pytest.raises(ValueError, match="negative coefficient -8 at index 3"):
            counterexample_report(1)

    def test_cross_check_past_the_digit_limit(self):
        # the k = 60 power has coefficients of more than 4300 digits, which the
        # default int-to-str limit would refuse to print
        f, _ = ehrhart._power(60, ehrhart._values(P(1, 0, 10**80), 3, 60), 180)
        assert max(f) > 10**4300
        assert counterexample_report(60, P(1, 0, 10**80), 3).holds

    @pytest.mark.parametrize(
        "k_max, built", [(2, [1, 2]), (12, [1, 2, 3, 12]), (100, [1, 2, 3, 60])]
    )
    def test_full_polynomials_only_as_cross_checks(self, monkeypatch, k_max, built):
        calls = []
        power = ehrhart._power
        monkeypatch.setattr(ehrhart, "_power", lambda *args: calls.append(args[0]) or power(*args))
        assert counterexample_report(k_max).holds
        assert calls == built

    @pytest.mark.parametrize("k_max, counts", [(12, [37]), (100, [181])])
    def test_cross_checks_read_one_table_of_values(self, monkeypatch, k_max, counts):
        # one table up to the largest checked power, which gives the sweep its
        # L(0..2) and is read by every power built
        calls = []
        series = ehrhart._series_values
        monkeypatch.setattr(
            ehrhart, "_series_values", lambda v, d, count: calls.append(count) or series(v, d, count)
        )
        assert counterexample_report(k_max).holds
        assert calls == counts

    def test_missing_certificate_builds_every_power(self, monkeypatch):
        calls = []
        power = ehrhart._power
        monkeypatch.setattr(ehrhart, "_power", lambda *args: calls.append(args[0]) or power(*args))
        monkeypatch.setattr(ehrhart, "_newton_fails_at_tag", lambda lows, n: False)
        assert counterexample_report(12).holds
        assert calls == list(range(1, 13))

    @pytest.mark.parametrize(
        "k, which, got",
        [
            (7, 1, ["1", "16384", "410305906"]),
            (2, 2, ["1", "9", "198"]),
            (3600, 1, ["1", str(4**3600), "(too many digits to print)"]),
        ],
    )
    def test_sweep_that_drifts_fails_the_closed_form(self, monkeypatch, k, which, got):
        # f_(k,1) one too high (which = 1) leaves the recurrence; h_(k,1) one
        # too high (which = 2) differs from the full numerator's, which is reported.
        # At k = 3600, f_(k,2) ~ 17^k has more digits than the int-to-str limit of 4300
        sweep = ehrhart._sweep

        def drifted(*args):
            for item in sweep(*args):
                if item[0] == k:
                    item = list(item)
                    item[which] = (item[which][0], item[which][1] + 1, item[which][2])
                yield tuple(item)

        monkeypatch.setattr(ehrhart, "_sweep", drifted)
        report = counterexample_report(max(k, 12))
        assert not report.holds
        assert report.witness == {"k": k, "stage": "closed form", "got": got}
        assert report.detail == f"low coefficients at k={k} differ from the closed form"

    def test_other_numerators(self):
        # L = (1, 3, 5) for (1 + x, 1): 3^2 >= 1 * 5, so power 1 is log-concave at index 1
        report = counterexample_report(5, P(1, 1), 1)
        assert report.witness == {"k": 1, "stage": "strict inequality"}
        # h_2 > h_1^2 + 4 h_1 + 6 at d = 3, h_0 = 1 gives L1^2 < L0 L2; equality fails
        assert counterexample_report(70, P(1, 1, 12), 3).holds
        report = counterexample_report(3, P(1, 1, 11), 3)
        assert report.witness == {"k": 1, "stage": "strict inequality"}


class TestLogConcavityTransport:
    def test_numerator_log_concavity_transports_to_f(self):
        # nonnegative + log-concave + contiguous numerator forces the same
        # for its f-polynomial; the counterexample argument runs this
        # implication in reverse
        rng = SplitMix64(149)
        checked = 0
        for _ in range(300):
            d = rng.randint(1, 6)
            u = rng.randint(0, d)
            h = Poly(
                [0] * u + [positive_rational(rng, 9, 9) for _ in range(d - u + 1)]
            )
            if not (is_log_concave(h).holds and has_internal_zeros(h).holds):
                continue
            checked += 1
            f = f_from_h(h, d)
            assert is_log_concave(f).holds
            assert has_internal_zeros(f).holds
        assert checked > 20

    def test_counterexample_transports_back(self):
        # f-polynomials of the powers fail log-concavity, so the numerators must too
        for k in range(1, 4):
            f = product_f(k)
            h = h_from_f(f, 3 * k)
            assert not is_log_concave(f).holds
            assert not is_log_concave(h).holds
            assert not is_real_rooted(h).holds
