import pytest

from hadpoly import ehrhart
from hadpoly.analysis import PropertyReport, has_internal_zeros, is_log_concave, is_real_rooted
from hadpoly.ehrhart import closed_form, counterexample_report, powers, product_f, reeve
from hadpoly.operators import f_from_h, h_from_f, hadamard
from hadpoly.poly import Poly, TaggedPoly
from hadpoly.rng import SplitMix64


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
        # the Newton certificate that counterexample_report relies on
        ks = []
        for k, f, numerator in powers(12):
            ks.append(k)
            assert f == product_f(k)
            assert numerator == h_from_f(product_f(k), 3 * k)
            assert not is_real_rooted(numerator).holds
        assert ks == list(range(1, 13))

    def test_invalid_kmax(self):
        with pytest.raises(ValueError):
            next(powers(0))


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
        monkeypatch.setattr(ehrhart, "newton_violation", lambda p: None)
        assert counterexample_report(12).holds

    def test_real_rooted_numerator_fails_the_last_stage(self, monkeypatch):
        monkeypatch.setattr(ehrhart, "newton_violation", lambda p: None)
        monkeypatch.setattr(ehrhart, "is_real_rooted", lambda p: PropertyReport.passed())
        report = counterexample_report(3)
        assert not report.holds
        assert report.witness == {"k": 1, "stage": "real-rootedness"}
        assert report.detail == "numerator of power 1 is unexpectedly real-rooted"


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
                [0] * u + [rng.positive_rational(9, 9) for _ in range(d - u + 1)]
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
