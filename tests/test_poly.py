from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadpoly.poly import Poly, TaggedPoly, gcd, reflect, reverse


def P(*coeffs):
    return Poly(coeffs)


coefficients = st.fractions(
    min_value=-9, max_value=9, max_denominator=5
)
polys = st.builds(Poly, st.lists(coefficients, max_size=7))
degrees = st.integers(min_value=0, max_value=10)


class TestCanonicalForm:
    def test_trailing_zeros_stripped(self):
        assert P(1, 2, 0, 0).coeffs == (1, 2)

    def test_zero_polynomial(self):
        assert P().is_zero
        assert P(0, 0).is_zero
        assert P().degree is None
        assert P().coeffs == ()

    def test_degree(self):
        assert P(1, 0, 7).degree == 2
        assert P(5).degree == 0

    def test_fraction_coefficient_kept_as_given(self):
        half = Fraction(1, 2)
        assert P(half, 1).coeffs[0] is half
        assert P(3).coeffs == (Fraction(3),)

    @pytest.mark.parametrize("bad", [0.1, "1/2"], ids=["float", "string"])
    def test_coefficient_neither_int_nor_fraction_rejected(self, bad):
        with pytest.raises(TypeError, match="is not an int or a Fraction"):
            P(1, bad)

    @given(polys)
    def test_no_stored_trailing_zero(self, p):
        if not p.is_zero:
            assert p.coeffs[-1] != 0


class TestAdd:
    def test_additive_inverse(self):
        assert P(1, 1) + P(-1, -1) == P()

    def test_disjoint_supports(self):
        assert P(1, 0, 7) + P(0, 3) == P(1, 3, 7)

    def test_doubling(self):
        assert P(1, 0, 0, 1) + P(1, 0, 0, 1) == P(2, 0, 0, 2)


class TestMul:
    def test_square_of_binomial(self):
        assert P(1, 1) * P(1, 1) == P(1, 2, 1)

    def test_identity(self):
        assert P(1, 0, 0, 1) * Poly.one() == P(1, 0, 0, 1)

    def test_schoolbook_expansion(self):
        # (1 + 3x + 10x^2 + 8x^3) times its derivative, expanded by hand
        f = P(1, 3, 10, 8)
        assert f * f.derivative() == P(3, 29, 114, 296, 400, 192)

    @given(polys, polys)
    def test_commutative(self, a, b):
        assert a * b == b * a

    @given(polys, polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(polys, polys)
    def test_degree_additive(self, a, b):
        if not a.is_zero and not b.is_zero:
            assert (a * b).degree == a.degree + b.degree

    @given(polys, polys, coefficients)
    def test_evaluation_multiplicative(self, a, b, r):
        assert (a * b).evaluate(r) == a.evaluate(r) * b.evaluate(r)


class TestDerivative:
    def test_power_rule(self):
        assert P(1, 3, 10, 8).derivative() == P(3, 20, 24)

    def test_order_exceeds_degree(self):
        assert P(1, 0, 0, 1).derivative(4) == P()

    def test_magic_basis_product_rule(self):
        # d/dx [x^i (x+1)^(d-i)] = i x^(i-1) (x+1)^(d-i) + (d-i) x^i (x+1)^(d-i-1)
        i, d = 2, 5
        f = Poly.monomial(i) * P(1, 1) ** (d - i)
        expected = (
            Poly.monomial(i - 1).scale(i) * P(1, 1) ** (d - i)
            + Poly.monomial(i).scale(d - i) * P(1, 1) ** (d - i - 1)
        )
        assert f.derivative() == expected


class TestEvaluate:
    def test_at_one(self):
        assert P(1, 0, 7).evaluate(1) == 8

    def test_constant_term(self):
        assert P(1, 3, 10, 8).evaluate(0) == 1

    def test_known_root(self):
        assert P(6, 11, 6, 1).evaluate(-1) == 0


class TestReverse:
    def test_coefficient_reversal(self):
        assert reverse(P(1, 0, 7), 2) == P(7, 0, 1)

    def test_palindrome_fixed(self):
        assert reverse(P(1, 0, 0, 1), 3) == P(1, 0, 0, 1)

    def test_degree_overflow(self):
        with pytest.raises(ValueError):
            reverse(P(1, 0, 7), 1)

    @given(polys, degrees)
    def test_involution(self, h, d):
        if h.is_zero or h.degree <= d:
            assert reverse(reverse(h, d), d) == h


class TestReflect:
    def test_linear(self):
        assert reflect(Poly.x(), 1) == P(1, 1)

    def test_magic_basis_swap(self):
        # x^i (x+1)^(d-i) maps to x^(d-i) (x+1)^i
        i, d = 1, 3
        f = Poly.monomial(i) * P(1, 1) ** (d - i)
        expected = Poly.monomial(d - i) * P(1, 1) ** i
        assert reflect(f, d) == expected

    def test_degree_overflow(self):
        with pytest.raises(ValueError):
            reflect(P(0, 0, 1), 1)

    @given(polys, degrees)
    def test_involution(self, f, d):
        if f.is_zero or f.degree <= d:
            assert reflect(reflect(f, d), d) == f


class TestGcd:
    def test_shared_factor(self):
        a = P(1, 1) * P(1, 1)
        b = P(1, 1) * P(2, 1)
        assert gcd(a, b) == P(1, 1)

    def test_coprime(self):
        assert gcd(P(1, 1, 1), P(5, 1)) == Poly.one()

    def test_with_derivative(self):
        p = P(2, 1) ** 3
        assert gcd(p, p.derivative()) == P(2, 1) ** 2

    def test_both_zero(self):
        with pytest.raises(ValueError):
            gcd(P(), P())

    @given(polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_divides_both(self, a, b):
        if a.is_zero and b.is_zero:
            return
        g = gcd(a, b)
        for p in (a, b):
            if not p.is_zero:
                _, r = divmod(p, g)
                assert r.is_zero


class TestDivision:
    @given(polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_divmod_reconstructs(self, a, b):
        if b.is_zero:
            return
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree


class TestTaggedPoly:
    def test_tag_violation(self):
        with pytest.raises(ValueError):
            TaggedPoly(P(1, 0, 7), 1)

    def test_equality(self):
        assert TaggedPoly(P(1), 3) == TaggedPoly(P(1), 3)
        assert TaggedPoly(P(1), 3) != TaggedPoly(P(1), 4)


class TestFormat:
    def test_descending_powers(self):
        assert str(P(1, 3, 10, 8)) == "8x^3 + 10x^2 + 3x + 1"

    def test_zero(self):
        assert str(P()) == "0"

    def test_rational_and_negative(self):
        assert str(Poly([Fraction(1, 2), -1])) == "-x + 1/2"
