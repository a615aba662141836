import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hadpoly import analysis, decomp
from hadpoly.analysis import interlaces, is_real_rooted
from hadpoly.decomp import (
    SymDecomp,
    decomposition_is_gamma_positive,
    decomposition_is_interlacing,
    decomposition_is_nonnegative,
    defect1_ell,
    i_decompose,
    r_decompose,
)
from hadpoly.operators import diamond, f_from_h, hadamard, reflect
from hadpoly.poly import Poly, TaggedPoly, reverse
from hadpoly.rng import SplitMix64

from helpers import (
    binomial_basis_change,
    defect1_by_division,
    positive_rational,
    rational,
    reflection_split,
)

NEAR_SYMMETRIC_CUBIC = Poly([1, 3, 9, 1])  # splits into (1+x)^3 and 6x
SQUARE_EX = Poly([1, 42, 639, 1836, 1239, 162, 1])


def P(*coeffs):
    return Poly(coeffs)


#: signed rationals over mixed denominators, zero drawn often so that parts vanish
signed = st.just(Fraction(0)) | st.fractions(min_value=-9, max_value=9, max_denominator=6)
#: (coefficients, d) for an f-polynomial of degree at most d <= 8
f_cases = st.integers(0, 8).flatmap(
    lambda d: st.tuples(st.lists(signed, max_size=d + 1), st.just(d))
)
#: (lower half, d) of a palindrome of degree d - 1, for 1 <= d <= 8
half_cases = st.integers(1, 8).flatmap(
    lambda d: st.tuples(st.lists(signed, min_size=(d + 1) // 2, max_size=(d + 1) // 2), st.just(d))
)


def random_nonneg(rng, d):
    return Poly([rational(rng, 9, 9) for _ in range(d + 1)])


class TestIDecompose:
    def test_near_symmetric_cubic(self):
        dec = i_decompose(NEAR_SYMMETRIC_CUBIC, 3)
        assert dec.a == P(1, 3, 3, 1)
        assert dec.b == P(0, 6)

    def test_symmetric_input_has_zero_b(self):
        h = P(2, 5, 5, 2)
        dec = i_decompose(h, 3)
        assert dec.a == h and dec.b.is_zero

    def test_square_example_pieces_not_real_rooted(self):
        dec = i_decompose(SQUARE_EX, 6)
        assert not is_real_rooted(dec.a).holds

    def test_signed_instance(self):
        dec = i_decompose(P(1, -1, 1, 1), 3)
        assert dec.a == P(1, -1, -1, 1)
        assert dec.b == P(0, 2)
        rep = decomposition_is_nonnegative(dec)
        assert not rep.holds
        assert list(rep.witness.items()) == [("part", "a"), ("index", 1), ("value", "-1")]
        assert rep.detail == "coefficient 1 of a is -1"

    def test_reconstruction_random(self):
        rng = SplitMix64(107)
        for _ in range(40):
            d = rng.randint(0, 9)
            h = random_nonneg(rng, rng.randint(0, d))
            dec = i_decompose(h, d)
            assert dec.reconstruct() == h
            assert reverse(dec.a, d) == dec.a
            if d >= 1:
                assert reverse(dec.b, d - 1) == dec.b

    def test_degree_overflow(self):
        with pytest.raises(ValueError):
            i_decompose(P(1, 1, 1), 1)


half = Fraction(1, 2)


class TestSymDecomp:
    @pytest.mark.parametrize(
        "a, b, d, error, message",
        [
            (P(1, 2, 1), P(), True, TypeError, "reference degree True is not an int"),
            (P(1, 2, 1), P(), 2.5, TypeError, "reference degree 2.5 is not an int"),
            (P(1, 2, 1), P(), Fraction(2), TypeError, "reference degree Fraction(2, 1) is not an int"),
            (P(), P(), -1, ValueError, "reference degree must be nonnegative"),
            (P(1, 2, 1), P(1), -1, ValueError, "reference degree must be nonnegative"),
            (P(1, 2, 1), P(), 1, ValueError, "degree overflow: deg h = 2 > d = 1"),
            (P(1, 1), P(1, 1), 1, ValueError, "degree overflow: deg h = 1 > d = 0"),
            (P(1, 2), P(1, 2, 1), 1, ValueError, "a is not its own reversal at degree 1"),
            (P(half, 1), P(), 1, ValueError, "a is not its own reversal at degree 1"),
            (P(0, 1), P(1, 2), 2, ValueError, "b is not its own reversal at degree 1"),
            (P(1, 0, 1), P(1, 2), 2, ValueError, "b is not its own reversal at degree 1"),
            (P(3), P(1), 0, ValueError, "a degree-0 decomposition forces b = 0"),
        ],
    )
    def test_bad_degree_or_asymmetric_part(self, a, b, d, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            SymDecomp(a, b, d)

    @pytest.mark.parametrize(
        "a, b, d",
        [
            (P(half, half), P(Fraction(1, 3)), 1),
            (P(0, Fraction(2, 3), 0), P(Fraction(5, 4), Fraction(5, 4)), 2),
            (P(), P(Fraction(1, 6), 0, Fraction(1, 6)), 3),
            (P(Fraction(-1, 9), 2, 2, Fraction(-1, 9)), P(), 3),
        ],
    )
    def test_reconstruct_over_different_denominators(self, a, b, d):
        dec = SymDecomp(a, b, d)
        assert dec.reconstruct() == a + Poly.x() * b
        assert i_decompose(dec.reconstruct(), d) == dec

    def test_reconstruct_random(self):
        rng = SplitMix64(109)
        for _ in range(40):
            d = rng.randint(1, 9)
            p, q = (Poly([rational(rng, 9, 9) for _ in range(k + 1)]) for k in (d, d - 1))
            a, b = p + reverse(p, d), q + reverse(q, d - 1)
            assert SymDecomp(a, b, d).reconstruct() == a + Poly.x() * b


class TestRDecompose:
    def test_reflection_fixed_point(self):
        f = f_from_h(P(2, 5, 5, 2), 3)
        assert reflect(f, 3) == f
        a, b = r_decompose(f, 3)
        assert a == f and b.is_zero

    def test_transport_from_coefficient_split(self):
        dec = i_decompose(NEAR_SYMMETRIC_CUBIC, 3)
        a, b = r_decompose(f_from_h(NEAR_SYMMETRIC_CUBIC, 3), 3)
        assert a == f_from_h(dec.a, 3)
        assert b == f_from_h(dec.b, 2)

    def test_identity_and_symmetry_random(self):
        rng = SplitMix64(109)
        for _ in range(40):
            d = rng.randint(0, 10)
            f = random_nonneg(rng, rng.randint(0, d))
            a, b = r_decompose(f, d)
            assert a + Poly.x() * b == f
            assert reflect(a, d) == a
            if d >= 1:
                assert reflect(b, d - 1) == b

    def test_transport_random(self):
        rng = SplitMix64(113)
        for _ in range(30):
            d = rng.randint(0, 10)
            h = random_nonneg(rng, rng.randint(0, d))
            dec = i_decompose(h, d)
            a, b = r_decompose(f_from_h(h, d), d)
            assert a == f_from_h(dec.a, d)
            if d >= 1:
                assert b == f_from_h(dec.b, d - 1)
            else:
                assert b.is_zero


class TestAgainstRingFormulas:
    """The value-map constructions equal the ``Poly`` ring formulas in ``helpers``."""

    @given(f_cases)
    @example(([], 0))
    @example(([Fraction(-3, 4)], 0))
    @example(([Fraction(1, 2)], 5))
    @settings(max_examples=150, deadline=None)
    def test_r_decompose_is_the_reflection_split(self, case):
        coeffs, d = case
        f = Poly(coeffs)
        a, b = reflection_split(f, d)
        assert r_decompose(f, d) == (a, b)
        if d == 0:
            assert b.is_zero

    @given(half_cases, half_cases)
    @example(([Fraction(0)], 1), ([Fraction(0)], 1))
    @example(([Fraction(0)], 2), ([Fraction(2, 3)], 1))
    @example(([Fraction(-1, 2)], 1), ([Fraction(5, 3)], 1))
    @settings(max_examples=150, deadline=None)
    def test_defect1_ell_is_the_quotient_by_x_plus_one(self, case1, case2):
        (half1, d1), (half2, d2) = case1, case2
        b1, b2 = _reflection_symmetric(half1, d1 - 1), _reflection_symmetric(half2, d2 - 1)
        assert defect1_ell(b1, d1, b2, d2) == defect1_by_division(b1, b2)


def _reflection_symmetric(half, degree):
    """The f-polynomial, by binomial sums, of the palindrome of ``degree`` whose
    lower half is ``half``."""
    coeffs = [Fraction(0)] * (degree + 1)
    for i, c in enumerate(half):
        coeffs[i] = coeffs[degree - i] = c
    return binomial_basis_change(Poly(coeffs), degree, 1)


class TestDefect1Ell:
    def test_constant_parts(self):
        ell = defect1_ell(Poly.one(), 1, Poly.one(), 1)
        assert ell == P(1, 2)
        assert reflect(ell, 1) == ell

    def test_zero_part(self):
        assert defect1_ell(Poly(), 1, Poly(), 1).is_zero

    def test_shifted_identity_random(self):
        rng = SplitMix64(127)
        for _ in range(25):
            d1, d2 = rng.randint(1, 4), rng.randint(1, 4)
            b1 = _random_reflection_symmetric(rng, d1 - 1)
            b2 = _random_reflection_symmetric(rng, d2 - 1)
            ell = defect1_ell(b1, d1, b2, d2)
            assert diamond(Poly.x() * b1, Poly.x() * b2) == Poly.x() * ell
            assert diamond(P(1, 1) * b1, P(1, 1) * b2) == P(1, 1) * ell

    def test_magic_positive_parts_give_magic_positive_ell(self):
        from hadpoly.operators import msupp

        rng = SplitMix64(131)
        for _ in range(25):
            d1, d2 = rng.randint(1, 4), rng.randint(1, 4)
            b1 = _random_reflection_symmetric(rng, d1 - 1)
            b2 = _random_reflection_symmetric(rng, d2 - 1)
            if b1.is_zero or b2.is_zero:
                continue
            ell = defect1_ell(b1, d1, b2, d2)
            msupp(ell, d1 + d2 - 1)  # raises if not magic positive

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            defect1_ell(P(1, 1), 2, Poly.one(), 1)

    @pytest.mark.parametrize("d", [True, 1.0, 2.0, Fraction(2)], ids=["bool", "1.0", "2.0", "fraction"])
    def test_degree_that_is_not_an_int_rejected(self, d):
        for name, call in (
            ("d1", lambda: defect1_ell(Poly.one(), d, Poly.one(), 1)),
            ("d2", lambda: defect1_ell(Poly.one(), 1, Poly.one(), d)),
        ):
            with pytest.raises(TypeError) as raised:
                call()
            assert str(raised.value) == f"{name} {d!r} is not an int"


def _random_reflection_symmetric(rng, degree):
    """Random polynomial fixed by the reflection at the given degree."""
    h = Poly([rational(rng, 4, 4) for _ in range(degree // 2 + 1)])
    coeffs = [Fraction(0)] * (degree + 1)
    for i, c in enumerate(h.coeffs):
        coeffs[i] = c
        coeffs[degree - i] = c
    return f_from_h(Poly(coeffs), degree)


class TestPredicates:
    def test_nonnegative_example(self):
        dec = i_decompose(NEAR_SYMMETRIC_CUBIC, 3)
        assert decomposition_is_nonnegative(dec).holds

    def test_nonnegative_zero_b(self):
        assert decomposition_is_nonnegative(SymDecomp(P(1, 1), Poly(), 1)).holds

    def test_nonnegative_past_the_digit_limit(self):
        # -10^5000 has more digits than the default int-to-str limit of 4300
        rep = decomposition_is_nonnegative(SymDecomp(P(-(10**5000)), Poly(), 0))
        marker = "(too many digits to print)"
        assert rep.witness == {"part": "a", "index": 0, "value": marker}
        assert rep.detail == f"coefficient 0 of a is {marker}"

    def test_interlacing_fails_for_detached_root(self):
        # b = 6x has its root above every root of a = (1+x)^3
        dec = i_decompose(NEAR_SYMMETRIC_CUBIC, 3)
        assert not decomposition_is_interlacing(dec).holds

    def test_interlacing_zero_b(self):
        dec = SymDecomp(P(1, 2, 1), Poly(), 2)
        assert decomposition_is_interlacing(dec).holds

    @pytest.mark.parametrize(
        "dec, part",
        [(SymDecomp(P(1, 1, 1), Poly(), 2), "a"), (SymDecomp(Poly(), P(1, 0, 1), 3), "b")],
        ids=["zero-b", "zero-a"],
    )
    def test_interlacing_zero_part_needs_the_other_real_rooted(self, dec, part):
        # ``interlaces`` alone passes any pair with a zero member
        assert interlaces(dec.b, dec.a).detail == "zero polynomial convention"
        report = decomposition_is_interlacing(dec)
        assert not report.holds
        assert report.witness == {"part": part, "reason": "not real-rooted"}

    def test_interlacing_square_example_fails(self):
        dec = i_decompose(SQUARE_EX, 6)
        assert not decomposition_is_interlacing(dec).holds

    def test_interlacing_positive_case(self):
        a = P(1, 1) ** 2  # roots -1, -1
        b = P(1, 1)  # root -1 sits weakly between
        dec = SymDecomp(a, b, 2)
        assert decomposition_is_interlacing(dec).holds

    def test_interlacing_index_holds_but_a_is_not_real_rooted(self):
        # a = (x^2 + 1)(x + 1) and b = x^2 + 1 pass the Cauchy index of the
        # pair; their gcd x^2 + 1, so a itself, is not real-rooted
        rep = decomposition_is_interlacing(SymDecomp(P(1, 1, 1, 1), P(1, 0, 1), 3))
        assert not rep.holds
        assert rep.witness == {"part": "a", "reason": "not real-rooted"}
        assert rep.detail == "a is not real-rooted"
        with pytest.raises(ValueError, match="non-real-rooted input: a"):
            interlaces(P(1, 0, 1), P(1, 1, 1, 1))

    def test_non_interlacing_pair_is_decided_once(self, monkeypatch):
        """Real-rooted parts that do not interlace: one chain and one
        real-rootedness check per part, and the report of ``interlaces``."""
        a, b = P(1, 1) ** 3, P(1, 10, 1)  # roots -1, -1, -1 against -5 +- 2 sqrt 6
        expected = interlaces(b, a)
        calls = []

        def counting(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        for module in (analysis, decomp):
            for name in ("real_rooted_interlacing", "is_real_rooted"):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        rep = decomposition_is_interlacing(SymDecomp(a, b, 3))
        assert sorted(calls) == ["is_real_rooted"] * 2 + ["real_rooted_interlacing"]
        assert (rep.holds, rep.witness, rep.detail) == (False, expected.witness, expected.detail)
        assert rep.detail == "t_1 > s_1"

    def test_gamma_positive_example(self):
        dec = i_decompose(NEAR_SYMMETRIC_CUBIC, 3)
        assert decomposition_is_gamma_positive(dec).holds

    def test_gamma_negative_part(self):
        dec = SymDecomp(P(1, 1, 1), Poly(), 2)
        rep = decomposition_is_gamma_positive(dec)
        assert not rep.holds and rep.witness["part"] == "a"

    def test_gamma_positive_trivial(self):
        dec = SymDecomp(P(1, 1) ** 4, Poly(), 4)
        assert decomposition_is_gamma_positive(dec).holds


class TestPreservation:
    """Spot checks of the preservation statements at fixed small instances."""

    def test_nonnegative_preserved(self):
        rng = SplitMix64(137)
        for _ in range(15):
            d1, d2 = rng.randint(0, 4), rng.randint(0, 4)
            h1 = _nonneg_decomposable(rng, d1)
            h2 = _nonneg_decomposable(rng, d2)
            out = hadamard(TaggedPoly(h1, d1), TaggedPoly(h2, d2))
            dec = i_decompose(out.poly, d1 + d2)
            assert decomposition_is_nonnegative(dec).holds

    def test_gamma_positive_square_of_example(self):
        out = hadamard(
            TaggedPoly(NEAR_SYMMETRIC_CUBIC, 3), TaggedPoly(NEAR_SYMMETRIC_CUBIC, 3)
        )
        dec = i_decompose(out.poly, 6)
        assert decomposition_is_gamma_positive(dec).holds
        # ... even though the same decomposition is not real-rooted
        assert not decomposition_is_interlacing(dec).holds

    def test_contiguous_support_preserved(self):
        from hadpoly.analysis import has_internal_zeros

        rng = SplitMix64(139)
        for _ in range(15):
            d1, d2 = rng.randint(0, 5), rng.randint(0, 5)
            u1, u2 = rng.randint(0, d1), rng.randint(0, d2)
            h1 = Poly([Fraction(0)] * u1 + [positive_rational(rng, 9, 9) for _ in range(d1 - u1 + 1)])
            h2 = Poly([Fraction(0)] * u2 + [positive_rational(rng, 9, 9) for _ in range(d2 - u2 + 1)])
            out = hadamard(TaggedPoly(h1, d1), TaggedPoly(h2, d2))
            assert has_internal_zeros(out.poly).holds


def _nonneg_decomposable(rng, d):
    half = [rational(rng, 9, 9) for _ in range(d // 2 + 1)]
    a = [Fraction(0)] * (d + 1)
    for i, c in enumerate(half):
        a[i] = c
        a[d - i] = c
    b = [Fraction(0)] * d
    if d >= 1:
        half_b = [rational(rng, 9, 9) for _ in range((d - 1) // 2 + 1)]
        for i, c in enumerate(half_b):
            b[i] = c
            b[d - 1 - i] = c
    h = Poly(a) + Poly.x() * Poly(b)
    return h if not h.is_zero else Poly.one()
