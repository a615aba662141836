from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hadpoly.analysis import (
    has_internal_zeros,
    is_gamma_positive,
    is_log_concave,
    is_real_rooted,
    is_ulc,
    symmetry_certificate,
)
from hadpoly.decomp import (
    decomposition_is_gamma_positive,
    decomposition_is_interlacing,
    decomposition_is_nonnegative,
)
from hadpoly.generators import (
    REJECTION_BUDGET,
    TrialConfig,
    _linear_product,
    gen_contiguous_nonneg,
    gen_gamma_positive,
    gen_gamma_positive_symdec,
    gen_interlacing_symdec,
    gen_logconcave,
    gen_nonneg_symdec,
    gen_real_rooted,
    gen_symmetric,
    gen_ulc,
)
from hadpoly import generators
from hadpoly.poly import Poly, TaggedPoly
from hadpoly.rng import SplitMix64

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)


class TestTrialConfig:
    def test_defaults(self):
        cfg = TrialConfig()
        assert cfg.trials == 200 and cfg.max_degree == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            TrialConfig(trials=0)
        with pytest.raises(ValueError):
            TrialConfig(seed=-1)
        with pytest.raises(ValueError):
            TrialConfig(max_degree=0)


class TestSplitMix:
    def test_deterministic(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]

    def test_derive_is_stable_and_independent(self):
        base = SplitMix64(42)
        child1 = base.derive(3, 7)
        child2 = base.derive(3, 7)
        other = base.derive(3, 8)
        s1 = [child1.next_u64() for _ in range(3)]
        assert s1 == [child2.next_u64() for _ in range(3)]
        assert s1 != [other.next_u64() for _ in range(3)]

    def test_randint_bounds(self):
        rng = SplitMix64(1)
        values = [rng.randint(2, 5) for _ in range(200)]
        assert set(values) <= {2, 3, 4, 5}
        assert set(values) == {2, 3, 4, 5}

    def test_known_answers(self):
        """Values of the SplitMix64 stream, fixed across releases."""
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            16294208416658607535, 7960286522194355700, 487617019471545679,
        ]
        rng = SplitMix64(2**64 - 1)
        assert [rng.next_u64() for _ in range(2)] == [16490336266968443936, 16834447057089888969]
        rng = SplitMix64(7)
        assert [rng.randint(0, 9) for _ in range(10)] == [7, 4, 6, 3, 4, 5, 8, 2, 5, 5]
        rng = SplitMix64(7)
        assert [rng.randint(1, 2) for _ in range(10)] == [2, 1, 1, 2, 1, 2, 1, 1, 2, 2]
        rng = SplitMix64(7)
        assert [rng.randint(-3, 3) for _ in range(10)] == [-1, 0, -3, 0, 2, 3, 2, -3, 3, -3]
        rng = SplitMix64(5)
        assert [rng.chance(1, 2) for _ in range(6)] == [True, True, False, False, False, True]
        child = SplitMix64(42).derive(3, 7)
        assert [child.next_u64() for _ in range(3)] == [
            17466993514916555259, 3984025398654129686, 552108895547505795,
        ]

    def test_rational_bounds(self):
        rng = SplitMix64(2)
        for _ in range(100):
            r = rng.rational(9, 9)
            assert 0 <= r <= 9


class TestHypothesisValidity:
    """Every generator's output satisfies its own hypothesis predicate."""

    def test_real_rooted(self):
        rng = SplitMix64(5)
        for i in range(1000):
            t = gen_real_rooted(rng, i % 9, 9)
            assert is_real_rooted(t.poly).holds
            assert all(c >= 0 for c in t.poly.coeffs)
            assert t.ref_degree == (i % 9)

    def test_ulc(self):
        rng = SplitMix64(7)
        for i in range(300):
            d = i % 8
            t = gen_ulc(rng, d, 9)
            assert is_ulc(t.poly, d).holds

    def test_ulc_reaches_non_real_rooted(self):
        rng = SplitMix64(11)
        hit = False
        for i in range(300):
            t = gen_ulc(rng, 2 + i % 5, 9)
            if not is_real_rooted(t.poly).holds:
                hit = True
                break
        assert hit

    def test_symmetric(self):
        rng = SplitMix64(13)
        for i in range(1000):
            s = i % 8
            defect = i % 3
            t = gen_symmetric(rng, s, defect, 9)
            cert = symmetry_certificate(t.poly, t.ref_degree)
            assert cert is not None
            assert cert.center_numerator == s
            assert cert.defect == defect
            assert is_gamma_positive(t.poly, s).holds

    def test_gamma_positive(self):
        rng = SplitMix64(17)
        for i in range(1000):
            s = i % 9
            t = gen_gamma_positive(rng, s, 9)
            assert t.ref_degree == s
            assert is_gamma_positive(t.poly, s).holds

    def test_interlacing_symdec(self):
        rng = SplitMix64(19)
        for i in range(300):
            d = i % 7
            dec = gen_interlacing_symdec(rng, d, 9)
            assert dec.d == d
            assert decomposition_is_nonnegative(dec).holds
            assert decomposition_is_interlacing(dec).holds

    def test_logconcave(self):
        rng = SplitMix64(23)
        for i in range(1000):
            d = i % 9
            t = gen_logconcave(rng, d, 9)
            assert is_log_concave(t.poly).holds
            assert has_internal_zeros(t.poly).holds
            assert t.poly.degree == d

    def test_contiguous(self):
        rng = SplitMix64(29)
        for i in range(1000):
            d = i % 9
            t = gen_contiguous_nonneg(rng, d, 9)
            assert has_internal_zeros(t.poly).holds
            assert t.poly.degree == d

    def test_nonneg_symdec(self):
        rng = SplitMix64(31)
        for i in range(1000):
            d = i % 8
            dec = gen_nonneg_symdec(rng, d, 9)
            assert decomposition_is_nonnegative(dec).holds
            assert not dec.reconstruct().is_zero

    def test_gamma_symdec(self):
        rng = SplitMix64(37)
        for i in range(1000):
            d = i % 8
            dec = gen_gamma_positive_symdec(rng, d, 9)
            assert decomposition_is_gamma_positive(dec).holds


class TestDeterminism:
    def test_same_seed_same_instances(self):
        a = [gen_real_rooted(SplitMix64(99).derive(i), 5, 9).poly for i in range(10)]
        b = [gen_real_rooted(SplitMix64(99).derive(i), 5, 9).poly for i in range(10)]
        assert a == b

    def test_different_seeds_differ(self):
        a = gen_real_rooted(SplitMix64(1), 6, 9).poly
        b = gen_real_rooted(SplitMix64(2), 6, 9).poly
        assert a != b


class TestLinearProduct:
    """The integer product agrees with the ``Fraction`` product of linear factors."""

    @given(
        st.one_of(st.integers(-9, 9), rationals),
        st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 12)), max_size=9),
    )
    def test_equals_fraction_poly_product(self, scale, shifts):
        expected = Poly([scale])
        for n, q in shifts:
            expected = expected * Poly([Fraction(n, q), 1])
        assert Poly._from_ints(*_linear_product(scale, shifts)) == expected

    def test_denominators_cancel(self):
        # 2 (x + 1/2)(x + 2/6) = 2x^2 + 5/3 x + 1/3, from the unreduced 2 (2x + 1)(6x + 2) / 12
        v, den = _linear_product(2, [(1, 2), (2, 6)])
        assert (v, den) == ([4, 20, 24], 12)
        assert Poly._from_ints(v, den).coeffs == (Fraction(1, 3), Fraction(5, 3), 2)


def fraction_gen_ulc(rng, degree, max_coeff):
    """``gen_ulc`` as it was written on ``Fraction`` draws, kept as the
    reference for the integer version: same stream, same instance."""
    for _ in range(REJECTION_BUDGET):
        shifts = [rng.rational(max_coeff, max_coeff) for _ in range(degree)]
        h = Poly([1])
        for r in shifts:
            h = h * Poly([r, 1])
        v, den = h._num, h._den
        for j in range(1, len(v) - 1):
            if v[j] and rng.chance(1, 2):
                a = rng.randint(1, max_coeff)
                b = rng.randint(1, max_coeff)
                r = Fraction(min(a, b), max(a, b))
                v = [c * (r.numerator if i == j else r.denominator) for i, c in enumerate(v)]
                den *= r.denominator
        candidate = Poly._from_ints(v, den)
        if is_ulc(candidate, degree).holds:
            return TaggedPoly(candidate, degree)
    raise AssertionError("reference exhausted its budget")


class TestGenUlcStream:
    def test_matches_the_fraction_reference(self):
        """Same instance and same stream position on 360 (seed, degree, max_coeff)
        triples, degrees 0 to 8 and max_coeff 1, 2, 5 and 9."""
        triples = [(seed, d, m) for seed in range(10) for d in range(9) for m in (1, 2, 5, 9)]
        for seed, d, m in triples:
            new, ref = SplitMix64(seed).derive(d, m), SplitMix64(seed).derive(d, m)
            assert gen_ulc(new, d, m) == fraction_gen_ulc(ref, d, m), (seed, d, m)
            assert new.next_u64() == ref.next_u64(), (seed, d, m)

    def test_checks_each_attempt_once(self, monkeypatch):
        """One ``is_ulc`` call per rejection attempt, which keeps the bench's
        count of generator attempts a count of candidates."""
        calls = []

        def counting_is_ulc(h, m):
            report = is_ulc(h, m)
            calls.append((h, report.holds))
            return report

        monkeypatch.setattr(generators, "is_ulc", counting_is_ulc)
        out = gen_ulc(SplitMix64(0), 8, 9)
        candidates = [h for h, _ in calls]
        assert len(calls) > 1
        assert [holds for _, holds in calls] == [False] * (len(calls) - 1) + [True]
        assert candidates[-1] == out.poly
        assert len(set(candidates)) == len(candidates)
