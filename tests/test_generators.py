import inspect
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hadpoly.analysis import (
    gamma_contract,
    has_internal_zeros,
    is_gamma_positive,
    is_log_concave,
    is_real_rooted,
    is_ulc,
    symmetry_certificate,
)
from hadpoly.decomp import (
    SymDecomp,
    decomposition_is_gamma_positive,
    decomposition_is_interlacing,
    decomposition_is_nonnegative,
)
from hadpoly.generators import (
    TrialConfig,
    _descending_ratio_vector,
    _linear_product,
    gen_contiguous_nonneg,
    gen_gamma_positive_symdec,
    gen_interlacing_symdec,
    gen_logconcave,
    gen_nonneg_symdec,
    gen_real_rooted,
    gen_symmetric,
    gen_ulc,
)
from hadpoly import harness
from hadpoly import rng as rng_module
from hadpoly.poly import Poly, TaggedPoly
from hadpoly.rng import SplitMix64

from helpers import positive_rational, rational


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

    @pytest.mark.parametrize(
        "field, value",
        [("seed", True), ("trials", True), ("max_degree", 2.5), ("max_coefficient", 2.5), ("seed", 1.5)],
    )
    def test_rejects_a_non_int(self, field, value):
        with pytest.raises(TypeError, match=f"{field} must be an int"):
            TrialConfig(**{field: value})


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
            r = rational(rng, 9, 9)
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
            t = gen_symmetric(rng, s, 0, 9)
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
        st.integers(-30, 30),
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


def fraction_log_concave_window(rng, degree, max_coeff):
    """The window draw of ``gen_logconcave`` and ``gen_ulc`` on ``Fraction``
    values: zero below u, then a scale and its products with the drawn
    ratios, largest ratio first."""
    u = rng.randint(0, degree)
    b = [positive_rational(rng, max_coeff, max_coeff)]
    ratios = [positive_rational(rng, max_coeff, max_coeff) for _ in range(degree - u)]
    for r in sorted(ratios, reverse=True):
        b.append(b[-1] * r)
    return [Fraction(0)] * u + b


def fraction_gen_logconcave(rng, degree, max_coeff):
    return TaggedPoly(Poly(fraction_log_concave_window(rng, degree, max_coeff)), degree)


def fraction_gen_ulc(rng, degree, max_coeff):
    b = fraction_log_concave_window(rng, degree, max_coeff)
    return TaggedPoly(Poly([comb(degree, j) * c for j, c in enumerate(b)]), degree)


class TestGenUlcStream:
    def test_matches_the_fraction_reference(self):
        """``gen_ulc`` and ``gen_logconcave``: same instance and same stream
        position on 2600 (seed, degree, max_coeff) triples, degrees 0 to 12
        and max_coeff 1, 2, 3 and 9."""
        triples = [(seed, d, m) for seed in range(50) for d in range(13) for m in (1, 2, 3, 9)]
        pairs = ((gen_ulc, fraction_gen_ulc), (gen_logconcave, fraction_gen_logconcave))
        for new_gen, ref_gen in pairs:
            for seed, d, m in triples:
                new, ref = SplitMix64(seed).derive(d, m), SplitMix64(seed).derive(d, m)
                assert new_gen(new, d, m) == ref_gen(ref, d, m), (new_gen.__name__, seed, d, m)
                assert new.next_u64() == ref.next_u64(), (new_gen.__name__, seed, d, m)


class TestDescendingRatioBoundary:
    """Tied ratios are the equality cases of Newton's inequality, where
    ``<``/``<=`` slips in a checker would show."""

    @settings(max_examples=300)
    @example((1, 1), [(1, 1)] * 6)  # (1 + x)^6: equality at every index
    @example((2, 3), [(1, 2), (2, 4), (3, 1), (6, 2), (3, 6)])
    @given(
        st.tuples(st.integers(1, 9), st.integers(1, 9)),
        st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=12),
    )
    def test_newton_equality_exactly_at_ties(self, scale, ratios):
        v, den = _descending_ratio_vector(scale, ratios)
        m = len(ratios)
        a = [comb(m, j) * c for j, c in enumerate(v)]
        assert is_log_concave(Poly._from_ints(v, den)).holds
        assert is_ulc(Poly(a), m).holds
        r = sorted((Fraction(n, q) for n, q in ratios), reverse=True)
        ties = [r[j - 1] == r[j] for j in range(1, m)]
        equal = [
            a[j] ** 2 * j * (m - j) == a[j - 1] * a[j + 1] * (j + 1) * (m - j + 1)
            for j in range(1, m)
        ]
        assert equal == ties


MASK, GOLDEN = 2**64 - 1, 0x9E3779B97F4A7C15


class ScalarSplitMix64:
    """``SplitMix64`` as it was written with one mixer pass per output, kept
    as the reference for the block stream: same values, same counter."""

    def __init__(self, seed):
        self._state = seed & MASK

    def randint(self, lo, hi):
        if hi < lo:
            raise ValueError("empty range")
        z = self._state = (self._state + GOLDEN) & MASK
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK
        return lo + (z ^ (z >> 31)) % (hi - lo + 1)

    def next_u64(self):
        return self.randint(0, MASK)

    def chance(self, num, den):
        return self.randint(1, den) <= num

    def derive(self, *keys):
        seed = self._state
        for key in keys:
            z = (seed ^ (key & MASK)) + GOLDEN & MASK
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK
            z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK
            seed = z ^ (z >> 31)
        return ScalarSplitMix64(seed)


stream_ops = st.one_of(
    st.tuples(
        st.just("randint"),
        st.integers(-(2**64), 2**64),
        st.one_of(st.sampled_from([1, 2, 10]), st.integers(1, 2**64)),
    ),
    st.tuples(st.just("chance"), st.integers(0, 9), st.integers(1, 9)),
    st.tuples(st.just("next_u64")),
    st.tuples(st.just("derive"), st.lists(st.integers(0, 2**64), max_size=3)),
)


def _step(rng, op):
    """Apply one draw to ``rng``; ``derive`` yields the child's first outputs."""
    if op[0] == "randint":
        return rng.randint(op[1], op[1] + op[2] - 1)
    if op[0] == "chance":
        return rng.chance(op[1], op[2])
    if op[0] == "next_u64":
        return rng.next_u64()
    child = rng.derive(*op[1])
    return [child.next_u64() for _ in range(3)], child._state


class TestBlockStream:
    """The block stream equals the one-output-per-call reference."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.lists(stream_ops, min_size=100, max_size=200))
    def test_equals_the_scalar_stream(self, seed, ops):
        new, ref = SplitMix64(seed), ScalarSplitMix64(seed)
        for op in ops:
            assert _step(new, op) == _step(ref, op), op
            assert new._state == ref._state, op

    def test_derive_inside_a_block(self):
        new, ref = SplitMix64(9), ScalarSplitMix64(9)
        for i in range(100):
            assert new.randint(0, 9) == ref.randint(0, 9)
            if i % 7 == 3:
                assert _step(new, ("derive", [i, 5])) == _step(ref, ("derive", [i, 5]))
        assert new._state == ref._state

    def test_lanes_are_read_little_endian(self):
        """The packed block is written and read in one fixed byte order, so
        the stream does not depend on the host's."""
        assert rng_module._LAYOUT.format == "<" + "Q8x" * rng_module._LANES
        assert '"little"' in inspect.getsource(rng_module._mix_block)

    def test_suites_end_each_trial_at_the_reference_position(self, monkeypatch):
        """Nine suites at (seed 1, 20 trials): same reports, and each trial's
        stream ends at the same counter under both generators."""

        def sweep(cls):
            children = []

            class Recording:
                def __init__(self, seed):
                    self.root = cls(seed)

                def derive(self, *keys):
                    children.append(self.root.derive(*keys))
                    return children[-1]

            monkeypatch.setattr(harness, "SplitMix64", Recording)
            config = TrialConfig(seed=1, trials=20)
            reports = [run(config).render() for run in harness.SUITES.values()]
            return reports, [child._state for child in children]

        new, ref = sweep(SplitMix64), sweep(ScalarSplitMix64)
        assert len(new[1]) == 9 * 20
        assert new == ref


# -- the generators as they were written on Fraction draws -------------------------


def fraction_gen_symmetric(rng, s, defect, max_coeff):
    gamma = [rational(rng, max_coeff, max_coeff) for _ in range(s // 2 + 1)]
    terms = gamma_contract(Poly(gamma), s)
    if terms.is_zero:
        terms = gamma_contract(Poly([positive_rational(rng, max_coeff, max_coeff)]), s)
    return TaggedPoly(terms, s + defect)


def fraction_random_palindromic(rng, d, max_coeff):
    half = [rational(rng, max_coeff, max_coeff) for _ in range(d // 2 + 1)]
    coeffs = [Fraction(0)] * (d + 1)
    for i, c in enumerate(half):
        coeffs[i] = c
        coeffs[d - i] = c
    return Poly(coeffs)


def fraction_gen_nonneg_symdec(rng, d, max_coeff):
    a = fraction_random_palindromic(rng, d, max_coeff)
    b = fraction_random_palindromic(rng, d - 1, max_coeff) if d >= 1 else Poly()
    if a.is_zero and b.is_zero:
        a = Poly([1] * (d + 1))
    return SymDecomp(a, b, d)


def fraction_gen_contiguous_nonneg(rng, degree, max_coeff):
    u = rng.randint(0, degree)
    coeffs = [Fraction(0)] * u + [
        positive_rational(rng, max_coeff, max_coeff) for _ in range(degree - u + 1)
    ]
    return TaggedPoly(Poly(coeffs), degree)


def fraction_product(scale, roots):
    p = Poly([scale])
    for r in roots:
        p = p * Poly([-r, 1])
    return p


def fraction_gen_interlacing_symdec(rng, d, max_coeff):
    scale_a = positive_rational(rng, max_coeff, max_coeff)
    if d == 0:
        return SymDecomp(Poly([scale_a]), Poly(), 0)
    pairs = rng.randint(0, d // 2)
    roots = []
    for _ in range(pairs):
        x, y = rng.randint(1, max_coeff), rng.randint(1, max_coeff)
        r = Fraction(min(x, y), max(x, y))
        roots.extend([-r, Fraction(-1) / r])
    roots.extend([Fraction(-1)] * (d - 2 * pairs))
    roots.sort(reverse=True)
    a = fraction_product(scale_a, roots)
    if rng.chance(1, 8):
        b = Poly()
    else:
        m = d - 1
        t = [Fraction(0)] * m
        for i in range(m // 2):
            lo, hi = roots[i + 1], roots[i]
            pick = lo + Fraction(rng.randint(0, 8), 8) * (hi - lo)
            t[i] = pick
            t[m - 1 - i] = Fraction(1) / pick
        if m % 2 == 1:
            t[m // 2] = Fraction(-1)
        b = fraction_product(positive_rational(rng, max_coeff, max_coeff), t)
    return SymDecomp(a, b, d)


GRID = [(seed, d, m) for seed in range(10) for d in range(9) for m in (1, 2, 5, 9)]


class TestIntegerDrawsMatchFractionDraws:
    """Same instance and same stream position as the ``Fraction`` versions on
    360 (seed, degree, max_coeff) triples."""

    @pytest.mark.parametrize(
        "new, ref",
        [
            (lambda rng, d, m: gen_symmetric(rng, d, d % 3, m),
             lambda rng, d, m: fraction_gen_symmetric(rng, d, d % 3, m)),
            (gen_nonneg_symdec, fraction_gen_nonneg_symdec),
            (gen_contiguous_nonneg, fraction_gen_contiguous_nonneg),
            (gen_interlacing_symdec, fraction_gen_interlacing_symdec),
        ],
        ids=["symmetric", "nonneg_symdec", "contiguous_nonneg", "interlacing_symdec"],
    )
    def test_matches_the_fraction_reference(self, new, ref):
        for seed, d, m in GRID:
            rng_new, rng_ref = SplitMix64(seed).derive(d, m), SplitMix64(seed).derive(d, m)
            assert new(rng_new, d, m) == ref(rng_ref, d, m), (seed, d, m)
            assert rng_new.next_u64() == rng_ref.next_u64(), (seed, d, m)

    @settings(max_examples=60, deadline=None)
    @example(10**6, [(10**6, 1)] * 20 + [(-(10**6), 10**6)] * 20)
    @example(-1, [(-(10**6), 1), (10**6, 10**6), (0, 7)] * 13)
    @given(
        st.integers(-(10**6), 10**6),
        st.lists(st.tuples(st.integers(-(10**6), 10**6), st.integers(1, 10**6)), max_size=40),
    )
    def test_linear_product_at_large_magnitudes(self, scale, shifts):
        v, den = _linear_product(scale, shifts)
        schoolbook = [scale]
        for n, q in shifts:
            schoolbook = [n * a + q * b for a, b in zip(schoolbook + [0], [0] + schoolbook)]
        assert v == schoolbook
        assert Poly._from_ints(v, den) == fraction_product(scale, [Fraction(-n, q) for n, q in shifts])
