import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hadpoly import poly as poly_module
from hadpoly import roots as roots_module
from hadpoly.poly import Poly
from hadpoly.roots import (
    isolate_roots,
    real_rooted_interlacing,
    real_roots_of_product,
    square_free_part,
    sturm_chain,
    yun_decomposition,
)

from helpers import count_real_roots, euclidean_chain


def P(*coeffs):
    return Poly(coeffs)


def linear_product(*roots):
    """prod (x - r) for the given rational roots."""
    p = Poly.one()
    for r in roots:
        p = p * Poly([-Fraction(r), 1])
    return p


def exact_roots(iso):
    """The rational roots an isolation recognized exactly, with multiplicity."""
    return tuple((iv.lo, iv.multiplicity) for iv in iso if iv.is_exact)


small_roots = st.fractions(min_value=-6, max_value=6, max_denominator=4)

factor = st.lists(st.integers(-4, 4), min_size=2, max_size=3).filter(lambda f: f[-1])


@st.composite
def chain_inputs(draw):
    """(v, w): a primitive integer v of degree 1-10, of either leading sign and
    often with a repeated factor, and w absent or of degree deg v or deg v - 1."""
    factors = draw(st.lists(factor, min_size=1, max_size=4))
    p = P(draw(st.sampled_from([-1, 1])))
    for f in factors + factors[: draw(st.integers(0, 2))]:
        p = p * Poly(f)
    v = [int(c) for c in p.coeffs]
    if len(v) > 11:
        v = draw(st.lists(st.integers(-9, 9), min_size=2, max_size=11).filter(lambda u: u[-1]))
    content = math.gcd(*v)
    v = [c // content for c in v]
    size = draw(st.sampled_from([None, len(v), len(v) - 1]))
    if size is None:
        return v, None
    w = st.lists(st.integers(-9, 9), min_size=size, max_size=size).filter(lambda u: u[-1])
    return v, draw(w)

#: (x^2 - 2)(x - 1/3)(x + 5): the sweep finds both rationals
IRRATIONAL_AND_SWEPT = P(-2, 0, 1) * linear_product(Fraction(1, 3), -5)
#: (x - 1/2)(x - 3/4)(x^2 - 2)(x - 3e6)(x - 1/3): no sweep, one deflation
DEFLATED = linear_product(Fraction(1, 2), Fraction(3, 4), 3 * 10**6, Fraction(1, 3)) * P(-2, 0, 1)


def _horner_calls(monkeypatch, p, width) -> int:
    """The ``_horner`` evaluations of one ``isolate_roots(p, width)``."""
    calls = []

    def counting(v, x):
        calls.append(x)
        return poly_module._horner(v, x)

    with monkeypatch.context() as m:
        m.setattr(roots_module, "_horner", counting)
        isolate_roots(p, width)
    return len(calls)


class TestSturm:
    def test_quadratic_no_real_roots(self):
        assert count_real_roots(P(1, 0, 7)) == 0

    def test_distinct_linear_factors(self):
        p = linear_product(-2, -1, 3)
        assert count_real_roots(p) == 3

    def test_interval_counts(self):
        p = linear_product(-2, -1, 3)
        assert count_real_roots(p, Fraction(-3), Fraction(0)) == 2
        assert count_real_roots(p, Fraction(0), Fraction(4)) == 1
        # (lo, hi] includes the right endpoint
        assert count_real_roots(p, Fraction(-2), Fraction(-1)) == 1
        assert count_real_roots(p, Fraction(-3), Fraction(-2)) == 1

    def test_interval_endpoints_at_a_multiple_root(self):
        p = linear_product(1, 1, 1, -2) * P(1, 0, 1)
        assert count_real_roots(p, Fraction(1), Fraction(3)) == 0
        assert count_real_roots(p, Fraction(0), Fraction(1)) == 1
        assert count_real_roots(p, Fraction(-2), Fraction(1)) == 1
        assert count_real_roots(p, Fraction(-3), Fraction(1)) == 2

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            count_real_roots(P(-1, 0, 1), Fraction(2), Fraction(-2))

    def test_empty_interval_counts_zero(self):
        p = linear_product(1, -1)
        assert count_real_roots(p, Fraction(1), Fraction(1)) == 0
        assert count_real_roots(p, Fraction(0), Fraction(0)) == 0

    def test_chain_of_non_square_free_ends_in_the_gcd(self):
        p = linear_product(1, 1, -2) * P(1, 0, 1)
        chain = sturm_chain(p)
        assert chain[0] == p and chain[-1].monic() == P(-1, 1)
        for q in chain:
            assert all(c.denominator == 1 for c in q.coeffs)

    def test_chain_of_zero_raises(self):
        with pytest.raises(ValueError):
            sturm_chain(P())

    @given(chain_inputs())
    @example(([-1, 0, 1], None))  # a normal chain
    @example(([1, -2, 1], None))  # a double root: the chain stops at v'
    @example(([-2, 1, 2], [3, 1, -1]))  # w of the same degree as v
    @example(([1, 0, 0, 0, 1], [0, 0, 1]))  # a step that lowers the degree by two
    @settings(max_examples=200, deadline=None)
    def test_integer_chain_is_the_euclidean_chain(self, inputs):
        v, w = inputs
        got = roots_module._int_sturm_chain(tuple(v), None if w is None else tuple(w))
        ref = euclidean_chain(v, w)
        assert len(got) == len(ref)
        for e, q in zip(got, ref):
            assert type(e) is tuple and len(e) == len(q) and math.gcd(*e) == 1
            ratio = Fraction(e[-1]) / q[-1]
            assert ratio > 0 and list(e) == [ratio * c for c in q]

    @given(st.lists(small_roots, min_size=1, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_counts_distinct_roots(self, roots):
        p = linear_product(*roots)
        assert count_real_roots(p) == len(set(roots))


class TestSquareFree:
    def test_square_free_part(self):
        p = P(1, 1) ** 2 * P(2, 1)
        assert square_free_part(p) == (P(1, 1) * P(2, 1)).monic()

    def test_yun_multiplicities(self):
        p = P(1, 1) ** 2 * P(2, 1)
        assert yun_decomposition(p) == [(P(2, 1), 1), (P(1, 1), 2)]

    def test_yun_rebuilds_monic_input(self):
        p = P(1, 1) ** 3 * P(3, 1) ** 2 * P(-1, 1)
        acc = Poly.one()
        for q, m in yun_decomposition(p):
            acc = acc * q**m
        assert acc == p.monic()


class TestIsolation:
    def test_repeated_and_simple_rational_roots(self):
        iso = isolate_roots(P(1, 1) ** 2 * P(2, 1))
        assert [(iv.lo, iv.hi, iv.multiplicity) for iv in iso] == [
            (-2, -2, 1),
            (-1, -1, 2),
        ]
        assert exact_roots(iso) == ((Fraction(-2), 1), (Fraction(-1), 2))

    def test_irrational_roots_bracketed(self):
        iso = isolate_roots(P(-2, 0, 1))
        assert len(iso) == 2
        neg, pos = iso
        assert -2 < neg.lo < neg.hi < -1
        assert 1 < pos.lo < pos.hi < 2

    def test_cubic_with_one_real_root(self):
        # 8x^3 + 10x^2 + 3x + 1 has the single real root -1
        iso = isolate_roots(P(1, 3, 10, 8))
        assert [(iv.lo, iv.hi, iv.multiplicity) for iv in iso] == [
            (-1, -1, 1)
        ]

    def test_non_dyadic_rational_roots_exact(self):
        p = linear_product(Fraction(-3, 7), Fraction(-1, 3), 0, 5, 5, 5)
        iso = isolate_roots(p)
        assert exact_roots(iso) == (
            (Fraction(-3, 7), 1),
            (Fraction(-1, 3), 1),
            (Fraction(0), 1),
            (Fraction(5), 3),
        )

    def test_intervals_disjoint_and_sorted(self):
        p = linear_product(-1, Fraction(-9, 8), Fraction(-17, 16), -2) * P(1, 0, 1)
        iso = isolate_roots(p)
        for a, b in zip(iso, iso[1:]):
            assert a.hi < b.lo

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            isolate_roots(P(3))

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="^cannot isolate roots of the zero polynomial$"):
            isolate_roots(P())

    @pytest.mark.parametrize("width", [0, -1])
    def test_nonpositive_width_rejected(self, width):
        with pytest.raises(ValueError):
            isolate_roots(P(-2, 0, 1), max_width=width)

    def test_count_matches_sturm(self):
        p = linear_product(-3, Fraction(-1, 2), 1, 4) * P(1, 1, 1)
        iso = isolate_roots(p)
        assert len(iso) == count_real_roots(p)
        # Sturm count over each reported interval is exactly one
        for iv in iso:
            if iv.is_exact:
                continue
            assert count_real_roots(p, iv.lo, iv.hi) == 1

    def test_width_refined_only_where_needed(self):
        # a simple root 1400 away leaves the double roots +-sqrt(3) at width 1/8
        p = P(-2 * 10**6, 0, 1) * P(-3, 0, 1) ** 2
        iso = isolate_roots(p, Fraction(1, 8))
        assert [iv.multiplicity for iv in iso] == [1, 2, 2, 1]
        assert all(iv.hi - iv.lo == Fraction(1, 8) for iv in iso)

    def test_one_input_reuses_its_yun_factors(self, monkeypatch):
        """The Yun factors of a single input multiply to its square-free part,
        so gcd(p, p') is taken once: four gcds for three multiplicities."""
        calls = []

        def counting_gcd(a, b):
            calls.append((a, b))
            return poly_module._int_gcd(a, b)

        monkeypatch.setattr(roots_module, "_int_gcd", counting_gcd)
        p = P(-2, 0, 1) * P(1, 1) ** 2 * P(-3, 0, 1) ** 3
        iso = isolate_roots(p)
        assert [iv.multiplicity for iv in iso] == [3, 1, 2, 1, 3]
        assert len(calls) == 4

    def test_deflation_by_a_bisection_hit(self, monkeypatch):
        """The constant term 1.8e7 of (x-1/2)(x-3/4)(x^2-2)(x-3e6)(x-1/3) is
        above the sweep cap: bisection hits 1/2 and rebuilds the chain once,
        and refinement hits 3/4 and 3e6 on the deflated vector."""
        chains = []
        true_chain = roots_module._int_sturm_chain

        def counting_chain(v, w=None):
            chains.append(v)
            return true_chain(v, w)

        monkeypatch.setattr(roots_module, "_int_sturm_chain", counting_chain)
        iso = isolate_roots(DEFLATED, Fraction(1, 1024))
        assert [(iv.lo, iv.hi, iv.multiplicity) for iv in iso] == [
            (Fraction(-1449, 1024), Fraction(-181, 128), 1),
            (Fraction(341, 1024), Fraction(171, 512), 1),
            (Fraction(1, 2), Fraction(1, 2), 1),
            (Fraction(3, 4), Fraction(3, 4), 1),
            (Fraction(181, 128), Fraction(1449, 1024), 1),
            (Fraction(3 * 10**6), Fraction(3 * 10**6), 1),
        ]
        assert len(chains) == 2

    @pytest.mark.parametrize(
        "p, width, budget",
        [
            (IRRATIONAL_AND_SWEPT, Fraction(1, 2**40), 129),
            (IRRATIONAL_AND_SWEPT, roots_module.DEFAULT_MAX_WIDTH, 55),
            (DEFLATED, Fraction(1, 2**40), 937),
            (DEFLATED, roots_module.DEFAULT_MAX_WIDTH, 826),
        ],
    )
    def test_evaluation_budget(self, monkeypatch, p, width, budget):
        assert _horner_calls(monkeypatch, p, width) <= budget

    def test_each_halving_costs_one_evaluation(self, monkeypatch):
        """Halving the width once more halves each of the two intervals
        around +-sqrt 2 once, at one evaluation each."""
        p = IRRATIONAL_AND_SWEPT
        calls = [_horner_calls(monkeypatch, p, Fraction(1, 2**k)) for k in (40, 41)]
        assert calls[1] - calls[0] == 2

    def test_roots_are_immutable(self):
        (root, _), = real_roots_of_product([P(-2, 1)])
        with pytest.raises(dataclasses.FrozenInstanceError):
            root.lo = Fraction(0)
        assert isinstance(isolate_roots(P(-2, 1))[0], roots_module.RealRoot)

    @given(st.lists(small_roots, min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_multiplicity_totals(self, roots):
        p = linear_product(*roots)
        iso = isolate_roots(p)
        assert sum(iv.multiplicity for iv in iso) == len(roots)
        assert len(iso) == len(set(roots))


class TestComparison:
    """Roots of several inputs, isolated together, ordered by position."""

    def test_exact_vs_exact(self):
        located = real_roots_of_product([linear_product(2), linear_product(1, 2)])
        assert [(r.lo, r.hi, m) for r, m in located] == [(1, 1, (0, 1)), (2, 2, (1, 1))]

    def test_shared_algebraic_root_detected_equal(self):
        # sqrt(2) is a root of both inputs
        p1 = P(-2, 0, 1)
        p2 = P(-2, 0, 1) * P(5, 1)
        located = real_roots_of_product([p1, p2])
        assert [m for _, m in located] == [(0, 1), (1, 1), (1, 1)]
        root, _ = located[-1]
        assert 1 <= root.lo < root.hi <= 2

    def test_close_roots_separate(self):
        a = Fraction(1, 3)
        b = Fraction(1, 3) + Fraction(1, 2**20)
        located = real_roots_of_product([linear_product(a), linear_product(b)])
        assert [m for _, m in located] == [(1, 0), (0, 1)]
        assert located[0][0].hi < located[1][0].lo

    def test_ascending_order(self):
        p = linear_product(-2, Fraction(-1, 2), 3) * P(-3, 0, 1)
        located = real_roots_of_product([p, P(-5, 0, 1)], Fraction(1, 8))
        assert len(located) == 7
        for (r1, _), (r2, _) in zip(located, located[1:]):
            assert r1.hi < r2.lo

    def test_constant_input_has_no_roots(self):
        assert real_roots_of_product([P(3)]) == []
        located = real_roots_of_product([P(3), P(-1, 1)])
        assert [m for _, m in located] == [(0, 1)]

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError):
            real_roots_of_product([P(-1, 1), P()])

    def test_builds_no_poly(self, monkeypatch):
        """The product, its square-free part and every root stay integer vectors."""
        a = P(-2, 0, 1) * P(1, 1) ** 2
        b = linear_product(Fraction(1, 3), -1) * P(-3, 0, 1)
        stored = []
        store = Poly._store

        def counting(self, v, den):
            stored.append(v)
            store(self, v, den)

        monkeypatch.setattr(Poly, "_store", counting)
        located = real_roots_of_product([a, b], Fraction(1, 1024))
        monkeypatch.undo()
        assert stored == []
        assert [m for _, m in located] == [(0, 1), (1, 0), (2, 1), (0, 1), (1, 0), (0, 1)]


class TestRealRootedInterlacing:
    """One remainder chain of (a, b) and the chain of its last element, gcd(a, b)."""

    def test_index_holds_while_the_gcd_is_not_real_rooted(self):
        # a = (x^2 + 1)(x + 1), b = x^2 + 1: the index of b/a = 1/(x + 1) is
        # 1 = deg a - deg gcd, but the gcd x^2 + 1 has no real root
        a, b = P(1, 1, 1, 1), P(1, 0, 1)
        assert not real_rooted_interlacing(b, a)
        assert not real_rooted_interlacing(b * P(3, 1), a * P(3, 1))
        assert real_rooted_interlacing(P(1, 1), P(2, 3, 1))  # the same index, gcd 1

    def test_equal_inputs_interlace_iff_real_rooted(self):
        assert not real_rooted_interlacing(P(1, 0, 1), P(1, 0, 1))
        assert real_rooted_interlacing(P(-2, 1, 1), P(-2, 1, 1))
        assert real_rooted_interlacing(P(2, -1, -1), P(-2, 1, 1))

    def test_shared_multiple_root(self):
        # a = (x + 1)^2 (x - 1), b = (x + 1)^2: s = 1, -1, -1 and t = -1, -1
        a, b = linear_product(-1, -1, 1), linear_product(-1, -1)
        assert real_rooted_interlacing(b, a)
        assert real_rooted_interlacing(-b, a)
        assert not real_rooted_interlacing(linear_product(-1, 2), a)

    def test_outside_its_domain_it_is_false(self):
        a = linear_product(1, 2, 3)
        assert not real_rooted_interlacing(Poly(), a)
        assert not real_rooted_interlacing(a, Poly())
        assert not real_rooted_interlacing(P(1), P(2))
        assert not real_rooted_interlacing(linear_product(1), a)
        assert not real_rooted_interlacing(a * P(0, 1), a)
