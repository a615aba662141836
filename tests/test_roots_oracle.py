"""The integer root kernel against sympy as an independent oracle.

Inputs are products of repeated small rational factors, so multiple roots,
rational roots and complex pairs all occur.  sympy is used only here, never
by the package.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hadpoly.analysis import _root_order, interlaces, is_real_rooted, newton_violation
from hadpoly.poly import Poly, gcd
from hadpoly.rng import SplitMix64
from hadpoly.roots import (
    isolate_roots,
    real_rooted_interlacing,
    real_roots_of_product,
    square_free_part,
    yun_decomposition,
)

from helpers import count_real_roots, derivative, evaluate

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")

small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
#: x - r, or x^2 + b x + c (real-rooted or not), each with a multiplicity
factor = st.tuples(
    st.one_of(
        small.map(lambda r: (-r, Fraction(1))),
        st.tuples(small, small).map(lambda bc: (bc[1], bc[0], Fraction(1))),
    ),
    st.integers(min_value=1, max_value=3),
)
products = st.tuples(
    st.lists(factor, min_size=1, max_size=4),
    small.filter(lambda c: c != 0),
).map(lambda fs: _product(*fs))


def _product(factors, scale):
    p = Poly([scale])
    for coeffs, mult in factors:
        p = p * Poly(coeffs) ** mult
    return p


def to_sympy(p: Poly):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs, X, domain="QQ")


def from_sympy(q) -> Poly:
    return Poly([Fraction(int(c.p), int(c.q)) for c in reversed(q.all_coeffs())])


@given(products, small, small)
@settings(max_examples=150, deadline=None)
def test_real_root_counts_match_sympy(p, a, b):
    sp = to_sympy(p)
    assert count_real_roots(p) == sp.count_roots()
    lo, hi = min(a, b), max(a, b)
    # sympy counts on [lo, hi], the Sturm count on (lo, hi]
    at_lo = 1 if evaluate(p, lo) == 0 else 0
    expected = sp.count_roots(lo, hi) - at_lo if lo < hi else 0
    assert count_real_roots(p, lo, hi) == expected
    assert count_real_roots(p) == len(isolate_roots(p))


def _sturm_zeros(p: Poly) -> list[Fraction]:
    """The rational roots of p, of p' and of each element of sympy's Sturm
    sequence of the square-free part of p."""
    sp = to_sympy(p)
    zeros = set()
    for q in [sp, sp.diff(X)] + sympy.sturm(sp.sqf_part()):
        zeros.update(Fraction(int(r.p), int(r.q)) for r in q.ground_roots())
    return sorted(zeros)


@st.composite
def sturm_zero_ends(draw):
    """(p, lo, hi) with each end None, a small rational, or a rational root of
    p or of a later element of its Sturm sequence, where p need not vanish."""
    p = draw(products)
    ends = st.one_of(st.none(), small, st.sampled_from(_sturm_zeros(p) or [Fraction(0)]))
    lo, hi = draw(ends), draw(ends)
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    return p, lo, hi


@given(sturm_zero_ends())
@example((Poly([-1, 0, 1]), Fraction(-2), Fraction(0)))
@example((Poly([-1, 0, 1]), Fraction(0), Fraction(1)))
@example((Poly([-1, 0, 1]) ** 2, Fraction(-1), None))
@settings(max_examples=150, deadline=None)
def test_counts_with_an_end_on_a_chain_zero_match_sympy(case):
    """Ends where an element of the chain vanishes: at a root of p, simple or
    not, and at a rational root of p' or a later element where p does not
    vanish.  sympy counts on [lo, hi], the Sturm count on (lo, hi]."""
    p, lo, hi = case
    at_lo = 1 if lo is not None and evaluate(p, lo) == 0 else 0
    expected = 0 if lo is not None and lo == hi else to_sympy(p).count_roots(lo, hi) - at_lo
    assert count_real_roots(p, lo, hi) == expected


@given(products)
@settings(max_examples=150, deadline=None)
def test_square_free_factorization_matches_sympy(p):
    _, sqf = to_sympy(p).sqf_list()
    expected = {m: from_sympy(q) for q, m in sqf if q.degree() > 0}
    assert dict((m, q) for q, m in yun_decomposition(p)) == expected
    part = Poly.one()
    for q in expected.values():
        part = part * q
    assert square_free_part(p) == part


@given(products, products)
@settings(max_examples=150, deadline=None)
def test_gcd_matches_sympy(p, q):
    assert gcd(p, q) == from_sympy(sympy.gcd(to_sympy(p), to_sympy(q)).monic())


#: integer polynomials of degree 2 to 8
integer_polys = st.lists(st.integers(-9, 9), min_size=3, max_size=9).map(Poly).filter(
    lambda p: not p.is_zero and p.degree >= 2
)


@given(st.one_of(integer_polys, products))
@settings(max_examples=150, deadline=None)
def test_newton_violation_certifies_a_missing_real_root(p):
    assume(newton_violation(p) is not None)
    _, sqf = to_sympy(p).sqf_list()
    real_with_multiplicity = sum(m * q.count_roots() for q, m in sqf)
    assert real_with_multiplicity < p.degree


#: (x - c)^2 + s/k^2 with 16 <= k <= 64: for s = 1 a complex pair within 1/16
#: of the real axis, for s = -2 two irrational real roots within 1/8 of each other
near_axis = st.tuples(small, st.integers(min_value=16, max_value=64), st.sampled_from([1, -2])).map(
    lambda cks: (cks[0] ** 2 + Fraction(cks[2], cks[1] ** 2), -2 * cks[0], Fraction(1))
)
near_axis_products = st.tuples(
    st.lists(
        st.tuples(st.one_of(near_axis, small.map(lambda r: (-r, Fraction(1)))), st.integers(1, 3)),
        min_size=1,
        max_size=4,
    ),
    small.filter(lambda c: c != 0),
).map(lambda fs: _product(*fs))


@given(near_axis_products, st.sampled_from([Fraction(1, 2), Fraction(1, 8), Fraction(1, 1024)]))
@settings(max_examples=150, deadline=None)
def test_isolation_near_complex_pairs_matches_sympy(p, max_width):
    """Isolation on input that is not real-rooted: each open interval holds one
    real root, each exact entry is a root, multiplicities are sympy's."""
    assume(p.degree > 0)
    _, sqf = to_sympy(p).sqf_list()
    for iv in isolate_roots(p, max_width):
        assert iv.hi - iv.lo <= max_width
        if iv.is_exact:
            assert evaluate(p, iv.lo) == 0
            holds = [m for q, m in sqf if q.eval(iv.lo) == 0]
        else:
            assert evaluate(p, iv.lo) != 0 and evaluate(p, iv.hi) != 0
            assert to_sympy(p).count_roots(iv.lo, iv.hi) == 1
            holds = [m for q, m in sqf if q.count_roots(iv.lo, iv.hi) == 1]
        assert holds == [iv.multiplicity]
    assert len(isolate_roots(p, max_width)) == to_sympy(p).count_roots()


def _multiplicity(sqf, root) -> int:
    """The multiplicity of the sympy square-free factor with a root at or in ``root``, or 0."""
    for q, m in sqf:
        if q.eval(root.lo) == 0 if root.is_exact else q.count_roots(root.lo, root.hi) == 1:
            return m
    return 0


@given(near_axis_products, products)
@settings(max_examples=150, deadline=None)
def test_product_isolation_matches_sympy(p, q):
    """One isolation of p q: sympy's count of distinct real roots, strictly
    separated entries, one root of p q in each open interval and none at its
    ends, and each input's multiplicity from its own ``sqf_list``."""
    located = real_roots_of_product([p, q])
    product = to_sympy(p) * to_sympy(q)
    assert len(located) == product.count_roots()
    for (r1, _), (r2, _) in zip(located, located[1:]):
        assert r1.hi < r2.lo
    sqfs = [to_sympy(f).sqf_list()[1] for f in (p, q)]
    for root, multiplicities in located:
        if root.is_exact:
            assert product.eval(root.lo) == 0
        else:
            assert product.eval(root.lo) != 0 and product.eval(root.hi) != 0
            assert product.count_roots(root.lo, root.hi) == 1
        assert multiplicities == tuple(_multiplicity(sqf, root) for sqf in sqfs)


#: real-rooted factors: x - r for a few rationals r, then x^2 - 2, x^2 - x - 1,
#: 3x^2 - 1 and x^3 - 3x + 1, whose roots are irrational
WITNESS_POOL = [Poly([-r, 1]) for r in (-2, -1, Fraction(-1, 2), 0, Fraction(1, 3), 1, 2)] + [
    Poly([-2, 0, 1]),
    Poly([-1, -1, 1]),
    Poly([-1, 0, 3]),
    Poly([1, -3, 0, 1]),
]


def _pool_product(rng: SplitMix64, factors: list[Poly]) -> Poly:
    p = Poly([rng.randint(1, 3) * (1 if rng.chance(1, 2) else -1)])
    for f in factors:
        p = p * f
    return p


def _pool_factor(rng: SplitMix64) -> Poly:
    return WITNESS_POOL[rng.randint(0, len(WITNESS_POOL) - 1)]


def _witness_pair(rng: SplitMix64) -> tuple[Poly, Poly]:
    """(b, a): a is a product of pool factors, some repeated; b is a', or a
    with one factor dropped and perhaps another drawn in its place."""
    factors = [_pool_factor(rng) for _ in range(rng.randint(1, 4))]
    factors += factors[: rng.randint(0, 1)]
    a = _pool_product(rng, factors)
    if rng.chance(1, 3):
        return derivative(a), a
    del factors[rng.randint(0, len(factors) - 1)]
    if rng.chance(2, 3):
        factors.append(_pool_factor(rng))
    return _pool_product(rng, factors), a


def _holds_root(text: str, r) -> bool:
    """Does the witness entry ``text`` (a rational, or "(lo, hi)") hold the sympy root ``r``?"""
    if not text.startswith("("):
        return r == sympy.Rational(text)
    lo, hi = (sympy.Rational(e) for e in text[1:-1].split(", "))
    return bool(lo < r) and bool(r < hi)


def test_interlacing_witness_names_roots_in_the_stated_order():
    """On seeded real-rooted pairs that fail ``interlaces`` on root order,
    sympy's roots confirm the witness: ``root_of_a`` holds s_j and
    ``root_of_b`` holds t_i (both descending, with multiplicity), the pair is
    out of order as ``detail`` states, and every earlier condition holds."""
    rng = SplitMix64(12)
    checked = 0
    for _ in range(200):
        b, a = _witness_pair(rng)
        report = interlaces(b, a)
        if report.holds or "index" not in report.witness:
            continue
        checked += 1
        s = sympy.real_roots(to_sympy(a))[::-1]
        t = sympy.real_roots(to_sympy(b))[::-1]
        i = report.witness["index"]
        for k in range(1, i):
            assert bool(t[k - 1] <= s[k - 1]) and bool(s[k] <= t[k - 1])
        if report.detail == f"t_{i} > s_{i}":
            root_of_a, root_of_b = s[i - 1], t[i - 1]
            assert bool(root_of_b > root_of_a)
        else:
            assert report.detail == f"s_{i + 1} > t_{i}"
            assert bool(t[i - 1] <= s[i - 1])
            root_of_a, root_of_b = s[i], t[i - 1]
            assert bool(root_of_a > root_of_b)
        assert _holds_root(report.witness["root_of_a"], root_of_a)
        assert _holds_root(report.witness["root_of_b"], root_of_b)
    assert checked >= 30


#: two complex pairs, x^2 + 1 and x^2 + x + 1
COMPLEX_PAIRS = [Poly([1, 0, 1]), Poly([1, 1, 1])]


@st.composite
def interlacing_candidates(draw):
    """(b, a) with deg a >= 1 and deg b in {deg a - 1, deg a}: products of pool
    factors with shared and repeated factors, a' and a with one factor
    swapped, either leading sign, and near misses with one coefficient of b
    nudged by 1/2^k."""
    pool = st.sampled_from(WITNESS_POOL + COMPLEX_PAIRS)
    # a complex pair in one of every two common factors
    shared = draw(st.lists(st.one_of(pool, st.sampled_from(COMPLEX_PAIRS)), max_size=2))
    own = draw(st.lists(pool, min_size=1, max_size=3))
    a = _product([(f.coeffs, 1) for f in shared + own], draw(st.sampled_from([1, -2, 3])))
    kind = draw(st.sampled_from(["derivative", "swap", "drop"]))
    if kind == "derivative":
        b = derivative(a)
    else:
        others = own[1:] + ([draw(pool)] if kind == "swap" else [])
        b = _product([(f.coeffs, 1) for f in shared + others], draw(st.sampled_from([1, -1, 2])))
    if draw(st.booleans()):
        j = draw(st.integers(0, max(b.degree, 0)))
        b = b + Poly([0] * j + [Fraction(draw(st.sampled_from([1, -1])), 2 ** draw(st.integers(2, 8)))])
    assume(not b.is_zero and b.degree in (a.degree - 1, a.degree))
    return b, a


def sympy_interlaces(b: Poly, a: Poly) -> bool:
    """Both real-rooted and t_i <= s_i, s_(i+1) <= t_i on sympy's descending roots."""
    s = sympy.real_roots(to_sympy(a))[::-1]
    t = sympy.real_roots(to_sympy(b))[::-1]
    if len(s) != a.degree or len(t) != b.degree:
        return False
    return all(
        bool(t[i] <= s[i]) and (i + 1 == len(s) or bool(s[i + 1] <= t[i])) for i in range(len(t))
    )


@given(interlacing_candidates())
@settings(max_examples=300, deadline=None)
def test_one_chain_interlacing_matches_root_order_and_sympy(pair):
    """The one-chain decision against the three-chain route it replaced
    (real-rootedness of each input, then the order of the isolated roots)
    and against sympy's exact real roots."""
    b, a = pair
    decided = real_rooted_interlacing(b, a)
    rooted = is_real_rooted(a).holds and is_real_rooted(b).holds
    assert decided == (rooted and _root_order(b, a).holds)
    assert decided == sympy_interlaces(b, a)
