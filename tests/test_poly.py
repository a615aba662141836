import dataclasses
import re
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hadpoly.analysis import gamma_contract
from hadpoly.decomp import SymDecomp, i_decompose, r_decompose
from hadpoly.ehrhart import counterexample_report, low_coefficients, powers
from hadpoly.operators import f_from_h, h_from_f, hadamard, msupp, numerator_at, reflect, w_inverse
from hadpoly.poly import Poly, TaggedPoly, _is_palindrome, _prem, gcd, reverse
from hadpoly.roots import isolate_roots

from helpers import count_real_roots, derivative, evaluate


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
        kept = P(half, 1).coeffs[0]
        assert kept == half and type(kept) is Fraction
        assert P(3).coeffs == (Fraction(3),)

    @pytest.mark.parametrize("bad", [0.1, "1/2", True], ids=["float", "string", "bool"])
    def test_coefficient_neither_int_nor_fraction_rejected(self, bad):
        calls = (
            ("coefficient", lambda: P(1, bad)),
            ("isolating width", lambda: isolate_roots(P(-2, 0, 1), bad)),
            ("interval end", lambda: count_real_roots(P(-2, 0, 1), bad, 2)),
            ("interval end", lambda: count_real_roots(P(-2, 0, 1), 0, bad)),
        )
        for name, call in calls:
            with pytest.raises(TypeError, match="is not an int or a Fraction") as raised:
                call()
            assert str(raised.value) == f"{name} {bad!r} is not an int or a Fraction"

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
        assert f * derivative(f) == P(3, 29, 114, 296, 400, 192)

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
        assert evaluate(a * b, r) == evaluate(a, r) * evaluate(b, r)


class TestDerivative:
    def test_power_rule(self):
        assert derivative(P(1, 3, 10, 8)) == P(3, 20, 24)

    def test_order_exceeds_degree(self):
        assert derivative(P(1, 0, 0, 1), 4) == P()

    def test_magic_basis_product_rule(self):
        # d/dx [x^i (x+1)^(d-i)] = i x^(i-1) (x+1)^(d-i) + (d-i) x^i (x+1)^(d-i-1)
        i, d = 2, 5
        f = Poly.x() ** i * P(1, 1) ** (d - i)
        expected = (
            Poly.x() ** (i - 1) * P(1, 1) ** (d - i) * P(i)
            + Poly.x() ** i * P(1, 1) ** (d - i - 1) * P(d - i)
        )
        assert derivative(f) == expected


class TestEvaluate:
    def test_at_one(self):
        assert evaluate(P(1, 0, 7), 1) == 8

    def test_constant_term(self):
        assert evaluate(P(1, 3, 10, 8), 0) == 1

    def test_known_root(self):
        assert evaluate(P(6, 11, 6, 1), -1) == 0


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

    @given(
        st.lists(coefficients, max_size=4), st.lists(coefficients, max_size=1),
        st.none() | st.lists(coefficients, max_size=4), st.integers(0, 3), st.integers(0, 3),
    )
    @example([], [], None, 0, 0)
    @example([Fraction(1, 2), 3], [], None, 2, 3)
    @example([1, 2], [], [2, 2], 1, 1)
    def test_palindrome_test_is_reversal_equality(self, half, middle, tail, k, extra):
        # h is x^k (half + middle + tail), tail defaulting to half reversed, so
        # roots at 0, palindromes and near misses are all drawn often
        h = Poly.x() ** k * Poly(half + middle + (half[::-1] if tail is None else tail))
        d = (h.degree or 0) + extra
        assert _is_palindrome(h, d) == (reverse(h, d) == h)


class TestReflect:
    def test_linear(self):
        assert reflect(Poly.x(), 1) == P(1, 1)

    def test_magic_basis_swap(self):
        # x^i (x+1)^(d-i) maps to x^(d-i) (x+1)^i
        i, d = 1, 3
        f = Poly.x() ** i * P(1, 1) ** (d - i)
        expected = Poly.x() ** (d - i) * P(1, 1) ** i
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
        assert gcd(p, derivative(p)) == P(2, 1) ** 2

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


# -- a plain Fraction-list reference --------------------------------------------
#
# Each operation below is written on ascending lists of Fractions, with no
# trailing-zero convention until ``_trim``; ``Poly`` must agree on every input.

ZERO = Fraction(0)
coefficient_lists = st.lists(coefficients, max_size=7)


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_add(a, b):
    return [x + y for x, y in zip_longest(a, b, fillvalue=ZERO)]


def _ref_mul(a, b):
    out = [ZERO] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _ref_evaluate(a, x):
    return sum((c * x**i for i, c in enumerate(a)), ZERO)


def _ref_divmod(a, b):
    rem, b = list(_trim(a)), _trim(b)
    quo = [ZERO] * max(len(rem) - len(b) + 1, 0)
    for i in range(len(rem) - len(b), -1, -1):
        q = quo[i] = rem[i + len(b) - 1] / b[-1]
        for j, c in enumerate(b):
            rem[i + j] -= q * c
    return quo, rem


int_lists = st.lists(st.integers(-20, 20), max_size=10)
nonzero_ints = st.integers(-20, 20).filter(bool)


@given(int_lists, int_lists, nonzero_ints)
@example([1, 2, 3, 4], [5], -3)
@example([1, 2, 3, 4], [0, 1], -2)
@example([7, -1], [1, 2, 3], -4)
@example([], [1], 2)
# deg a = deg b + 1, the one-pass step: a negative lc b, len b == 2, a zero a_(n-1)
@example([3, -1, 4, 2, 5], [5, -2, 1], -3)
@example([2, -7, 3], [4], 5)
@example([1, 4, 0, 6], [-2, 3], 2)
@settings(max_examples=150, deadline=None)
def test_prem_is_the_scaled_remainder(a, low, lead):
    """``_prem(a, b)`` is |lc b| ** max(len a - len b + 1, 0) times the remainder."""
    b = low + [lead]
    m = abs(lead) ** max(len(a) - len(b) + 1, 0)
    rem = _ref_divmod([Fraction(c) for c in a], [Fraction(c) for c in b])[1]
    assert tuple(_prem(a, b)) == _trim(m * c for c in rem)


def _is_fraction_tuple(cs):
    return type(cs) is tuple and all(type(c) is Fraction for c in cs)


class TestAgainstFractionReference:
    @given(coefficient_lists, coefficient_lists)
    @settings(max_examples=150, deadline=None)
    def test_ring_operations(self, a, b):
        p, q = Poly(a), Poly(b)
        assert _is_fraction_tuple(p.coeffs) and p.coeffs == _trim(a)
        for i in range(-1, len(a) + 2):
            c = p.coefficient(i)
            assert type(c) is Fraction and c == (a[i] if 0 <= i < len(a) else 0)
        assert (p + q).coeffs == _trim(_ref_add(a, b))
        assert (p - q).coeffs == _trim(_ref_add(a, [-c for c in b]))
        assert (-p).coeffs == _trim(-c for c in a)
        assert (p * q).coeffs == _trim(_ref_mul(a, b))
        if _trim(b):
            quo, rem = divmod(p, q)
            ref_quo, ref_rem = _ref_divmod(a, b)
            assert (quo.coeffs, rem.coeffs) == (_trim(ref_quo), _trim(ref_rem))

    @given(coefficient_lists, coefficients, st.integers(0, 4))
    @settings(max_examples=150, deadline=None)
    def test_unary_operations(self, a, c, k):
        p = Poly(a)
        assert (Poly([c]) * p).coeffs == _trim(x * c for x in a)
        deriv = list(a)
        for _ in range(k):
            deriv = [i * x for i, x in enumerate(deriv)][1:]
        assert derivative(p, k).coeffs == _trim(deriv)
        value = evaluate(p, c)
        assert type(value) is Fraction and value == _ref_evaluate(a, c)
        if _trim(a):
            lead = _trim(a)[-1]
            assert p.monic().coeffs == _trim(x / lead for x in a)
            assert p.coefficient(p.degree) == lead
        assert _is_fraction_tuple(p.monic().coeffs)

    @given(st.lists(st.integers(-20, 20), max_size=7), coefficient_lists, st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_canonical_storage(self, ints, a, k):
        built = [
            Poly(ints),
            Poly([Fraction(c) for c in ints]),
            Poly([Fraction(c * k, k) for c in ints] + [0] * k),
            Poly([k]) * (Poly([Fraction(1, k)]) * Poly(ints)),
            (Poly(ints) + Poly(a)) - Poly(a),
            divmod(Poly(ints) * Poly([Fraction(1, k), 1]), Poly([Fraction(1, k), 1]))[0],
            Poly([Fraction(1, k)]) * divmod(Poly.x() ** k * Poly(ints), Poly([0] * k + [Fraction(1, k)]))[0],
        ]
        for p in built:
            assert p == built[0] and hash(p) == hash(built[0])
            assert p.coeffs == _trim(Fraction(c) for c in ints)
        scaled = Poly([Fraction(7, k)]) * (Poly([Fraction(k, 7)]) * Poly(a))
        assert scaled == Poly(a) and hash(scaled) == hash(Poly(a))


class TestTaggedPoly:
    def test_tag_violation(self):
        with pytest.raises(ValueError):
            TaggedPoly(P(1, 0, 7), 1)

    def test_equality(self):
        assert TaggedPoly(P(1), 3) == TaggedPoly(P(1), 3)
        assert TaggedPoly(P(1), 3) != TaggedPoly(P(1), 4)

    def test_equality_and_hash_are_those_of_the_pair(self):
        same = TaggedPoly(P(Fraction(2, 4), 3), 2), TaggedPoly(P(Fraction(1, 2), Fraction(6, 2)), 2)
        assert same[0] == same[1] and hash(same[0]) == hash(same[1])
        for t in (*same, TaggedPoly(P(), 0), TaggedPoly(P(1, 0, 0, 1), 6)):
            assert hash(t) == hash((t.poly, t.ref_degree))
            assert t != (t.poly, t.ref_degree)
        assert TaggedPoly(P(1, 2), 2) != TaggedPoly(P(1, 2), 3)
        assert TaggedPoly(P(1, 2), 2) != TaggedPoly(P(1, 3), 2)

    @pytest.mark.parametrize(
        "t, text, shown",
        [
            (TaggedPoly(P(1), 3), "TaggedPoly(Poly([Fraction(1, 1)]), ref_degree=3)", "(1, d=3)"),
            (TaggedPoly(P(), 0), "TaggedPoly(Poly([]), ref_degree=0)", "(0, d=0)"),
            (
                TaggedPoly(P(Fraction(-1, 2), 0, 3), 2),
                "TaggedPoly(Poly([Fraction(-1, 2), Fraction(0, 1), Fraction(3, 1)]), ref_degree=2)",
                "(3x^2 - 1/2, d=2)",
            ),
        ],
        ids=["one", "zero", "rational"],
    )
    def test_repr_and_str(self, t, text, shown):
        assert (repr(t), str(t)) == (text, shown)

    @pytest.mark.parametrize(
        "tag, error, message",
        [
            (True, TypeError, "reference degree True is not an int"),
            (2.0, TypeError, "reference degree 2.0 is not an int"),
            (-1, ValueError, "reference degree must be nonnegative"),
            (1, ValueError, "degree overflow: deg h = 2 > d = 1"),
        ],
    )
    def test_keyword_construction_keeps_the_tag_errors(self, tag, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            TaggedPoly(poly=P(1, 0, 7), ref_degree=tag)

    def test_pair_cannot_change_after_its_check(self):
        # once checked, a numerator of degree 5 cannot sit under tag 3, nor True under a tag
        t = TaggedPoly(P(1), 3)
        held = {t}
        for field, value in (("poly", P(*[1] * 6)), ("ref_degree", True), ("ref_degree", 9)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, field, value)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(t, field)
        assert t == TaggedPoly(P(1), 3) and t in held
        assert hadamard(t, TaggedPoly(P(1), 0)) == TaggedPoly(P(1), 3)

    def test_tag_that_is_not_an_int_rejected(self):
        # the type is checked before the sign, so -1.0 is not a negative degree
        for call in (TaggedPoly, reverse, i_decompose, f_from_h):
            for tag in (True, 2.5, Fraction(2), -1.0):
                message = f"reference degree {tag!r} is not an int"
                with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
                    call(P(1, 2), tag)


#: every public function that takes a numerator and its reference degree, as a call on (p, d)
TAGGED_CALLS = {
    "reverse": reverse,
    "reflect": reflect,
    "TaggedPoly": TaggedPoly,
    "numerator_at": numerator_at,
    "f_from_h": f_from_h,
    "h_from_f": h_from_f,
    "w_inverse": w_inverse,
    "msupp": msupp,
    "i_decompose": i_decompose,
    "r_decompose": r_decompose,
    "SymDecomp": lambda p, d: SymDecomp(p, Poly(), d),
    "gamma_contract": lambda g, d: gamma_contract(g, 2 * d),  # g is tagged floor(s/2)
    "powers": lambda h, d: list(powers(1, h, d)),
    "low_coefficients": lambda h, d: list(low_coefficients(1, h, d)),
    "counterexample_report": lambda h, d: counterexample_report(1, h, d),
}


@pytest.mark.parametrize("call", TAGGED_CALLS.values(), ids=TAGGED_CALLS)
class TestTagRule:
    """d >= 0 and deg p <= d, for a zero p too, with one message each."""

    @pytest.mark.parametrize("p", [P(), P(1, 2)], ids=["zero", "nonzero"])
    def test_negative_reference_degree(self, call, p):
        # gamma_contract checks its axis, here -2, before the tag floor(s/2) of g
        what = "axis" if call is TAGGED_CALLS["gamma_contract"] else "reference degree"
        with pytest.raises(ValueError, match=f"^{what} must be nonnegative$"):
            call(p, -1)

    @pytest.mark.parametrize("d", [0, 2])
    def test_degree_overflow(self, call, d):
        with pytest.raises(ValueError, match=rf"^degree overflow: deg \w = {d + 1} > d = {d}$"):
            call(Poly.x() ** (d + 1), d)


class TestFormat:
    def test_descending_powers(self):
        assert str(P(1, 3, 10, 8)) == "8x^3 + 10x^2 + 3x + 1"

    def test_zero(self):
        assert str(P()) == "0"

    def test_rational_and_negative(self):
        assert str(Poly([Fraction(1, 2), -1])) == "-x + 1/2"
