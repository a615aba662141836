"""Exact decision procedures for coefficient and root properties.

Every check returns a ``PropertyReport`` whose ``witness`` explains a failure
in machine-readable form (an index, an index pair, or a root bound), or
raises ``ValueError`` when a precondition is violated.  No floating point is
used anywhere.  Real-rootedness is one integer Sturm chain of the polynomial
itself, with no square-free part.  Interlacing is one integer remainder
chain of the pair (a Cauchy index) and the chain of its gcd; only a failure
checks each input's real-rootedness and isolates the roots, once for the
pair, to build its witness.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

from .poly import Poly, _check_int, _check_tag, _is_palindrome
from .roots import (
    distinct_root_counts,
    real_rooted_interlacing,
    real_roots_of_product,
)


@dataclass(frozen=True)
class PropertyReport:
    """Verdict of a property check plus a witness for failures."""

    holds: bool
    witness: dict | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.holds

    @staticmethod
    def passed(detail: str = "") -> "PropertyReport":
        return PropertyReport(True, None, detail) if detail else _PASSED

    @staticmethod
    def failed(witness: dict, detail: str = "") -> "PropertyReport":
        return PropertyReport(False, witness, detail)


_PASSED = PropertyReport(True)  # shared by every detail-less pass; safe while frozen


def is_nonnegative(p: Poly) -> PropertyReport:
    """Every coefficient is nonnegative; the witness names the first negative one."""
    for i, c in enumerate(p._num):
        if c < 0:
            c = _printed(p.coefficient(i))
            return PropertyReport.failed(
                {"index": i, "value": c}, f"coefficient {i} is {c}"
            )
    return PropertyReport.passed()


def _printed(c: object) -> str:
    """``str(c)``, or a fixed marker past the interpreter's int-to-str digit limit."""
    try:
        return str(c)
    except ValueError:
        return "(too many digits to print)"


def _require_nonnegative(h: Poly) -> tuple[int, ...]:
    """The numerators of ``h``, once no coefficient is negative."""
    report = is_nonnegative(h)
    if not report.holds:
        w = report.witness
        raise ValueError(f"negative coefficient {w['value']} at index {w['index']}")
    return h._num


def has_internal_zeros(h: Poly) -> PropertyReport:
    """Verdict holds when the support of ``h`` is a contiguous block of indices.

    A failure witness is a triple i < j < k with h_i, h_k nonzero but h_j = 0.
    Requires nonnegative coefficients.
    """
    v = _require_nonnegative(h)
    lo, hi = next((i for i, c in enumerate(v) if c), 0), len(v) - 1
    if hi <= lo:
        return PropertyReport.passed("support has at most one element")
    for j in range(lo + 1, hi):
        if not v[j]:
            return PropertyReport.failed(
                {"i": lo, "j": j, "k": hi},
                f"coefficient {j} vanishes between nonzero coefficients {lo} and {hi}",
            )
    return PropertyReport.passed("support is contiguous")


def is_log_concave(h: Poly) -> PropertyReport:
    """a_j^2 >= a_(j-1) a_(j+1) for every interior index j (nonnegative input).

    A failure's text prints both sides in lowest terms, or names only the
    index when a side has more digits than ``str`` of an ``int`` allows.
    """
    v = _require_nonnegative(h)
    j = _log_concave_index(v)
    if j is None:
        return PropertyReport.passed()
    den = h._den**2
    try:
        square, product = _over(v[j] * v[j], den), _over(v[j - 1] * v[j + 1], den)
        detail = f"a_{j}^2 = {square} < a_{j - 1} a_{j + 1} = {product}"
    except ValueError:  # past the interpreter's int-to-str digit limit
        detail = f"a_{j}^2 < a_{j - 1} a_{j + 1} (too many digits to print the values)"
    return PropertyReport.failed({"index": j}, detail)


def _over(n: int, den: int) -> str:
    """n/den in lowest terms, as ``str(Fraction(n, den))`` prints it, by one gcd."""
    g = math.gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def is_unimodal(h: Poly) -> PropertyReport:
    """Coefficients rise then fall; witness is the first descent-then-ascent pair."""
    v = _require_nonnegative(h)
    descent = None
    for i in range(len(v) - 1):
        if descent is None and v[i] > v[i + 1]:
            descent = i
        elif descent is not None and v[i] < v[i + 1]:
            return PropertyReport.failed(
                {"descent": descent, "ascent": i},
                f"coefficients fall at index {descent} and rise again at index {i}",
            )
    return PropertyReport.passed()


def _log_concave_index(v: Sequence[int]) -> int | None:
    """The first 0 < j < len(v) - 1 with v_j^2 < v_(j-1) v_(j+1), or ``None``."""
    for j in range(1, len(v) - 1):
        if v[j] * v[j] < v[j - 1] * v[j + 1]:
            return j
    return None


def _newton_index(v: Sequence[int], m: int) -> int | None:
    """The first 0 < j < len(v) - 1 with a_j^2 j (m-j) < a_(j-1) a_(j+1) (j+1) (m-j+1),
    or ``None``: Newton's inequality at order m >= len(v) - 1, for any signs."""
    for j in range(1, len(v) - 1):
        if v[j] * v[j] * j * (m - j) < v[j - 1] * v[j + 1] * (j + 1) * (m - j + 1):
            return j
    return None


def is_ulc(h: Poly, m: int) -> PropertyReport:
    """Membership in ULC(m): a_j / C(m, j) log-concave and no internal zeros.

    Raises unless m is an ``int`` (not a ``bool``), m >= 0, no coefficient is
    negative and m >= deg h, tested in that order.  As C(m, j-1) C(m, j+1) /
    C(m, j)^2 = j (m-j) / ((j+1) (m-j+1)), the log-concavity is Newton's
    inequality at order m on the numerators, cross-multiplied with no
    binomial coefficient:

        a_j^2 j (m-j) >= a_(j-1) a_(j+1) (j+1) (m-j+1),    0 < j < deg h.

    A failure reports an internal zero ahead of the first failing index.
    """
    _check_int(m, "order", 0)
    v = _require_nonnegative(h)
    if len(v) - 1 > m:
        raise ValueError(f"order {m} is smaller than the degree {len(v) - 1}")
    if 0 in v:  # only a zero can break the support
        support = [j for j, c in enumerate(v) if c]
        if support[-1] - support[0] >= len(support):
            return PropertyReport.failed(
                {**has_internal_zeros(h).witness, "reason": "internal zeros"},
                "support is not contiguous",
            )
    bad = _newton_index(v, m)
    if bad is None:
        return PropertyReport.passed()
    return PropertyReport.failed(
        {"index": bad},
        f"normalized sequence fails log-concavity at index {bad}",
    )


def is_real_rooted(p: Poly) -> PropertyReport:
    """All complex zeros of ``p`` are real (constants hold vacuously).

    Decided by one Sturm chain of ``p`` itself: its count of distinct real
    roots against deg p - deg gcd(p, p'), the number of distinct roots.
    """
    if p.is_zero:
        raise ValueError("real-rootedness of the zero polynomial is undefined")
    if p.degree == 0:
        return PropertyReport.passed("constant polynomial")
    found, needed = distinct_root_counts(p)
    if found == needed:
        return PropertyReport.passed()
    return PropertyReport.failed(
        {"distinct_real_roots": found, "distinct_roots_needed": needed},
        f"only {found} of {needed} distinct roots are real, "
        f"non-real pairs: {(needed - found) // 2}",
    )


def newton_violation(p: Poly) -> int | None:
    """The first index i at which Newton's inequality fails, or ``None``.

    Every real-rooted polynomial of degree n satisfies

        c_i^2 * i * (n - i) >= c_(i-1) * c_(i+1) * (i + 1) * (n - i + 1)

    for 0 < i < n (Hardy, Littlewood & Polya, *Inequalities*, 2.22), so one
    failing index is an exact certificate that ``p`` is not real-rooted.
    ``None`` decides nothing.
    """
    return _newton_index(p._num, len(p._num) - 1)


def _root_bound_str(root) -> str:
    if root.is_exact:
        return str(root.lo)
    return f"({root.lo}, {root.hi})"


def interlaces(b: Poly, a: Poly) -> PropertyReport:
    """Do the roots of ``b`` interlace those of ``a``?

    With the roots of a sorted descending s_1 >= s_2 >= ... and those of b
    descending t_1 >= t_2 >= ..., the condition is

        ... <= t_2 <= s_2 <= t_1 <= s_1,

    which forces deg b in {deg a - 1, deg a}.  The zero polynomial interlaces
    and is interlaced by everything.  Raises on non-real-rooted input.

    Decided without roots by one remainder chain of the pair (see
    ``roots.real_rooted_interlacing``); only a failure checks each input's
    real-rootedness and isolates the roots of the pair, for a witness naming
    the first out-of-order pair.
    """
    if a.is_zero or b.is_zero:
        return PropertyReport.passed("zero polynomial convention")
    if real_rooted_interlacing(b, a):
        return PropertyReport.passed()
    for name, p in (("a", a), ("b", b)):
        if not is_real_rooted(p).holds:
            raise ValueError(f"non-real-rooted input: {name} = {p}")
    return interlacing_by_roots(b, a)


def interlacing_by_roots(b: Poly, a: Poly) -> PropertyReport:
    """``interlaces`` of nonzero, real-rooted a and b whose chain failed, by degrees and roots."""
    deg_a, deg_b = a.degree, b.degree
    if deg_a == 0 and deg_b == 0:
        return PropertyReport.passed("both constant")
    allowed = [d for d in (deg_a - 1, deg_a) if d >= 0]
    if deg_b not in allowed:
        return PropertyReport.failed(
            {"deg_a": deg_a, "deg_b": deg_b},
            f"degree mismatch: deg b = {deg_b} not in {{{', '.join(map(str, allowed))}}}",
        )
    report = _root_order(b, a)
    if report.holds:
        raise RuntimeError("internal error: Cauchy index and root order disagree")
    return report


def _root_order(b: Poly, a: Poly) -> PropertyReport:
    """Interlacing decided by the roots of ``a`` and ``b``, isolated together.

    One isolation of the product lists the distinct roots of both in
    ascending order, so a root is compared by its position in that list.
    A failure's witness is the first out-of-order root pair.
    """
    located = real_roots_of_product([a, b])
    names = [_root_bound_str(root) for root, _ in located]
    # positions in ``located`` of the roots of a (s) and of b (t), descending,
    # each repeated by its multiplicity
    s, t = (
        [k for k in reversed(range(len(located))) for _ in range(located[k][1][j])]
        for j in (0, 1)
    )
    # t_i <= s_i and s_(i+1) <= t_i, indices starting at 1
    for i in range(len(t)):
        if t[i] > s[i]:
            return PropertyReport.failed(
                {"index": i + 1, "root_of_b": names[t[i]], "root_of_a": names[s[i]]},
                f"t_{i + 1} > s_{i + 1}",
            )
        if i + 1 < len(s) and s[i + 1] > t[i]:
            return PropertyReport.failed(
                {"index": i + 1, "root_of_a": names[s[i + 1]], "root_of_b": names[t[i]]},
                f"s_{i + 2} > t_{i + 1}",
            )
    return PropertyReport.passed()


@dataclass(frozen=True)
class SymmetryCertificate:
    """Certifies reverse(h, s) == h; the center of symmetry is s/2.

    ``defect`` is d - s for the reference degree d the caller supplied, or
    ``None`` when no reference degree was given.
    """

    center_numerator: int
    defect: int | None = None


def symmetry_certificate(h: Poly, ref_degree: int | None = None):
    """Return a certificate iff ``h`` equals its own reversal, else ``None``.

    The only candidate axis is s = min supp + max supp; the defect is
    computed only when a reference degree is supplied, held to the tag rule.
    """
    if ref_degree is not None:
        _check_tag(h, ref_degree, "h")
    if h.is_zero:
        raise ValueError("symmetry of the zero polynomial is undefined")
    v = h._num
    s = next(i for i, c in enumerate(v) if c) + len(v) - 1
    if not _is_palindrome(h, s):
        return None
    defect = None
    if ref_degree is not None:
        if ref_degree < s:
            raise ValueError(f"reference degree {ref_degree} is below the axis {s}")
        defect = ref_degree - s
    return SymmetryCertificate(center_numerator=s, defect=defect)


@functools.lru_cache(maxsize=64)
def _binomial_row(n: int) -> tuple[int, ...]:
    """C(n, 0..n); a suite pass asks for the same few rows thousands of times."""
    return tuple([math.comb(n, j) for j in range(n + 1)])


def _gamma_coordinates(h: Poly, s: int) -> list[int]:
    """The numerators of ``gamma_expand(h, s)`` over the denominator of h, from the
    lower half of h: h_j = sum_(i<=j) gamma_i C(s-2i, j-i) for j <= floor(s/2) is
    unitriangular, solved from the lowest index up."""
    _check_int(s, "axis", 0)
    v = h._num
    if len(v) > s + 1 or not _is_palindrome(h, s):
        raise ValueError(f"asymmetric input: reverse at degree {s} differs")
    g = list(v[: s // 2 + 1])
    for i in range(len(g)):
        c = g[i]
        if c:
            row = _binomial_row(s - 2 * i)
            for j in range(i + 1, len(g)):
                g[j] -= c * row[j - i]
    return g


def gamma_expand(h: Poly, s: int) -> Poly:
    """Coordinates of a symmetric polynomial in the basis x^i (1+x)^(s-2i), of degree
    at most floor(s/2); requires an ``int`` axis s >= 0 and reverse(h, s) == h."""
    return Poly._from_ints(_gamma_coordinates(h, s), h._den)


def gamma_contract(g: Poly, s: int) -> Poly:
    """sum_i g_i x^i (1+x)^(s-2i), exact inverse of ``gamma_expand``; g is tagged
    floor(s/2).  Coefficients 0..floor(s/2) are summed, then mirrored at s."""
    _check_int(s, "axis", 0)
    _check_tag(g, s // 2, "g")
    low = [0] * (s // 2 + 1)
    for i, c in enumerate(g._num):
        if c:
            row = _binomial_row(s - 2 * i)
            for j in range(i, len(low)):
                low[j] += c * row[j - i]
    return Poly._from_ints(low + low[: s + 1 - len(low)][::-1], g._den)


def is_gamma_positive(h: Poly, s: int) -> PropertyReport:
    """All coordinates of the degree-s gamma expansion are nonnegative."""
    g = _gamma_coordinates(h, s)
    if min(g, default=0) >= 0:
        return PropertyReport.passed()
    w = is_nonnegative(Poly._from_ints(g, h._den)).witness
    return PropertyReport.failed(w, f"gamma coordinate {w['index']} is {w['value']}")
