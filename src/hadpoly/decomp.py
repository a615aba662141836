"""Symmetric decompositions of numerators and of f-polynomials.

Any polynomial h of degree at most d splits uniquely as h = a + x*b with
a equal to its own degree-d reversal and b equal to its own degree-(d-1)
reversal.  On the f-polynomial side the same split uses the reflection
(-1)^d f(-x-1) instead of coefficient reversal, and the two decompositions
are carried into each other by the h <-> f basis change.  Interlacing of a
decomposition is one remainder chain of (a, b) when it holds; otherwise it
names a part that is not real-rooted or reports as ``analysis.interlaces``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest

from .analysis import (
    PropertyReport,
    interlacing_by_roots,
    interlaces,
    is_gamma_positive,
    is_nonnegative,
    is_real_rooted,
)
from .operators import diamond, f_from_h, h_from_f, reflect
from .poly import Poly, _check_int, _check_tag, _is_palindrome
from .roots import real_rooted_interlacing


@dataclass(frozen=True)
class SymDecomp:
    """Pair (a, b) with h = a + x*b, reverse(a, d) = a, reverse(b, d-1) = b; each
    part is held to the tag rule, then its symmetry is decided on its numerators."""

    a: Poly
    b: Poly
    d: int

    def __post_init__(self):
        _check_tag(self.a, self.d, "h")
        if not _is_palindrome(self.a, self.d):
            raise ValueError(f"a is not its own reversal at degree {self.d}")
        if self.d >= 1:
            _check_tag(self.b, self.d - 1, "h")
            if not _is_palindrome(self.b, self.d - 1):
                raise ValueError(f"b is not its own reversal at degree {self.d - 1}")
        elif not self.b.is_zero:
            raise ValueError("a degree-0 decomposition forces b = 0")

    def reconstruct(self) -> Poly:
        """h = a + x*b, summed once over the lcm of the two denominators."""
        den = math.lcm(self.a._den, self.b._den)
        ma, mb = den // self.a._den, den // self.b._den
        pairs = zip_longest(self.a._num, (0, *self.b._num), fillvalue=0)
        return Poly._from_ints([x * ma + y * mb for x, y in pairs], den)


def i_decompose(h: Poly, d: int) -> SymDecomp:
    """The unique symmetric decomposition of h at reference degree d.

    Solved on the numerators of h, over its denominator, by the triangular
    recurrence a_0 = h_0, b_i = h_(d-i) - a_i, a_i = h_i - b_(i-1), which
    makes h_i = a_i + b_(i-1) by construction.
    """
    _check_tag(h, d, "h")
    v = h._num + (0,) * (d + 1 - len(h._num))
    a, b = [], [0]  # b[i] holds b_(i-1)
    for i in range(d + 1):
        a.append(v[i] - b[i])
        b.append(v[d - i] - a[i])
    return SymDecomp(Poly._from_ints(a, h._den), Poly._from_ints(b[1:d + 1], h._den), d)


def r_decompose(f: Poly, d: int) -> tuple[Poly, Poly]:
    """Reflection-symmetric split of an f-polynomial at reference degree d.

    Returns (a~, b~) with f = a~ + x b~, reflect(a~, d) = a~ and
    reflect(b~, d-1) = b~: the f-images of the parts of ``i_decompose`` of
    h_from_f(f, d), since the basis change carries reversal to reflection and
    x b to x b~.  At d = 0, b~ = 0.
    """
    dec = i_decompose(h_from_f(f, d), d)
    return f_from_h(dec.a, d), f_from_h(dec.b, d - 1) if d else dec.b


def defect1_ell(b1: Poly, d1: int, b2: Poly, d2: int) -> Poly:
    """The common symmetric factor of the two diamond products of shifted b's.

    For b1, b2 equal to their own reflections at degrees d1 - 1 and d2 - 1,
    there is a unique ell with reflect(ell, d1 + d2 - 1) = ell satisfying

        ((x+1) b1) <> ((x+1) b2) = (x+1) ell    and
        (x b1) <> (x b2) = x ell.

    Read one index down from the second product: the values of x b are the
    running sums of b's values before j, so both factors vanish at j = 0 and
    the product has no constant term.  Broken symmetry signals an
    implementation bug and aborts.
    """
    _check_int(d1, "d1")
    _check_int(d2, "d2")
    if d1 < 1 or d2 < 1:
        raise ValueError("reference degrees must be at least 1")
    if reflect(b1, d1 - 1) != b1:
        raise ValueError(f"b1 is not its own reflection at degree {d1 - 1}")
    if reflect(b2, d2 - 1) != b2:
        raise ValueError(f"b2 is not its own reflection at degree {d2 - 1}")
    xb1, xb2 = (Poly._from_ints((0, *b._num), b._den) for b in (b1, b2))
    x_ell = diamond(xb1, xb2)
    ell = Poly._from_ints(x_ell._num[1:], x_ell._den)
    if reflect(ell, d1 + d2 - 1) != ell:
        raise RuntimeError("internal error: ell lost reflection symmetry")
    return ell


def decomposition_is_nonnegative(dec: SymDecomp) -> PropertyReport:
    """Both halves have only nonnegative coefficients."""
    for name, p in (("a", dec.a), ("b", dec.b)):
        report = is_nonnegative(p)
        if not report.holds:
            w = report.witness
            return PropertyReport.failed(
                {"part": name, **w}, f"coefficient {w['index']} of {name} is {w['value']}"
            )
    return PropertyReport.passed()


def decomposition_is_interlacing(dec: SymDecomp) -> PropertyReport:
    """Both halves are real-rooted and the roots of b interlace those of a.

    One chain of the pair passes it (``roots.real_rooted_interlacing``);
    otherwise a part that is not real-rooted is named, and ``interlaces`` (a
    zero part) or ``interlacing_by_roots``, with no second chain, reports.
    """
    if real_rooted_interlacing(dec.b, dec.a):
        return PropertyReport.passed()
    for name, p in (("a", dec.a), ("b", dec.b)):
        if not p.is_zero and not is_real_rooted(p).holds:
            return PropertyReport.failed(
                {"part": name, "reason": "not real-rooted"},
                f"{name} is not real-rooted",
            )
    report = interlaces if dec.a.is_zero or dec.b.is_zero else interlacing_by_roots
    return report(dec.b, dec.a)


def decomposition_is_gamma_positive(dec: SymDecomp) -> PropertyReport:
    """Both halves have nonnegative gamma coordinates (axes d and d-1)."""
    # at d = 0, b = 0, which is gamma-positive on the axis 0
    for name, p, s in (("a", dec.a, dec.d), ("b", dec.b, max(dec.d - 1, 0))):
        report = is_gamma_positive(p, s)
        if not report.holds:
            w = report.witness
            return PropertyReport.failed(dict(w, part=name), f"{name}: {report.detail}")
    return PropertyReport.passed()
