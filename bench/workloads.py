"""The benchmark's workloads: their items, made from the seed, and the checks
on each item's output.

An item is one call into hadpoly's public API.  The checks use only the
standard library and what a proved statement guarantees, never a stored
copy of an earlier output.  ``reeve_oracle`` is the once-per-run check of
the Reeve family, with sympy as an outside root counter.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import hadpoly.ehrhart
import hadpoly.harness
import hadpoly.operators
from hadpoly.generators import TrialConfig
from hadpoly.poly import Poly, TaggedPoly

#: trial seeds per suite in one pass; each trial is one item
SUITE_TRIALS = 200
#: (d1, d2) factor degrees of the products workload: equal and unequal pairs
#: that reach every d in {10, 20, 40, 80}
PRODUCT_DEGREES = ((10, 10), (20, 20), (40, 40), (20, 10), (40, 20), (80, 40))
#: bounds on the numerators and denominators of the factors' coefficients
PRODUCT_HEIGHTS = (9, 999_999)
#: k-max of each verify_reeve item
REEVE_KMAX = (8, 11, 12)



@dataclass(frozen=True)
class Item:
    """One call into the program and the check of what it returns.

    ``run`` looks the program's function up when it is called, so that a
    traced pass reaches the wrapped version.  ``check`` returns None for a
    correct output and the reason otherwise.
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]


# -- suites ----------------------------------------------------------------


def check_suite_result(result, suite: str, seed: int) -> str | None:
    """Every suite exercises a proved statement: one trial, no failure."""
    if result.suite != suite or dict(result.params).get("seed") != seed:
        return f"result names suite {result.suite!r} with params {result.params}"
    if result.trials_run != 1:
        return f"trials_run is {result.trials_run}, 1 was requested"
    if result.failures or result.ok is not True:
        return f"suite reported ok={result.ok} with failures {result.failures}"
    return None


def _suite_item(name: str, seed: int) -> Item:
    config = TrialConfig(seed=seed, trials=1)
    return Item(
        f"{name}@{seed}",
        lambda: hadpoly.harness.SUITES[name](config),
        lambda result: check_suite_result(result, name, seed),
    )


def suites_items(rng: random.Random) -> list[Item]:
    """Trials 1..SUITE_TRIALS of every suite, the same in every pass and every
    run; the seed only orders them.  A seed-dependent set of trials would put
    the spread of trial costs (heavy-tailed, led by symdec-interlacing) into
    every comparison between runs."""
    names = sorted(hadpoly.harness.SUITES)
    items = [_suite_item(name, seed) for seed in range(1, SUITE_TRIALS + 1) for name in names]
    rng.shuffle(items)
    return items


# -- products ----------------------------------------------------------------


def series(h: list[Fraction], d: int, count: int) -> list[Fraction]:
    """Coefficients 0..count-1 of h(x) / (1-x)^(d+1).

    Coefficient j is sum_i h_i C(j - i + d, d): the values p(0), p(1), ...
    of the degree-d polynomial whose numerator is h.
    """
    return [
        sum(c * math.comb(j - i + d, d) for i, c in enumerate(h[: j + 1]))
        for j in range(count)
    ]


def check_product(out, a: list[Fraction], d1: int, b: list[Fraction], d2: int) -> str | None:
    """The Hadamard product's series is the pointwise product of the factors'
    series; D + 1 coefficients fix a numerator tagged D = d1 + d2."""
    top = d1 + d2
    if out.ref_degree != top:
        return f"tag {out.ref_degree}, expected {top}"
    coeffs = list(out.poly.coeffs)
    if len(coeffs) > top + 1:
        return f"degree {len(coeffs) - 1} exceeds the tag {top}"
    want = [x * y for x, y in zip(series(a, d1, top + 1), series(b, d2, top + 1))]
    got = series(coeffs, top, top + 1)
    for j, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"series coefficient {j} is {g}, expected {w}"
    return None


def _factor(rng: random.Random, d: int, height: int) -> list[Fraction]:
    return [Fraction(rng.randint(1, height), rng.randint(1, height)) for _ in range(d + 1)]


def _product_item(a: list[Fraction], d1: int, b: list[Fraction], d2: int, height: int) -> Item:
    ta, tb = TaggedPoly(Poly(a), d1), TaggedPoly(Poly(b), d2)
    return Item(
        f"hadamard d={d1}x{d2} h={height}",
        lambda: hadpoly.operators.hadamard(ta, tb),
        lambda out: check_product(out, a, d1, b, d2),
    )


def products_items(rng: random.Random) -> list[Item]:
    items = []
    for height in PRODUCT_HEIGHTS:
        for d1, d2 in PRODUCT_DEGREES:
            a, b = _factor(rng, d1, height), _factor(rng, d2, height)
            items.append(_product_item(a, d1, b, d2, height))
    rng.shuffle(items)
    return items


# -- reeve -------------------------------------------------------------------


def check_reeve_result(result, k_max: int) -> str | None:
    """verify_reeve confirms every power up to k_max."""
    if result.suite != "reeve" or result.params != (("k-max", k_max),):
        return f"result names suite {result.suite!r} with params {result.params}"
    if result.trials_run != k_max:
        return f"trials_run is {result.trials_run}, expected {k_max}"
    if result.failures or result.ok is not True:
        return f"reeve reported ok={result.ok} with failures {result.failures}"
    return None


def _reeve_item(k_max: int) -> Item:
    return Item(
        f"verify_reeve k-max={k_max}",
        lambda: hadpoly.harness.verify_reeve(k_max),
        lambda result: check_reeve_result(result, k_max),
    )


def reeve_items(rng: random.Random) -> list[Item]:
    """The Reeve inputs have no random part; the seed only orders them."""
    items = [_reeve_item(k) for k in REEVE_KMAX]
    rng.shuffle(items)
    return items


def check_reeve_power(f, k: int) -> str | None:
    """The k-th diamond power has the lowest coefficients of the closed form
    (1, 4^k - 1, 17^k - 2 4^k + 1), and they break log-concavity strictly,
    so the power is not real-rooted."""
    lows = (1, 4**k - 1, 17**k - 2 * 4**k + 1)
    got = tuple(f.coefficient(i) for i in range(3))
    if got != lows:
        return f"k={k}: low coefficients {got}, expected {lows}"
    f0, f1, f2 = got
    if not f1 * f1 < f0 * f2:
        return f"k={k}: f1^2 < f0 f2 fails"
    return None


def check_reeve_numerator(h, f, k: int) -> str | None:
    """h is the numerator of f at degree 3k and sympy counts fewer real roots
    than its degree."""
    import sympy

    x = sympy.Symbol("x")
    d = 3 * k
    hs = [sympy.Rational(c.numerator, c.denominator) for c in h.coeffs]
    fs = [sympy.Rational(c.numerator, c.denominator) for c in f.coeffs]
    rebuilt = sympy.Poly(sum(c * x**i * (x + 1) ** (d - i) for i, c in enumerate(hs)), x)
    if rebuilt != sympy.Poly(list(reversed(fs)), x):
        return f"k={k}: the numerator does not give back the f-polynomial"
    hp = sympy.Poly(list(reversed(hs)), x)
    real = hp.count_roots()
    if real >= hp.degree():
        return f"k={k}: sympy counts {real} real roots of a degree-{hp.degree()} numerator"
    return None


def reeve_oracle() -> list[str]:
    """Check the family the reeve items confirm; returns the problems found.

    Every power up to the largest k-max gets the closed-form check; the
    numerator of that largest power also goes to sympy, whose root count
    takes most of the oracle's time (about 10 s at k = 12).
    """
    problems = []
    top = max(REEVE_KMAX)
    for k in range(1, top + 1):
        f = hadpoly.ehrhart.product_f(k)
        problem = check_reeve_power(f, k)
        if problem is None and k == top:
            problem = check_reeve_numerator(hadpoly.operators.h_from_f(f, 3 * k), f, k)
        if problem is not None:
            problems.append(problem)
    return problems


BUILDERS = {"suites": suites_items, "products": products_items, "reeve": reeve_items}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, seed: int) -> list[Item]:
    """The items of one pass; the same seed gives the same items in the same order."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"))
