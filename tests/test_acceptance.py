"""Acceptance suite: every contract the package must meet, at its stated
tolerance (exact equality throughout) and time budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one printed
pass/fail line per criterion alongside the pytest verdicts.
"""

import math
import time
from contextlib import contextmanager

import pytest

from hadpoly import cli
from hadpoly.analysis import (
    gamma_contract,
    gamma_expand,
    is_log_concave,
    is_real_rooted,
    is_ulc,
    is_unimodal,
)
from hadpoly.decomp import decomposition_is_interlacing, i_decompose
from hadpoly.ehrhart import product_f
from hadpoly.generators import TrialConfig
from hadpoly.harness import SUITES, verify_reeve
from hadpoly.operators import (
    f_from_h,
    h_from_f,
    hadamard,
    reflect,
    w_inverse,
    w_transform,
)
from hadpoly.poly import Poly, TaggedPoly, reverse
from hadpoly.rng import SplitMix64

from helpers import bullet, closed_form, diamond_route, rational


def P(*coeffs):
    return Poly(coeffs)


@contextmanager
def criterion(name: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] {name}: PASS ({elapsed:.2f}s, limit {limit_seconds:.0f}s)")
    assert elapsed < limit_seconds, f"{name} exceeded its time budget"


def test_product_with_gap_numerator_defeats_unimodality():
    with criterion("gap-numerator product reproduces exactly, not unimodal", 1.0):
        out = hadamard(TaggedPoly(P(1, 0, 0, 1), 6), TaggedPoly(P(1), 3))
        assert out == TaggedPoly(P(1, 18, 45, 40, 45, 18, 1), 9)
        assert cli.main(["check", "unimodal", "--poly", "1,18,45,40,45,18,1"]) == 1


def test_gamma_expansion_of_ulc_polynomial_is_not_unimodal():
    with criterion("gamma expansion exact; ULC input, non-unimodal gamma", 1.0):
        h = P(1, 8, 24, 36, 24, 8, 1)
        gamma = gamma_expand(h, 6)
        assert gamma == P(1, 2, 1, 2)
        assert is_ulc(h, 6).holds
        assert not is_unimodal(gamma).holds


def test_square_of_near_symmetric_cubic_loses_real_rootedness():
    with criterion("near-symmetric cubic square and its decomposition", 1.0):
        h = P(1, 3, 9, 1)
        dec = i_decompose(h, 3)
        assert dec.a == P(1, 3, 3, 1)
        assert dec.b == P(0, 6)
        assert is_real_rooted(dec.a).holds
        assert is_real_rooted(dec.b).holds
        square = hadamard(TaggedPoly(h, 3), TaggedPoly(h, 3))
        assert square == TaggedPoly(P(1, 42, 639, 1836, 1239, 162, 1), 6)
        assert not is_real_rooted(square.poly).holds
        assert not decomposition_is_interlacing(i_decompose(square.poly, 6)).holds


def test_no_simplex_power_is_log_concave():
    with criterion("diamond powers match closed forms and stay non-log-concave", 30.0):
        lows = {}
        for k in range(1, 9):
            f = product_f(k)
            triple = tuple(f.coefficient(i) for i in range(3))
            assert triple == closed_form(k)
            lows[k] = triple
            f0, f1, f2 = triple
            assert f1 * f1 < f0 * f2
            assert not is_log_concave(f).holds
            assert not is_real_rooted(h_from_f(f, 3 * k)).holds
        for k in range(1, 8):
            f0, f1, f2 = lows[k]
            assert lows[k + 1] == (f0, 3 * f0 + 4 * f1, 10 * f0 + 26 * f1 + 17 * f2)


def _run_suite(name: str, trials: int = 200, max_degree: int = 8, seed: int = 1) -> None:
    config = TrialConfig(seed=seed, trials=trials, max_degree=max_degree)
    result = SUITES[name](config)
    assert result.ok, result.render()
    assert result.trials_run == trials
    assert not result.failures


def test_real_rootedness_preserved():
    with criterion("real-rootedness preserved over 200 trials", 60.0):
        _run_suite("wagner")


def test_ultra_log_concavity_preserved():
    with criterion("ultra log-concavity preserved over 200 trials", 60.0):
        _run_suite("ulc-preservation")


def test_ultra_log_concavity_preserved_at_degree_12():
    # a wider degree range gives larger factors and products
    with criterion("ultra log-concavity preserved over 200 trials, degree <= 12", 5.0):
        _run_suite("ulc-preservation", max_degree=12)


@pytest.mark.parametrize("name", ["ulc-preservation", "gamma-implies-ulc", "mixed-logconcave"])
def test_ulc_suites_at_degree_32(name):
    with criterion(f"{name} holds over 200 trials, degree <= 32, seeds 1-3", 2.0):
        for seed in (1, 2, 3):
            _run_suite(name, max_degree=32, seed=seed)


def test_gamma_positivity_preserved_with_matching_defect():
    with criterion("gamma positivity and defect preserved over 200 trials", 60.0):
        _run_suite("gamma-preservation")


def test_symmetric_decomposition_properties_preserved():
    with criterion("nonnegative/gamma/interlacing decompositions preserved", 120.0):
        _run_suite("symdec-nonneg")
        _run_suite("symdec-gamma")
        _run_suite("symdec-interlacing")


def test_symdec_interlacing_suite_at_default_trials():
    with criterion("interlacing decompositions preserved over 200 trials", 3.0):
        result = SUITES["symdec-interlacing"](TrialConfig(seed=1, trials=200))
        assert result.ok, result.render()


def test_all_nine_suites_at_default_trials():
    with criterion("all nine suites over 200 trials each", 10.0):
        config = TrialConfig(seed=1, trials=200)
        assert len(SUITES) == 9
        for name, run in SUITES.items():
            assert run(config).ok, name


def test_contiguous_support_preserved():
    with criterion("contiguous support preserved over 200 trials", 30.0):
        _run_suite("no-internal-zeros")


def test_ulc_gamma_polynomial_forces_ulc():
    with criterion("ULC gamma polynomial forces ULC, converse fails", 30.0):
        _run_suite("gamma-implies-ulc")
        # negative control: the converse direction fails on record
        h = P(1, 8, 24, 36, 24, 8, 1)
        assert is_ulc(h, 6).holds
        assert not is_unimodal(gamma_expand(h, 6)).holds


def test_mixed_product_stays_log_concave():
    with criterion("ULC x log-concave product stays log-concave", 30.0):
        _run_suite("mixed-logconcave")


def test_hadamard_routes_agree():
    with criterion("three product routes agree on 100 seeded trials", 60.0):
        rng = SplitMix64(20_25)
        for trial in range(100):
            r = rng.derive(trial)
            d1, d2 = r.randint(0, 6), r.randint(0, 6)
            h1 = Poly([rational(r, 9, 9) for _ in range(r.randint(0, d1) + 1)])
            h2 = Poly([rational(r, 9, 9) for _ in range(r.randint(0, d2) + 1)])
            t1, t2 = TaggedPoly(h1, d1), TaggedPoly(h2, d2)
            direct = hadamard(t1, t2)
            assert bullet(t1, t2) == direct
            assert diamond_route(t1, t2) == direct


def test_hadamard_at_degree_80_with_large_heights():
    rng = SplitMix64(80)
    h1 = Poly([rational(rng, 999999, 999999) for _ in range(81)])
    h2 = Poly([-rational(rng, 999999, 999999) for _ in range(81)])
    with criterion("production hadamard at d = (80, 80), height 999999", 2.0):
        out = hadamard(TaggedPoly(h1, 80), TaggedPoly(h2, 80))
    assert out.ref_degree == 160

    def series_at(h, d, j):
        return sum(c * math.comb(j - i + d, d) for i, c in enumerate(h.coeffs[: j + 1]))

    for j in (0, 1, 2, 160):
        assert series_at(out.poly, 160, j) == series_at(h1, 80, j) * series_at(h2, 80, j)


def test_round_trips_and_involutions():
    with criterion("round trips and involutions, 500 instances each", 30.0):
        rng = SplitMix64(77)

        def random_pair(r, max_d=8):
            d = r.randint(0, max_d)
            h = Poly([rational(r, 9, 9) for _ in range(r.randint(0, d) + 1)])
            return h, d

        for trial in range(500):
            r = rng.derive(1, trial)
            h, d = random_pair(r)
            if not h.is_zero:
                assert w_transform(w_inverse(h, d)) == TaggedPoly(h, d)
        for trial in range(500):
            r = rng.derive(2, trial)
            h, d = random_pair(r)
            assert h_from_f(f_from_h(h, d), d) == h
        for trial in range(500):
            r = rng.derive(3, trial)
            h, d = random_pair(r)
            assert reverse(reverse(h, d), d) == h
        for trial in range(500):
            r = rng.derive(4, trial)
            f, d = random_pair(r)
            assert reflect(reflect(f, d), d) == f
        for trial in range(500):
            r = rng.derive(5, trial)
            s = r.randint(0, 10)
            g = Poly([rational(r, 9, 9) for _ in range(r.randint(0, s // 2) + 1)])
            assert gamma_expand(gamma_contract(g, s), s) == g


def test_counterexample_suite_entrypoint():
    with criterion("counterexample verification command confirms at depth 8", 30.0):
        result = verify_reeve(8)
        assert result.ok


def test_counterexample_suite_at_depth_12():
    with criterion("counterexample verification command confirms at depth 12", 15.0):
        result = verify_reeve(12)
        assert result.ok


def test_counterexample_suite_at_depth_60():
    with criterion("counterexample verification command confirms at depth 60", 5.0):
        result = verify_reeve(60)
        assert result.ok


def test_counterexample_suite_at_depth_10000():
    with criterion("counterexample verification command confirms at depth 10000", 10.0):
        result = verify_reeve(10000)
        assert result.ok
