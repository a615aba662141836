from fractions import Fraction

import pytest

from hadpoly import decomp, harness
from hadpoly.analysis import PropertyReport
from hadpoly.cli import main
from hadpoly.decomp import SymDecomp
from hadpoly.generators import TrialConfig
from hadpoly.harness import (
    SUITES,
    SuiteResult,
    _nonneg_and_interlacing,
    _run,
    _symdec_trial,
    scan_logconcave_pair,
    verify_reeve,
)
from hadpoly.poly import Poly

SMALL = TrialConfig(seed=1, trials=25, max_degree=6, max_coefficient=9)


class TestSuites:
    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_suite_passes_at_small_scale(self, name):
        result = SUITES[name](SMALL)
        assert result.ok, result.render()
        assert result.trials_run == SMALL.trials
        assert not result.failures

    def test_reeve(self):
        result = verify_reeve(4)
        assert result.ok
        assert "confirmed" in result.summary

    def test_reeve_invalid(self):
        with pytest.raises(ValueError):
            verify_reeve(0)

    @pytest.mark.parametrize("k_max", [True, 2.0, Fraction(2)], ids=["bool", "float", "fraction"])
    def test_reeve_k_max_that_is_not_an_int_rejected(self, k_max):
        with pytest.raises(TypeError) as raised:
            verify_reeve(k_max)
        assert str(raised.value) == f"k_max {k_max!r} is not an int"


class TestDeterminism:
    def test_report_byte_stream_is_reproducible(self):
        first = SUITES["wagner"](SMALL).render()
        second = SUITES["wagner"](SMALL).render()
        assert first == second

    def test_seed_changes_stream(self):
        other = TrialConfig(seed=2, trials=25, max_degree=6, max_coefficient=9)
        # both pass, but the rendered config differs
        a = SUITES["wagner"](SMALL)
        b = SUITES["wagner"](other)
        assert a.ok and b.ok
        assert a.render() != b.render()


class TestRender:
    def test_render_contains_parameters(self):
        result = SUITES["no-internal-zeros"](SMALL)
        text = result.render()
        assert "suite: no-internal-zeros" in text
        assert "seed=1" in text and "trials=25" in text
        assert text.endswith("conclusion held in every trial")

    def test_failure_rendering(self):
        result = SuiteResult(
            suite="demo",
            params=(("seed", 1),),
            trials_run=1,
            failures=(),
            ok=False,
            summary="broken",
        )
        assert result.render().endswith("FAIL: broken")


class TestScan:
    def test_scan_passes_on_valid_draws(self):
        result = scan_logconcave_pair(SMALL)
        assert result.ok
        assert result.suite == "scan-logconcave-pair"

    def test_scan_reports_findings_or_open(self):
        result = scan_logconcave_pair(SMALL)
        assert ("counterexample" in result.summary) or ("open" in result.summary)

    def test_factor_failing_its_hypothesis_is_a_failure(self, monkeypatch, capsys):
        stub = PropertyReport.failed({}, "stubbed")
        monkeypatch.setattr(harness, "is_log_concave", lambda p: stub)
        result = scan_logconcave_pair(SMALL)
        assert (result.ok, result.findings) == (False, ())
        assert [f.stage for f in result.failures] == ["hypothesis"] * SMALL.trials
        assert result.render().endswith(
            "FAIL: a proved statement was violated; this indicates a bug in this package"
        )
        assert main(["scan", "logconcave-pair", "--trials", "6", "--seed", "3"]) == 1
        assert "[hypothesis]: factor 0 not log-concave" in capsys.readouterr().out


class TestSymdecInterlacingHypothesis:
    """The suite, not the generator, validates each drawn decomposition."""

    @pytest.mark.parametrize(
        "dec, detail",
        [
            (SymDecomp(Poly([1, 1, 1, 1]), Poly([1, 0, 1]), 3), "a is not real-rooted"),
            (SymDecomp(Poly([1, -1, 1]), Poly([1, 1]), 2), "coefficient 1 of a is -1"),
        ],
        ids=["not-real-rooted", "negative-coefficient"],
    )
    def test_bad_draw_is_a_hypothesis_failure(self, dec, detail):
        trial = _symdec_trial(
            lambda rng, d, m: dec, _nonneg_and_interlacing, "nonnegative interlacing decomposition"
        )
        result = _run("symdec-interlacing", 6, trial, TrialConfig(seed=1, trials=2))
        assert not result.ok
        assert [(f.trial, f.stage) for f in result.failures] == [(i, "hypothesis") for i in (0, 1)]
        assert result.failures[0].detail == (
            f"factor 0 fails nonnegative interlacing decomposition: {detail}"
        )
        assert "  trial 0 [hypothesis]: factor 0 fails" in result.render()

    def test_one_chain_per_decomposition(self, monkeypatch):
        """Two factors and one product per trial, each decided by one chain."""
        calls = []

        def counting_chain(b, a):
            calls.append((b, a))
            return real_rooted_interlacing(b, a)

        real_rooted_interlacing = decomp.real_rooted_interlacing
        monkeypatch.setattr(decomp, "real_rooted_interlacing", counting_chain)
        result = SUITES["symdec-interlacing"](TrialConfig(seed=1, trials=200))
        assert result.ok
        assert len(calls) == 600
