import pytest

from hadpoly import generators
from hadpoly.generators import GeneratorExhausted, TrialConfig
from hadpoly.harness import (
    SUITES,
    SuiteResult,
    scan_logconcave_pair,
    verify_reeve,
)

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
    def test_scan_always_succeeds_as_process(self):
        result = scan_logconcave_pair(SMALL)
        assert result.ok
        assert result.suite == "scan-logconcave-pair"

    def test_scan_reports_findings_or_open(self):
        result = scan_logconcave_pair(SMALL)
        assert ("counterexample" in result.summary) or ("open" in result.summary)


class TestExhaustion:
    """A generator out of attempts raises, naming the suite, seed and trial."""

    @pytest.mark.parametrize(
        "name, run",
        [
            ("ulc-preservation", SUITES["ulc-preservation"]),
            ("scan-logconcave-pair", scan_logconcave_pair),
        ],
    )
    def test_exhaustion_names_its_context(self, monkeypatch, name, run):
        monkeypatch.setattr(generators, "REJECTION_BUDGET", 0)
        with pytest.raises(GeneratorExhausted) as exc:
            run(TrialConfig(seed=1, trials=3))
        assert str(exc.value).startswith("no ")
        assert str(exc.value).endswith(f"(suite {name}, seed 1, trial 0)")
