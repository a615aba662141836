"""Byte-for-byte golden reports: every verification suite at one fixed config.

``golden/reports_seed1_trials20.txt`` holds the ``render()`` text of each
``SUITES`` entry at ``TrialConfig(seed=1, trials=20)`` in ``SUITES`` order,
then ``verify_reeve(8)``, separated by blank lines.  A change to any kernel
that moves a verdict or a report line shows up here.
"""

from pathlib import Path

from hadpoly import harness
from hadpoly.analysis import PropertyReport
from hadpoly.generators import TrialConfig
from hadpoly.harness import SUITES, scan_logconcave_pair, verify_reeve
from hadpoly.poly import Poly, TaggedPoly

GOLDEN = Path(__file__).parent / "golden" / "reports_seed1_trials20.txt"


def test_suite_reports_match_golden_file():
    config = TrialConfig(seed=1, trials=20)
    parts = [SUITES[name](config).render() for name in SUITES]
    parts.append(verify_reeve(8).render())
    assert "\n\n".join(parts) + "\n" == GOLDEN.read_text(encoding="utf-8")


# -- failure paths -----------------------------------------------------------------
#
# Passing reports cannot show a changed message, a swapped suite key or a
# reordered draw.  ``golden/suite_failures_seed3_trials6.txt`` holds the factor
# pairs each suite draws and every failure message, at one fixed config.

FAILURES = Path(__file__).parent / "golden" / "suite_failures_seed3_trials6.txt"
FAILURE_CONFIG = TrialConfig(seed=3, trials=6)

#: the checkers the suites bind in ``hadpoly.harness``; section (c) makes each fail
_CHECKERS = ("is_real_rooted", "is_ulc", "has_internal_zeros", "is_log_concave", "is_gamma_positive")


def _runs():
    """Every ``SUITES`` entry, then the scan, as (name, callable) pairs."""
    return [*SUITES.items(), ("scan-logconcave-pair", scan_logconcave_pair)]


def _tagged(t: TaggedPoly) -> str:
    return f"([{', '.join(map(str, t.poly.coeffs))}], {t.ref_degree})"


def _hadamard_pairs(monkeypatch) -> list[str]:
    true_hadamard = harness.hadamard
    lines = []

    def recording(a, b, *args, **kwargs):
        lines.append(f"  {_tagged(a)} x {_tagged(b)}")
        return true_hadamard(a, b, *args, **kwargs)

    monkeypatch.setattr(harness, "hadamard", recording)
    out = []
    for name, run in _runs():
        lines.clear()
        run(FAILURE_CONFIG)
        out.append("\n".join([f"hadamard pairs: {name}", *lines]))
    monkeypatch.undo()
    return out


def _renders(monkeypatch, patch) -> list[str]:
    patch(monkeypatch)
    out = [run(FAILURE_CONFIG).render() for _, run in _runs()]
    monkeypatch.undo()
    return out


def _wrong_product(monkeypatch):
    def wrong(a, b, *args, **kwargs):
        return TaggedPoly(Poly([1, 0, 0, 1]), a.ref_degree + b.ref_degree + 4)

    monkeypatch.setattr(harness, "hadamard", wrong)


def _failing_checkers(monkeypatch):
    for name in _CHECKERS:
        report = PropertyReport.failed({"checker": name}, f"{name} stubbed to fail")
        monkeypatch.setattr(harness, name, lambda *args, _r=report, **kwargs: _r)
    monkeypatch.setattr(harness, "symmetry_certificate", lambda *args, **kwargs: None)


def test_suite_failure_paths_match_golden_file(monkeypatch):
    """(a) the pairs each suite and the scan hand to ``hadamard``; (b) every
    report when ``hadamard`` returns ``1 + x^3`` tagged four above the true
    product's tag; (c) every report when each checker bound in
    ``hadpoly.harness`` fails and ``symmetry_certificate`` finds no axis."""
    parts = _hadamard_pairs(monkeypatch)
    parts += _renders(monkeypatch, _wrong_product)
    parts += _renders(monkeypatch, _failing_checkers)
    assert "\n\n".join(parts) + "\n" == FAILURES.read_text(encoding="utf-8")
