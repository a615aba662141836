"""Byte-for-byte golden reports: every verification suite at one fixed config.

``golden/reports_seed1_trials20.txt`` holds the ``render()`` text of each
``SUITES`` entry at ``TrialConfig(seed=1, trials=20)`` in ``SUITES`` order,
then ``verify_reeve(8)``, separated by blank lines.  A change to any kernel
that moves a verdict or a report line shows up here.
"""

from pathlib import Path

from hadpoly.generators import TrialConfig
from hadpoly.harness import SUITES, verify_reeve

GOLDEN = Path(__file__).parent / "golden" / "reports_seed1_trials20.txt"


def test_suite_reports_match_golden_file():
    config = TrialConfig(seed=1, trials=20)
    parts = [SUITES[name](config).render() for name in SUITES]
    parts.append(verify_reeve(8).render())
    assert "\n\n".join(parts) + "\n" == GOLDEN.read_text(encoding="utf-8")
