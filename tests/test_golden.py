"""Byte-for-byte golden reports: every verification suite at one fixed config.

``golden/reports_seed1_trials20.txt`` holds the ``render()`` text of each
``SUITES`` entry at ``TrialConfig(seed=1, trials=20)`` in ``SUITES`` order,
then ``verify_reeve(8)``, separated by blank lines.  A change to any kernel
that moves a verdict or a report line shows up here.
"""

import contextlib
import io
from fractions import Fraction
from pathlib import Path

from hadpoly import cli, harness
from hadpoly.analysis import PropertyReport
from hadpoly.generators import TrialConfig
from hadpoly.harness import SUITES, scan_logconcave_pair, verify_reeve
from hadpoly.poly import Poly, TaggedPoly
from hadpoly.rng import SplitMix64
from hadpoly.roots import isolate_roots

from helpers import derivative

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

#: the checkers the suites call through ``hadpoly.harness``; section (c) makes each fail
_CHECKERS = (
    "is_real_rooted", "is_ulc", "has_internal_zeros", "is_log_concave", "is_gamma_positive",
    "decomposition_is_nonnegative", "decomposition_is_gamma_positive",
    "decomposition_is_interlacing",
)


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


# -- root isolation and interlacing ------------------------------------------------
#
# ``golden/root_isolation_seed1.txt`` holds ``isolate_roots`` at two widths on
# seeded real-rooted polynomials, then ``hadpoly check interlacing`` (text and
# ``--json``, with the exit code) on seeded real-rooted pairs.  The factors give
# roots at 0, non-dyadic rationals and irrational roots, some close together;
# repeated draws give multiple roots and roots shared by a pair.

ROOTS = Path(__file__).parent / "golden" / "root_isolation_seed1.txt"
ROOT_POLYS = 240
ROOT_PAIRS = 240

#: real-rooted factors with irrational roots: x^2 - 2, x^2 - x - 1, 3x^2 - 1, x^3 - 3x + 1
_IRRATIONAL = (Poly([-2, 0, 1]), Poly([-1, -1, 1]), Poly([-1, 0, 3]), Poly([1, -3, 0, 1]))


def _root_factors(rng: SplitMix64, draws: int) -> list[Poly]:
    """Between 1 and ``draws`` factors, each repeated 1 to 3 times."""
    factors = []
    for _ in range(rng.randint(1, draws)):
        kind = rng.randint(0, 7)
        if kind == 0:
            f = Poly([0, 1])
        elif kind < 4:
            f = _IRRATIONAL[kind - 1 + rng.randint(0, 1)]
        else:
            f = Poly([Fraction(rng.randint(-7, 7), rng.randint(1, 5)), 1])
        factors += [f] * rng.randint(1, 3)
    return factors


def _product(rng: SplitMix64, factors: list[Poly]) -> Poly:
    p = Poly([rng.randint(1, 5) * (1 if rng.chance(1, 2) else -1)])
    for f in factors:
        p = p * f
    return p


def _csv(p: Poly) -> str:
    return ",".join(map(str, p.coeffs))


def _isolation_lines(rng: SplitMix64) -> list[str]:
    lines = []
    for _ in range(ROOT_POLYS):
        p = _product(rng, _root_factors(rng, 4))
        lines.append(f"isolate {_csv(p)}")
        for width in (Fraction(1, 8), Fraction(1, 1024)):
            ivs = isolate_roots(p, width)
            lines.append(f"  {width}: " + "; ".join(f"{iv.lo} {iv.hi} x{iv.multiplicity}" for iv in ivs))
    return lines


def _interlacing_pair(rng: SplitMix64) -> tuple[Poly, Poly]:
    """(b, a): b = a' and b = a' + t a interlace a; otherwise b is a with one
    factor dropped and perhaps one drawn in its place."""
    factors = _root_factors(rng, 3)
    a = _product(rng, factors)
    kind = rng.randint(0, 4)
    if kind == 0:
        return derivative(a), a
    if kind == 1:
        return derivative(a) + Poly([Fraction(rng.randint(-5, 5), rng.randint(1, 3))]) * a, a
    del factors[rng.randint(0, len(factors) - 1)]
    if kind > 2:
        factors += _root_factors(rng, 1)[:1]
    return _product(rng, factors), a


def _check_lines(rng: SplitMix64) -> list[str]:
    lines = []
    for _ in range(ROOT_PAIRS):
        b, a = _interlacing_pair(rng)
        argv = ["check", "interlacing", "--b", _csv(b), "--a", _csv(a)]
        lines.append(f"check --b {_csv(b)} --a {_csv(a)}")
        for extra in ([], ["--json"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv + extra)
            lines.append(f"  [{code}] {out.getvalue().rstrip()}")
    return lines


def test_root_isolation_and_interlacing_match_golden_file():
    rng = SplitMix64(1)
    lines = _isolation_lines(rng.derive(1)) + _check_lines(rng.derive(2))
    assert "\n".join(lines) + "\n" == ROOTS.read_text(encoding="utf-8")
