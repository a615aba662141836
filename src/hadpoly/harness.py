"""Verification suites: seeded random trials for each preservation statement.

Each suite draws instances satisfying a statement's hypothesis, validates
the hypothesis with the exact checker (no vacuous passes), applies the
operator pipeline, and asserts the conclusion.  The statements exercised
here are proved, so any failure is reported as an implementation bug; the
only suite that *expects* pathological behavior is ``reeve``, which confirms
the counterexample family, and the log-concavity pair scan, which hunts for
counterexamples to an open question and reports finds as results.

A suite is one row of ``SUITES``: a name, a derivation key and a trial
``trial(rng, config)`` returning ``None`` or a failed ``(stage, detail)``.
One runner, ``_run``, loops over the trials and builds the ``SuiteResult``.
The scan is a row run the same way whose conclusion failures become
findings.  ``_pair_trial`` builds the seven suites and the scan of one
shape: each factor passes its check, so their product passes the second's.

Trials are independent: trial i uses a generator derived from
(seed, suite key, i), so reports are byte-identical for identical configs
and each trial can be reproduced in isolation.  A key is never reordered or
reused: changing one changes every report of that suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .analysis import (
    gamma_contract,
    has_internal_zeros,
    is_gamma_positive,
    is_log_concave,
    is_real_rooted,
    is_ulc,
    symmetry_certificate,
)
from .decomp import (
    SymDecomp,
    decomposition_is_gamma_positive,
    decomposition_is_interlacing,
    decomposition_is_nonnegative,
    i_decompose,
)
from .ehrhart import counterexample_report
from .generators import (
    TrialConfig,
    gen_contiguous_nonneg,
    gen_gamma_positive_symdec,
    gen_interlacing_symdec,
    gen_logconcave,
    gen_nonneg_symdec,
    gen_real_rooted,
    gen_symmetric,
    gen_ulc,
)
from .operators import hadamard
from .poly import TaggedPoly
from .rng import SplitMix64


@dataclass(frozen=True)
class TrialFailure:
    trial: int
    stage: str  # "hypothesis" or "conclusion"
    detail: str


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    params: tuple[tuple[str, int], ...]
    trials_run: int
    failures: tuple[TrialFailure, ...]
    ok: bool
    summary: str
    findings: tuple[str, ...] = field(default=())

    def render(self) -> str:
        lines = [f"suite: {self.suite}"]
        lines.append("  ".join(f"{k}={v}" for k, v in self.params))
        lines.append(f"trials run: {self.trials_run}")
        lines.append(f"failures: {len(self.failures)}")
        for f in self.failures:
            lines.append(f"  trial {f.trial} [{f.stage}]: {f.detail}")
        for note in self.findings:
            lines.append(f"  finding: {note}")
        lines.append(("PASS: " if self.ok else "FAIL: ") + self.summary)
        return "\n".join(lines)


def _run(name: str, key: int, trial, config: TrialConfig) -> SuiteResult:
    """Run ``trial`` for i in ``range(config.trials)`` on the stream (seed, key, i),
    recording each failed trial."""
    failures: list[TrialFailure] = []
    for i in range(config.trials):
        rng = SplitMix64(config.seed).derive(key, i)
        failure = trial(rng, config)
        if failure is not None:
            failures.append(TrialFailure(i, *failure))
    if failures:
        summary = "a proved statement was violated; this indicates a bug in this package"
    else:
        summary = "conclusion held in every trial"
    return SuiteResult(
        suite=name,
        params=(
            ("seed", config.seed),
            ("trials", config.trials),
            ("max-degree", config.max_degree),
            ("max-coefficient", config.max_coefficient),
        ),
        trials_run=config.trials,
        failures=tuple(failures),
        ok=not failures,
        summary=summary,
    )


def _suite(name: str, key: int, trial):
    """The ``SUITES`` entry of one row."""
    return lambda config: _run(name, key, trial, config)


def _pair_trial(factors, product_msg: str):
    """A trial of "each factor passes its check, so their Hadamard product
    passes the second factor's check".

    ``factors`` holds two ``(draw, check, msg)``.  Each factor is
    ``draw(rng, d, max_coefficient)`` with ``d`` drawn from ``0..max_degree``
    just before it: a ``TaggedPoly``, or a ``SymDecomp`` whose numerator,
    tagged ``d``, is the factor; the product is then checked through its
    I-decomposition.  ``msg`` is formatted with ``which``, ``d``, the draw
    ``x`` and the report ``rep``; ``product_msg`` with ``out``, the factors
    ``a`` and ``b``, and ``rep``.
    """

    def trial(rng, cfg):
        tagged = []
        for which, (draw, check, msg) in enumerate(factors):
            d = rng.randint(0, cfg.max_degree)
            x = draw(rng, d, cfg.max_coefficient)
            rep = check(x)
            if not rep.holds:
                return "hypothesis", msg.format(which=which, d=d, x=x, rep=rep)
            decomposed = isinstance(x, SymDecomp)
            if decomposed:
                x = TaggedPoly(x.reconstruct(), d)
                if x.poly.is_zero:
                    return "hypothesis", f"factor {which} reconstructs to zero"
            tagged.append(x)
        out = hadamard(*tagged)
        # ``check`` is the second factor's
        rep = check(i_decompose(out.poly, out.ref_degree) if decomposed else out)
        if not rep.holds:
            return "conclusion", product_msg.format(out=out, a=tagged[0], b=tagged[1], rep=rep)
        return None

    return trial


def _ulc_at_tag(t):
    return is_ulc(t.poly, t.ref_degree)


def _log_concave_contiguous(t):
    """Log-concave with contiguous support: the failing report (falsy), or the passing one."""
    return is_log_concave(t.poly) and has_internal_zeros(t.poly)


def _gamma_preservation(rng, cfg):
    """Symmetry with matching defect and gamma-positivity are preserved;
    the output defect equals the shared input defect."""
    defect = rng.randint(0, 2)
    tagged, axes = [], []
    for which in range(2):
        s = rng.randint(0, max(0, cfg.max_degree - defect))
        t = gen_symmetric(rng, s, defect, cfg.max_coefficient)
        cert = symmetry_certificate(t.poly, t.ref_degree)
        if cert is None or cert.center_numerator != s or cert.defect != defect:
            return "hypothesis", f"factor {which} lacks axis {s}, defect {defect}"
        if not is_gamma_positive(t.poly, s).holds:
            return "hypothesis", f"factor {which} not gamma-positive at axis {s}"
        tagged.append(t)
        axes.append(s)
    out = hadamard(tagged[0], tagged[1])
    cert = symmetry_certificate(out.poly, out.ref_degree)
    if cert is None:
        return "conclusion", f"product is not symmetric: {out.poly}"
    if cert.defect != defect:
        return "conclusion", f"product defect {cert.defect} differs from input defect {defect}"
    expected_axis = axes[0] + axes[1] + defect
    if cert.center_numerator != expected_axis:
        return "conclusion", f"product axis {cert.center_numerator} != {expected_axis}"
    rep = is_gamma_positive(out.poly, cert.center_numerator)
    if not rep.holds:
        return "conclusion", f"product not gamma-positive: {rep.detail}"
    return None


def _nonneg_and_interlacing(dec):
    rep = decomposition_is_nonnegative(dec)
    if not rep.holds:
        return rep
    return decomposition_is_interlacing(dec)


def _gamma_implies_ulc(rng, cfg):
    """A symmetric polynomial whose gamma polynomial is ultra log-concave of
    order floor(s/2) is itself ultra log-concave of order s."""
    s = rng.randint(0, cfg.max_degree)
    gdeg = rng.randint(0, s // 2)
    gamma = gen_ulc(rng, gdeg, cfg.max_coefficient).poly
    if not is_ulc(gamma, s // 2).holds:
        return "hypothesis", f"gamma polynomial not ULC({s // 2}): {gamma}"
    h = gamma_contract(gamma, s)
    rep = is_ulc(h, s)
    if not rep.holds:
        return "conclusion", f"{h} not ULC({s}): {rep.detail}"
    return None


def _symdec_trial(draw, predicate, name: str):
    return _pair_trial(
        2 * [(draw, predicate, f"factor {{which}} fails {name}: {{rep.detail}}")],
        f"product fails {name}: {{rep.detail}}",
    )


#: name -> runner, one row per suite: (name, stable derivation key, trial);
#: each check looks its checker up when called, so a stub in this module reaches it
SUITES = {
    name: _suite(name, key, trial)
    for name, key, trial in (
        ("wagner", 1, _pair_trial(
            2 * [(gen_real_rooted, lambda t: is_real_rooted(t.poly),
                  "factor {which} not real-rooted: {x.poly}")],
            "{out.poly} is not real-rooted: {rep.detail}",
        )),
        ("ulc-preservation", 2, _pair_trial(
            2 * [(gen_ulc, _ulc_at_tag, "factor {which} not ULC({d}): {x.poly}")],
            "{out.poly} not ULC({out.ref_degree}): {rep.detail}",
        )),
        ("gamma-preservation", 3, _gamma_preservation),
        ("symdec-nonneg", 4, _symdec_trial(
            gen_nonneg_symdec, lambda dec: decomposition_is_nonnegative(dec),
            "nonnegative decomposition",
        )),
        ("symdec-gamma", 5, _symdec_trial(
            gen_gamma_positive_symdec, lambda dec: decomposition_is_gamma_positive(dec),
            "gamma-positive decomposition",
        )),
        ("symdec-interlacing", 6, _symdec_trial(
            gen_interlacing_symdec, _nonneg_and_interlacing,
            "nonnegative interlacing decomposition",
        )),
        ("no-internal-zeros", 7, _pair_trial(
            2 * [(gen_contiguous_nonneg, lambda t: has_internal_zeros(t.poly),
                  "factor {which} has internal zeros")],
            "product has internal zeros: {rep.detail}",
        )),
        ("gamma-implies-ulc", 8, _gamma_implies_ulc),
        ("mixed-logconcave", 9, _pair_trial(
            [
                (gen_ulc, _ulc_at_tag, "first factor not ULC({d})"),
                (gen_logconcave, _log_concave_contiguous,
                 "second factor not log-concave with contiguous support"),
            ],
            "{out.poly} not log-concave with contiguous support: {rep.detail}",
        )),
    )
}

_LOGCONCAVE_PAIR = _pair_trial(
    2 * [(gen_logconcave, _log_concave_contiguous,
          "factor {which} not log-concave with contiguous support: {rep.detail}")],
    "{a} x {b} -> not preserved ({rep.detail})",
)


def scan_logconcave_pair(config: TrialConfig) -> SuiteResult:
    """Search random log-concave pairs for a product that is not log-concave.

    Whether log-concavity with contiguous support is preserved is open; a
    product that fails is a research result, a finding, not a failure.  A
    factor that fails its hypothesis is a failure, as in every suite, and
    the report ends in FAIL.  Its derivation key is 10.
    """
    result = _run("scan-logconcave-pair", 10, _LOGCONCAVE_PAIR, config)
    failures = tuple(f for f in result.failures if f.stage == "hypothesis")
    findings = tuple(
        f"trial {f.trial}: {f.detail}" for f in result.failures if f.stage == "conclusion"
    )
    if failures:
        summary = result.summary
    elif findings:
        summary = f"{len(findings)} counterexample(s) found; see findings above"
    else:
        summary = "no counterexample found; the question stays open"
    return replace(result, failures=failures, ok=not failures, findings=findings, summary=summary)


def verify_reeve(k_max: int = 8) -> SuiteResult:
    """Confirm the counterexample family: no diamond power of the Reeve
    simplex f-polynomial is log-concave, and no numerator is real-rooted."""
    report = counterexample_report(k_max)
    failures = () if report.holds else (TrialFailure(0, "conclusion", report.detail),)
    return SuiteResult(
        suite="reeve",
        params=(("k-max", k_max),),
        trials_run=k_max,
        failures=failures,
        ok=report.holds,
        summary=(
            report.detail
            if report.holds
            else "counterexample not confirmed; this indicates a bug in this package"
        ),
    )
