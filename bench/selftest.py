"""Self-test of the benchmark's output checks: each check must accept a
correct output and reject deliberately wrong ones.

    python3 bench/selftest.py            # every workload's checks
    python3 bench/selftest.py reeve      # one workload's checks

Exits 1 and names the check when a wrong output is accepted or a correct
one rejected.  ``run.py`` runs the checks of its workload before timing.
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from hadpoly.ehrhart import product_f  # noqa: E402
from hadpoly.generators import TrialConfig  # noqa: E402
from hadpoly.harness import SUITES, TrialFailure, verify_reeve  # noqa: E402
from hadpoly.operators import f_from_h, h_from_f, hadamard  # noqa: E402
from hadpoly.poly import Poly, TaggedPoly  # noqa: E402


def _bump(p: Poly, i: int) -> Poly:
    """p with coefficient i raised by one."""
    coeffs = [p.coefficient(j) for j in range(max(len(p.coeffs), i + 1))]
    coeffs[i] += 1
    return Poly(coeffs)


def _cases_suites():
    seed = 5
    good = SUITES["gamma-implies-ulc"](TrialConfig(seed=seed, trials=1))

    def check(result):
        return workloads.check_suite_result(result, "gamma-implies-ulc", seed)

    yield "suite result", check, good, True
    yield "suite not ok", check, dataclasses.replace(good, ok=False), False
    failure = TrialFailure(0, "conclusion", "injected")
    yield "suite failure", check, dataclasses.replace(good, failures=(failure,)), False
    yield "suite trials_run", check, dataclasses.replace(good, trials_run=0), False
    yield "suite name", check, dataclasses.replace(good, suite="wagner"), False
    params = tuple((k, seed + 1 if k == "seed" else v) for k, v in good.params)
    yield "suite seed", check, dataclasses.replace(good, params=params), False


def _cases_products():
    a = [Fraction(3, 2), Fraction(0), Fraction(5), Fraction(1, 7)]
    b = [Fraction(2), Fraction(1, 3), Fraction(4)]
    out = hadamard(TaggedPoly(Poly(a), 3), TaggedPoly(Poly(b), 2))

    def check(product):
        return workloads.check_product(product, a, 3, b, 2)

    yield "product", check, out, True
    for i in (0, 2, 5):
        yield f"product coefficient {i} + 1", check, TaggedPoly(_bump(out.poly, i), 5), False
    yield "product tag + 1", check, TaggedPoly(out.poly, 6), False


def _cases_reeve():
    good = verify_reeve(2)

    def check(result):
        return workloads.check_reeve_result(result, 2)

    yield "reeve result", check, good, True
    yield "reeve not ok", check, dataclasses.replace(good, ok=False), False
    yield "reeve trials_run", check, dataclasses.replace(good, trials_run=1), False
    yield "reeve k-max", check, dataclasses.replace(good, params=(("k-max", 3),)), False

    f2 = product_f(2)
    for i in range(3):
        yield f"reeve low coefficient {i} + 1", (
            lambda f: workloads.check_reeve_power(f, 2)
        ), _bump(f2, i), False
    yield "reeve power", lambda f: workloads.check_reeve_power(f, 2), f2, True

    h2 = h_from_f(f2, 6)
    yield "reeve numerator", lambda h: workloads.check_reeve_numerator(h, f2, 2), h2, True
    yield "reeve numerator + 1", (
        lambda h: workloads.check_reeve_numerator(h, f2, 2)
    ), _bump(h2, 1), False
    # a real-rooted numerator with its own f-polynomial: sympy must see it
    rooted = Poly([6, 11, 6, 1])  # (x + 1)(x + 2)(x + 3)
    yield "reeve real-rooted numerator", (
        lambda h: workloads.check_reeve_numerator(h, f_from_h(h, 3), 1)
    ), rooted, False


CASES = {"suites": _cases_suites, "products": _cases_products, "reeve": _cases_reeve}


def selftest(workload: str) -> list[str]:
    """Returns a line for each check that judged an output the wrong way."""
    problems = []
    for name, check, output, correct in CASES[workload]():
        verdict = check(output)
        if correct and verdict is not None:
            problems.append(f"{workload}: {name}: a correct output was rejected: {verdict}")
        if not correct and verdict is None:
            problems.append(f"{workload}: {name}: a wrong output was accepted")
    return problems


def main(argv: list[str]) -> int:
    chosen = argv or list(CASES)
    unknown = [w for w in chosen if w not in CASES]
    if unknown:
        print(f"unknown workload: {', '.join(unknown)}", file=sys.stderr)
        return 2
    problems = [p for w in chosen for p in selftest(w)]
    for line in problems:
        print(line)
    print(f"selftest: {len(problems)} problem(s) in {', '.join(chosen)}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
