"""Benchmark hadpoly's verification suites, Hadamard products and Reeve checks.

    python3 bench/run.py --workload suites --seed 1 --seconds 10 --trace 0

Runs from a source checkout (``src/hadpoly``); nothing needs installing.
With ``--trace 0`` it reports the end-to-end metrics:

* ``setup_s``: median time of ``import hadpoly, hadpoly.cli`` over several
  fresh interpreters, which every CLI call pays;
* ``pass_ref``: median time of one pass over the workload's items, in
  reference units (see ``reference.py``), each pass in a fresh interpreter;
* ``peak_rss_mb``: median peak resident set of the pass processes.

Passes are started until ``--seconds`` have gone by, and at least one runs.
With ``--trace 1`` it runs one plain and one traced pass and reports the
per-layer metrics instead.  The last line of standard output is one JSON
object; human-readable lines come before it, and the full record goes to
``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: fresh interpreters timed for setup_s before the passes and again after them,
#: so that the median spans the run rather than one moment of host speed
SETUP_STARTS = 8
#: child processes must end this many seconds after the start, which leaves
#: room for the Reeve oracle (about 10 s) within a 180 s run
RUN_LIMIT_S = 150

_IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, {src!r})\n"
    "start = time.perf_counter()\n"
    "import hadpoly, hadpoly.cli\n"
    "print(time.perf_counter() - start)\n"
)

#: per-layer call counts: metric name -> key of tracer.Tracer.calls
CALL_METRICS = {
    "poly.mul.calls": "poly:Poly.__mul__",
    "poly.divmod.calls": "poly:Poly.__divmod__",
    "poly.gcd.calls": "poly:gcd",
    "roots.square_free_part.calls": "roots:square_free_part",
    "roots.sturm_chain.calls": "roots:sturm_chain",
    "roots.yun_decomposition.calls": "roots:yun_decomposition",
    "analysis.is_real_rooted.calls": "analysis:is_real_rooted",
    "analysis.interlaces.calls": "analysis:interlaces",
    "operators.hadamard.calls": "operators:hadamard",
    "operators.w_inverse.calls": "operators:w_inverse",
    "operators.diamond.calls": "operators:diamond",
    "decomp.i_decompose.calls": "decomp:i_decompose",
    "ehrhart.product_f.calls": "ehrhart:product_f",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"the run passed its limit of {RUN_LIMIT_S} s")
    return left


def _child(args: list[str], deadline: float) -> str:
    """Run a fresh interpreter to completion and return its standard output."""
    try:
        done = subprocess.run(
            [sys.executable, *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=_remaining(deadline),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a child process passed the run's time limit: {args[:2]}") from exc
    if done.returncode != 0:
        raise BenchError(f"child {args[:2]} exited {done.returncode}:\n{done.stderr.strip()}")
    return done.stdout


def measure_setup(deadline: float) -> list[float]:
    """Import times of SETUP_STARTS fresh interpreters."""
    code = _IMPORT_TIMER.format(src=str(SRC))
    return [float(_child(["-c", code], deadline).split()[-1]) for _ in range(SETUP_STARTS)]


def run_pass(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    out = _child(
        [str(BENCH / "one_pass.py"), "--workload", workload, "--seed", str(seed),
         "--trace", str(int(traced))],
        deadline,
    )
    return json.loads(out.splitlines()[-1])


def source_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "hadpoly").rglob("*.py")))


def layer_metrics(plain: dict, traced: dict) -> dict:
    """The per-layer metrics of a traced pass; ``plain`` is the untraced one."""
    import tracer

    trace = traced["trace"]
    calls = trace["calls"]
    metrics = {name: (calls.get(key, 0), "count") for name, key in CALL_METRICS.items()}
    real_rooted = calls.get("analysis:is_real_rooted", 0)
    sqf = calls.get("roots:square_free_part", 0)
    metrics["roots.sqf_per_real_rooted"] = (sqf / real_rooted if real_rooted else 0.0, "ratio")
    draws, attempts = trace["draws"], trace["attempts"]
    metrics["generators.draws"] = (draws, "count")
    metrics["generators.attempts"] = (attempts, "count")
    metrics["generators.accept_ratio"] = (draws / attempts if attempts else 0.0, "ratio")
    total_s = sum(item["seconds"] for item in trace["items"])
    for layer in tracer.LAYERS:
        self_s = sum(item["self_s"].get(layer, 0.0) for item in trace["items"])
        self_ref = sum(item["self_s"].get(layer, 0.0) / item["unit_s"] for item in trace["items"])
        metrics[f"{layer}.self_ref"] = (self_ref, "ref")
        metrics[f"{layer}.share"] = (self_s / total_s, "ratio")
    metrics["trace.overhead_ref"] = (traced["pass_ref"] - plain["pass_ref"], "ref")
    return metrics


def _describe(p: dict) -> str:
    kind = "traced pass" if p["traced"] else "pass"
    return (
        f"{kind}: items {p['items']} failed {len(p['failed'])} wrong {len(p['wrong'])}"
        f" | raw {p['item_s']:.3f} s | reference {p['ref_s']:.3f} s over"
        f" {p['ref_samples']} units ({p['unit_s'] * 1e3:.4f} ms per unit)"
        f" | pass_ref {p['pass_ref']:.1f} | peak_rss {p['peak_rss_mb']:.2f} MB"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("suites", "products", "reeve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    if not (SRC / "hadpoly" / "__init__.py").is_file():
        print(f"no hadpoly sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import selftest
    import workloads

    record: dict = {"args": vars(args), "python": platform.python_version(),
                    "nproc": os.cpu_count(), "src_lines": source_lines()}
    try:
        print(
            f"bench: workload={args.workload} seed={args.seed} seconds={args.seconds:g}"
            f" trace={args.trace} | python {record['python']} | nproc {record['nproc']}"
            f" | src/hadpoly lines {record['src_lines']}"
        )
        problems = selftest.selftest(args.workload)
        if problems:
            raise BenchError("the output checks failed their self-test:\n" + "\n".join(problems))
        print(f"selftest: every {args.workload} check rejected its wrong outputs")
        if args.trace:
            passes = [run_pass(args.workload, args.seed, traced, deadline) for traced in (False, True)]
        else:
            # the first start writes the bytecode cache that an installed package has
            _child(["-c", _IMPORT_TIMER.format(src=str(SRC))], deadline)
            setup = measure_setup(deadline)
            timed = time.monotonic()
            passes = []
            while not passes or time.monotonic() - timed < args.seconds:
                passes.append(run_pass(args.workload, args.seed, False, deadline))
            setup += measure_setup(deadline)
            record["setup_s"] = setup
            print(f"setup: import hadpoly, hadpoly.cli: median {statistics.median(setup):.4f} s"
                  f" over {len(setup)} starts (min {min(setup):.4f}, max {max(setup):.4f})")
        for p in passes:
            print(_describe(p))
        oracle = workloads.reeve_oracle() if args.workload == "reeve" else []
        if args.workload == "reeve":
            print(f"reeve oracle (closed form, f1^2 < f0 f2, sympy count_roots): {len(oracle)} problem(s)")
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    wrong = [w for p in passes for w in p["wrong"]] + oracle
    failed = [f for p in passes for f in p["failed"]]
    for line in (wrong + failed)[:20]:
        print(f"  {line}")
    if args.trace:
        metrics = layer_metrics(*passes)
    else:
        metrics = {
            "setup_s": (statistics.median(record["setup_s"]), "s"),
            "pass_ref": (statistics.median(p["pass_ref"] for p in passes), "ref"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        }
        raw = statistics.median(p["item_s"] for p in passes)
        print(f"raw pass seconds (not bounded): median {raw:.3f} s over {len(passes)} pass(es)")
    result = {
        "correct": not wrong,
        "attempted": sum(p["items"] for p in passes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    for p in passes:
        trace = p.pop("trace", None)
        if trace is not None:
            (OUT / f"{stem}.trace.json").write_text(json.dumps(trace, indent=1))
    record.update(passes=passes, oracle=oracle, result=result,
                  elapsed_s=time.monotonic() - started)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
