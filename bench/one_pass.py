"""One pass over a workload's items, in a fresh interpreter.

    python3 bench/one_pass.py --workload suites --seed 1 --trace 0

Prints one JSON object.  Each item starts from a collected heap and runs
between two reference slices, while a timer also samples the reference
inside it (see ``Sampler``).  Its time in reference units is its seconds,
less the timer's, divided by the mean of the unit samples from the slice
before it to the slice after it.  The output is checked after that slice
and dropped, so no output outlives its check.  With ``--trace 1`` the
program's public functions are wrapped first (see ``tracer.py``) and each
item's layer self times are returned as well.
"""

from __future__ import annotations

import argparse
import gc
import json
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402  (the benchmark's own directory is on sys.path)
import tracer  # noqa: E402
import workloads  # noqa: E402

#: seconds between two reference samples taken by the timer
SAMPLE_INTERVAL_S = 0.02


def peak_rss_mb() -> float:
    """This process's peak resident set since it started its program.

    ``VmHWM`` is reset by exec; ``ru_maxrss`` is not, and would report the
    parent's footprint when the parent was larger.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


class Sampler:
    """Runs one reference unit on a wall-clock timer, inside the items too.

    Host speed on a shared machine wanders on every time scale, so slices
    taken only between long items miss most of it.  Every ``interval``
    seconds SIGALRM runs one unit of the reference computation between two
    bytecodes of whatever is running; its duration is recorded as a sample
    and later taken off the time of the item it interrupted.
    """

    def __init__(self, unit, interval: float, trace: "tracer.Tracer | None"):
        self.samples: list[float] = []
        self._unit = unit
        self.spent = 0.0
        self._interval = interval
        self._trace = trace

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self._unit()
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        self.spent += seconds
        if self._trace is not None:
            self._trace.discount(seconds)

    def slice(self) -> None:
        """One unit run between items, recorded like a timer sample."""
        interrupted = self.spent
        start = time.perf_counter()
        self._unit()
        seconds = time.perf_counter() - start - (self.spent - interrupted)
        self.samples.append(seconds)

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self._interval, self._interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    items = workloads.build(workload, seed)
    trace = tracer.Tracer() if traced else None
    if trace is not None:
        trace.install()
    unit_fn = reference.UNITS[workload]
    unit_fn()  # warm the reference code
    # Everything alive now (modules, the item list) moves out of the
    # collector's reach: the per-item gc.collect() then costs what the
    # item's own garbage costs, and automatic collections inside an item
    # do not scan the benchmark's 1800-item list.
    gc.collect()
    gc.freeze()
    failed, wrong, records = [], [], []
    item_s = pass_ref = 0.0
    layers_before: dict[str, float] = {}
    with Sampler(unit_fn, SAMPLE_INTERVAL_S, trace) as sampler:
        sampler.slice()
        for item in items:
            first = len(sampler.samples) - 1  # the slice right before
            gc.collect()
            spent = sampler.spent
            start = time.perf_counter()
            try:
                out = item.run()
            except Exception:  # an item that raises is a failed operation, not a crash
                out = None
                failed.append(f"{item.label}: {traceback.format_exc(limit=-1).strip()}")
            wall = time.perf_counter() - start
            seconds = wall - (sampler.spent - spent)
            sampler.slice()
            window = sampler.samples[first:]
            unit = sum(window) / len(window)
            item_s += seconds
            pass_ref += seconds / unit
            if out is not None:
                problem = item.check(out)
                if problem is not None:
                    wrong.append(f"{item.label}: {problem}")
                del out
            if trace is not None:
                trace.charge_item(wall)
                now = dict(trace.self_s)
                spent_by = {k: v - layers_before.get(k, 0.0) for k, v in now.items()}
                records.append({"item": item.label, "seconds": seconds, "unit_s": unit, "self_s": spent_by})
                layers_before = now
        ref_s = sum(sampler.samples)
        samples = len(sampler.samples)
    result = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "items": len(items),
        "failed": failed,
        "wrong": wrong,
        "item_s": item_s,
        "ref_s": ref_s,
        "ref_samples": samples,
        "unit_s": ref_s / samples,
        "pass_ref": pass_ref,
        "peak_rss_mb": peak_rss_mb(),
    }
    if trace is not None:
        result["trace"] = trace.snapshot()
        result["trace"]["items"] = records
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    import hadpoly

    if Path(hadpoly.__file__).resolve().parent != ROOT / "src" / "hadpoly":
        print(f"hadpoly was imported from {hadpoly.__file__}, not from the source tree", file=sys.stderr)
        return 2
    print(json.dumps(run_pass(args.workload, args.seed, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
