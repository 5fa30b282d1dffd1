"""Run one benchmark workload and print its metrics as a JSON last line.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` sets the workload up ``SETUP_REPEATS`` times, measures it
for ``--seconds`` and prints the end-to-end metrics.  ``--trace 1``
sets up and measures it three times, the middle time (for
``--seconds``, between two half-length untraced passes) with the span
wrappers of ``tracing.py`` installed, and prints the per-layer metrics,
including the tracing overhead; it also writes a Chrome trace to
``.perfbench_out/``.  Either way the outputs are
checked after the timed phase, and ``correct`` is false on any
mismatch.  See ``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-ups per timed run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Calibration kernel samples taken before and after each set-up.
SETUP_CAL = 5


def end_to_end(outcome, setups: list[float]) -> dict:
    from workloads import percentile

    return {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "work_per_s": (outcome.rate, "1/s"),
        "request_p50_ms": (1e3 * statistics.median(outcome.latencies), "ms"),
        "request_p99_ms": (
            1e3 * percentile(outcome.tail or outcome.latencies, 0.99), "ms"
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    from specs import DEFAULT_SEED
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r};"
                     f" choose from {sorted(WORKLOADS)}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    workdir = ROOT / ".perfbench_out"
    workdir.mkdir(exist_ok=True)
    make = functools.partial(WORKLOADS[args.workload], seed, ROOT, workdir)

    if args.trace:
        from layers import traced_run

        report = traced_run(make, args.workload, seed, args.seconds, workdir)
    else:
        report = timed_run(make, args.seconds)
    for line in report["lines"]:
        print(line)
    for failure in report["failures"]:
        print(f"CHECK FAILED: {failure}")
    summary = {
        "workload": args.workload, "seed": seed, "trace": args.trace,
        "claim": None, "notes": report["lines"], "failures": report["failures"],
    }
    (workdir / f"summary-{args.workload}-{seed}-{args.trace}.json").write_text(
        json.dumps(summary, indent=2)
    )
    print(json.dumps({
        "correct": not report["failures"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in report["metrics"].items()
        },
    }))
    return 0 if not report["failures"] else 1


def timed_run(make, seconds: float) -> dict:
    """Set up ``SETUP_REPEATS`` times, then measure the last set-up.

    Each set-up time is scaled to the reference speed by the kernel
    timings taken just before and after it (``calibrate.py``).
    """
    from calibrate import Calibration

    setups = []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        workload = make()
        calibration = Calibration()
        calibration.sample(SETUP_CAL)
        start = perf_counter()
        workload.setup()
        elapsed = perf_counter() - start
        calibration.sample(SETUP_CAL)
        setups.append(elapsed * calibration.factor())
    try:
        gc.collect()
        outcome = workload.run(seconds)
        failures = workload.check(outcome)
    finally:
        workload.close()
    metrics = end_to_end(outcome, setups)
    lines = list(outcome.notes) + [
        f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()
    ] + [
        f"latencies: {len(outcome.latencies)}, work items attempted:"
        f" {outcome.attempted}, failed: {outcome.failed}, over"
        f" {outcome.wall:.2f} s",
        f"host speed factor (timings scaled by it, see calibrate.py):"
        f" {outcome.speed:.4f}",
    ]
    return {
        "metrics": metrics, "lines": lines, "failures": failures,
        "attempted": outcome.attempted, "failed": outcome.failed,
    }


if __name__ == "__main__":
    sys.exit(main())
