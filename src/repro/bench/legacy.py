"""The old ``benchmarks/perf_simulator.py`` contract, on the registry.

``collect``/``check``/``main`` keep the monolith's exact semantics —
same snapshot shape, same guard thresholds, same ``--check`` exit
behaviour — so the file in ``benchmarks/`` shrinks to a shim and CI's
``perf_simulator.py --check`` step keeps working unchanged.  The fresh
absolute guards are the sections' own ``guards`` callables (single
source of truth); the baseline comparisons below are the monolith's
snapshot-vs-fresh checks, kept separate from the history gates because
they compare against the *committed* ``BENCH_simulator.json``, not the
trajectory.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.bench.history import write_snapshot
from repro.bench.registry import all_sections
from repro.bench.runner import compose_snapshot
from repro.bench.sections import DEFAULT_ROUNDS, WALL_TOLERANCE

#: Where the monolith kept its snapshot: the repository root.
DEFAULT_OUTPUT = Path(__file__).resolve().parents[3] / "BENCH_simulator.json"


def collect(rounds: int) -> dict:
    """Run every registered section; return the legacy snapshot dict."""
    metrics = {
        section.name: section.run(rounds) for section in all_sections()
    }
    return compose_snapshot(metrics)


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def check(fresh: dict, baseline: dict) -> list[str]:
    """Compare a fresh run against the committed baseline; return failures.

    Fresh guards come from the registered sections; everything else is
    the monolith's baseline comparison logic, verbatim.
    """
    failures: list[str] = []

    # Absolute floors — these hold on every run, baseline or not.
    by_key = {
        section.snapshot_key: section for section in all_sections()
    }
    for key, section in by_key.items():
        metrics = fresh if key is None else fresh.get(key)
        if metrics is not None:
            failures.extend(section.guards(metrics))

    if not _close(
        fresh["simulated_makespan_seconds"],
        baseline["simulated_makespan_seconds"],
    ):
        failures.append(
            "MD-stage makespan changed:"
            f" {fresh['simulated_makespan_seconds']!r} vs baseline"
            f" {baseline['simulated_makespan_seconds']!r}"
        )
    if fresh["wall_seconds_best"] > baseline["wall_seconds_best"] * WALL_TOLERANCE:
        failures.append(
            "MD-stage wall time regressed:"
            f" {fresh['wall_seconds_best']}s vs baseline"
            f" {baseline['wall_seconds_best']}s (tolerance {WALL_TOLERANCE}x)"
        )

    sweep_f, sweep_b = fresh["core_sweep"], baseline.get("core_sweep")
    if sweep_b is not None:
        if not all(
            _close(a, b)
            for a, b in zip(
                sweep_f["total_seconds_per_p"], sweep_b["total_seconds_per_p"]
            )
        ):
            failures.append(
                "core_sweep: simulated totals changed:"
                f" {sweep_f['total_seconds_per_p']} vs"
                f" {sweep_b['total_seconds_per_p']}"
            )
        if sweep_f["cold_wall_seconds"] > (
            sweep_b["cold_wall_seconds"] * WALL_TOLERANCE
        ):
            failures.append(
                "core_sweep: cold wall time regressed:"
                f" {sweep_f['cold_wall_seconds']}s vs baseline"
                f" {sweep_b['cold_wall_seconds']}s (tolerance {WALL_TOLERANCE}x)"
            )

    search_f, search_b = fresh["optimizer_search"], baseline.get(
        "optimizer_search"
    )
    if search_b is not None and "best_runtime_seconds" in search_b:
        if search_f["best_config"] != search_b["best_config"]:
            failures.append(
                "optimizer_search: optimum changed:"
                f" {search_f['best_config']!r} vs baseline"
                f" {search_b['best_config']!r}"
            )
        if not _close(
            search_f["best_cost_dollars"], search_b["best_cost_dollars"],
            rel=1e-6,
        ):
            failures.append(
                "optimizer_search: optimum cost changed:"
                f" {search_f['best_cost_dollars']!r} vs"
                f" {search_b['best_cost_dollars']!r}"
            )
        if not _close(
            search_f["best_runtime_seconds"], search_b["best_runtime_seconds"]
        ):
            failures.append(
                "optimizer_search: predicted optimum runtime changed:"
                f" {search_f['best_runtime_seconds']!r} vs"
                f" {search_b['best_runtime_seconds']!r}"
            )
        if "wall_seconds" in search_b and search_f["wall_seconds"] > (
            search_b["wall_seconds"] * WALL_TOLERANCE
        ):
            failures.append(
                "optimizer_search: wall time regressed:"
                f" {search_f['wall_seconds']}s vs baseline"
                f" {search_b['wall_seconds']}s (tolerance {WALL_TOLERANCE}x)"
            )

    resil, base_r = fresh["resilience"], baseline.get("resilience")
    if base_r is not None:
        for field in (
            "clean_seconds", "clean_speculation_seconds",
            "unmitigated_seconds", "mitigated_seconds",
        ):
            if not _close(resil[field], base_r[field]):
                failures.append(
                    f"resilience: {field} changed:"
                    f" {resil[field]!r} vs baseline {base_r[field]!r}"
                )

    grid = fresh["parallel"]["grid"]
    base_p = baseline.get("parallel")
    if base_p is not None:
        if grid["warm_wall_seconds"] > (
            base_p["grid"]["warm_wall_seconds"] * WALL_TOLERANCE
        ):
            failures.append(
                "parallel: warm grid replay regressed:"
                f" {grid['warm_wall_seconds']}s vs baseline"
                f" {base_p['grid']['warm_wall_seconds']}s"
                f" (tolerance {WALL_TOLERANCE}x) — fingerprint hoisting"
                " or the shard merge slowed composition down"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Micro-benchmark the simulator on paper-scale scenarios"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help="where to write (or read, with --check) the JSON result",
    )
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
    parser.add_argument(
        "--check", action="store_true",
        help="compare a fresh run against the recorded JSON instead of"
             " overwriting it; non-zero exit on regression",
    )
    args = parser.parse_args(argv)

    result = collect(args.rounds)
    if args.check:
        baseline = json.loads(args.output.read_text())
        failures = check(result, baseline)
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}")
            return 1
        vec = result["vectorized"]
        print(
            "perf check OK:"
            f" md {result['wall_seconds_best']}s"
            f" (baseline {baseline['wall_seconds_best']}s),"
            f" sweep cache {result['core_sweep']['cache_speedup']}x,"
            f" search {result['optimizer_search']['wall_seconds']}s,"
            f" {result['parallel']['grid']['workers']}-worker grid"
            f" {result['parallel']['grid']['parallel_speedup']}x"
            f" on {result['parallel']['grid']['usable_cpus']} CPU(s),"
            f" kernel {vec['numpy_cand_per_s']} cand/s,"
            f" {vec['speedup_vs_scalar']}x vs scalar"
        )
        return 0

    write_snapshot(args.output, result)
    print(json.dumps(result, indent=2))
    print(f"[saved to {args.output}]")
    return 0
