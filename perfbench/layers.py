"""Per-layer metrics and the layer-coverage self-check of a traced run.

The layers are the ``repro`` modules whose entry points ``tracing.py``
wraps.  ``LAYER_METRICS`` lists every per-layer metric with its unit,
in the order ``BENCHMARK.json`` declares them.  ``COVERAGE`` states,
for each workload, which layers must do most of the timed phase's work
and which must do almost none; a traced run fails its check when the
measured shares disagree, so the choice of workloads is verified on
every traced run rather than assumed.
"""

from __future__ import annotations

import gc
from collections import defaultdict
from time import process_time

from tracing import Tracer

LAYER_METRICS = (
    ("simulator.self_s", "s"),
    ("simulator.calls", "count"),
    ("simulator.tasks", "count"),
    ("simulator.us_per_task", "us"),
    ("workloads.build_tasks_s", "s"),
    ("schedule.mix_self_s", "s"),
    ("schedule.mix_calls", "count"),
    ("core.profile_s", "s"),
    ("core.profile_calls", "count"),
    ("core.predict_s", "s"),
    ("core.predict_calls", "count"),
    ("model.kernel_s", "s"),
    ("model.kernel_calls", "count"),
    ("model.kernel_candidates", "count"),
    ("model.batch_width", "count"),
    ("model.batch_build_s", "s"),
    ("cloud.search_self_s", "s"),
    ("cloud.disk_tables_s", "s"),
    ("cloud.disk_tables_calls", "count"),
    ("pipeline.cache_save_s", "s"),
    ("pipeline.cache_save_calls", "count"),
    ("pipeline.cache_bytes", "B"),
    ("pipeline.cache_hits", "count"),
    ("pipeline.cache_misses", "count"),
    ("pipeline.fingerprint_s", "s"),
    ("pipeline.fingerprint_calls", "count"),
    ("parallel.supervise_s", "s"),
    ("parallel.items", "count"),
    ("parallel.retries", "count"),
    ("service.parse_s", "s"),
    ("service.lru_hit_share", "ratio"),
    ("service.coalesced_share", "ratio"),
    ("service.tier2_hits", "count"),
    ("service.batches", "count"),
    ("service.batch_width", "count"),
    ("service.batch_wait_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.sim_rejected", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("trace.overhead", "ratio"),
)

#: Layer -> the span names whose self time it owns.
LAYER_SPANS = {
    "simulator": ("simulator", "workloads.build_tasks"),
    "schedule": ("schedule.mix",),
    "core": ("core.profile", "core.predict"),
    "model": ("model.kernel", "model.batch_build"),
    "cloud": ("cloud.search", "cloud.disk_tables"),
    "pipeline": ("pipeline.cache_save", "pipeline.fingerprint"),
    "parallel": ("parallel.supervise",),
    "service": ("service.parse",),
}

#: Per workload: ``mainly`` maps a layer to the least share of the timed
#: wall its self time must take; ``none`` maps a layer to the most it
#: may take, where 0 means no span at all.
COVERAGE = {
    "sweep": {
        "mainly": {"simulator": 0.5},
        "none": {"model": 0.01, "cloud": 0.01, "schedule": 0, "service": 0},
    },
    "tenants": {
        "mainly": {"schedule": 0.3, "simulator": 0.1},
        "none": {"model": 0.01, "cloud": 0.01, "service": 0},
    },
    "search": {
        "mainly": {"cloud": 0.2, "model": 0.1},
        "none": {"simulator": 0, "schedule": 0, "core": 0, "service": 0,
                 "pipeline": 0.02},
    },
    "serve": {
        "mainly": {"model": 0.005, "service": 0.002},
        "none": {"schedule": 0, "core": 0.01, "simulator": 0.1},
    },
}


def cpu_per_op(make, seconds: float, tracer: Tracer | None = None):
    """Set up and measure once; returns (workload, outcome, CPU s per request)."""
    workload = make()
    if tracer is not None:
        tracer.phase = "setup"
    workload.setup()
    if tracer is not None:
        tracer.phase = "timed"
    gc.collect()
    cpu = process_time()
    outcome = workload.run(seconds)
    cpu = process_time() - cpu
    if tracer is not None:
        tracer.phase = "check"
    return workload, outcome, cpu / max(1, outcome.attempted)


def traced_run(make, name: str, seed: int, seconds: float, workdir) -> dict:
    """A traced set-up and pass between two untraced ones; per-layer metrics.

    The untraced passes before and after the traced one cancel the
    drift between a process's first and later passes out of
    ``trace.overhead``.  They measure for half of ``seconds`` each,
    which keeps a traced run within about twice a timed one.
    """
    failures = []

    def untraced_cpu() -> float:
        workload, outcome, cpu = cpu_per_op(make, seconds / 2)
        try:
            failures.extend(workload.check(outcome))
        finally:
            workload.close()
        return cpu

    before = untraced_cpu()
    tracer = Tracer()
    tracer.install()
    try:
        traced, outcome, traced_cpu = cpu_per_op(make, seconds, tracer)
    finally:
        tracer.uninstall()
    try:
        failures += traced.check(outcome)
    finally:
        traced.close()
    after = untraced_cpu()
    metrics = layer_metrics(
        tracer,
        getattr(traced, "stats", None),
        getattr(traced, "lag_p99_ms", 0.0),
        2 * traced_cpu / (before + after),
    )
    shares = timed_shares(tracer, outcome.wall)
    failures += coverage_failures(name, tracer, shares)
    trace_path = workdir / f"trace-{name}-{seed}.json"
    tracer.write_chrome_trace(str(trace_path))
    lines = list(outcome.notes) + [
        f"share of timed wall, {layer}: {share:.4f}"
        for layer, share in shares.items()
    ] + [
        f"{metric} = {value:.6g} {unit}" for metric, (value, unit) in metrics.items()
    ] + [f"{len(tracer.spans)} spans written to {trace_path.name}"]
    return {
        "metrics": metrics, "lines": lines, "failures": failures,
        "attempted": outcome.attempted, "failed": outcome.failed,
    }


def _totals(tracer: Tracer, phases=("setup", "timed")):
    """Per span name: calls, inclusive s, self s and summed attributes."""
    self_times = tracer.self_times()
    calls = defaultdict(int)
    inclusive = defaultdict(float)
    own = defaultdict(float)
    attrs = defaultdict(lambda: defaultdict(float))
    for span in tracer.spans:
        if span.phase not in phases:
            continue
        calls[span.name] += 1
        inclusive[span.name] += span.duration
        own[span.name] += self_times[span.sid]
        for key, value in span.attrs.items():
            attrs[span.name][key] += value
    return calls, inclusive, own, attrs


def _mean_ms(values: list[float]) -> float:
    return 1e3 * sum(values) / len(values) if values else 0.0


def layer_metrics(tracer: Tracer, stats, lag_p99_ms: float,
                  overhead: float) -> dict:
    calls, inclusive, own, attrs = _totals(tracer)
    tasks = attrs["simulator"]["n"]
    candidates = attrs["model.kernel"]["n"]
    queries = stats["queries"] if stats else 0
    batches = stats["batches"]["flushed"] if stats else 0
    values = {
        "simulator.self_s": own["simulator"],
        "simulator.calls": calls["simulator"],
        "simulator.tasks": tasks,
        "simulator.us_per_task": 1e6 * own["simulator"] / tasks if tasks else 0.0,
        "workloads.build_tasks_s": inclusive["workloads.build_tasks"],
        "schedule.mix_self_s": own["schedule.mix"],
        "schedule.mix_calls": calls["schedule.mix"],
        "core.profile_s": inclusive["core.profile"],
        "core.profile_calls": calls["core.profile"],
        "core.predict_s": inclusive["core.predict"],
        "core.predict_calls": calls["core.predict"],
        "model.kernel_s": own["model.kernel"],
        "model.kernel_calls": calls["model.kernel"],
        "model.kernel_candidates": candidates,
        "model.batch_width": (
            candidates / calls["model.kernel"] if calls["model.kernel"] else 0.0
        ),
        "model.batch_build_s": inclusive["model.batch_build"],
        "cloud.search_self_s": own["cloud.search"],
        "cloud.disk_tables_s": inclusive["cloud.disk_tables"],
        "cloud.disk_tables_calls": calls["cloud.disk_tables"],
        "pipeline.cache_save_s": inclusive["pipeline.cache_save"],
        "pipeline.cache_save_calls": calls["pipeline.cache_save"],
        "pipeline.cache_bytes": attrs["pipeline.cache_save"]["bytes"],
        "pipeline.cache_hits": tracer.cache_hits,
        "pipeline.cache_misses": tracer.cache_misses,
        "pipeline.fingerprint_s": own["pipeline.fingerprint"],
        "pipeline.fingerprint_calls": calls["pipeline.fingerprint"],
        "parallel.supervise_s": inclusive["parallel.supervise"],
        "parallel.items": attrs["parallel.supervise"]["n"],
        "parallel.retries": attrs["parallel.supervise"]["retries"],
        "service.parse_s": inclusive["service.parse"],
        "service.lru_hit_share": (
            stats["lru"]["hits"] / queries if queries else 0.0
        ),
        "service.coalesced_share": (
            stats["coalesced"] / queries if queries else 0.0
        ),
        "service.tier2_hits": stats["tier2_hits"] if stats else 0,
        "service.batches": batches,
        "service.batch_width": (
            stats["batches"]["entries"] / batches if batches else 0.0
        ),
        "service.batch_wait_ms": _mean_ms(tracer.batch_waits),
        "service.queue_wait_ms": _mean_ms(tracer.queue_waits),
        "service.sim_rejected": stats["sim"]["rejected"] if stats else 0,
        "loadgen.lag_p99_ms": lag_p99_ms,
        "trace.overhead": overhead,
    }
    return {name: (values[name], unit) for name, unit in LAYER_METRICS}


def timed_shares(tracer: Tracer, wall: float) -> dict[str, float]:
    """Each layer's self time in the timed phase over the timed wall."""
    _, _, own, _ = _totals(tracer, phases=("timed",))
    return {
        layer: sum(own[span] for span in spans) / wall
        for layer, spans in LAYER_SPANS.items()
    }


def coverage_failures(name: str, tracer: Tracer, shares: dict) -> list[str]:
    calls, _, _, _ = _totals(tracer, phases=("timed",))
    expected = COVERAGE[name]
    failures = []
    for layer, least in expected["mainly"].items():
        if not shares[layer] >= least:
            failures.append(
                f"coverage: {name} should mainly exercise {layer}, but its"
                f" share of the timed wall is {shares[layer]:.4f} < {least}"
            )
    for layer, most in expected["none"].items():
        spans = sum(calls[span] for span in LAYER_SPANS[layer])
        if (most == 0 and spans) or shares[layer] > most:
            failures.append(
                f"coverage: {name} should leave {layer} nearly idle, but it"
                f" has {spans} spans and {shares[layer]:.4f} of the timed wall"
            )
    return failures
