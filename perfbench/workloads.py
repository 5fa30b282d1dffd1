"""The benchmark's workloads: set-up, one timed phase, output checks.

Each workload class is built from the run's seed and its working
directory.  ``setup()`` does what every use of the system pays before
its first answer: profiling (the paper's four sample runs per
application) and warming the engine or kernel.  ``run(seconds)``
measures repeated requests for about ``seconds`` and returns an
:class:`Outcome`; ``check(outcome)`` compares the outputs with the
references in ``reference.json`` and with direct library calls, outside
the timed phase, and returns the list of mismatches.
"""

from __future__ import annotations

import asyncio
import bisect
import functools
import hashlib
import json
import math
import os
import random
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time

from calibrate import Calibration
from specs import (
    FAULT_CELL,
    FAULT_PLAN,
    PROFILE_NODES,
    RUN_INDICES,
    SEARCH_WORKLOADS,
    SERVE_WORKLOADS,
    SWEEP_PLACEMENTS,
    SWEEP_ROWS,
    SWEEP_SLAVES,
    TENANT_CORES,
    TENANT_MIXES,
    TENANT_POLICIES,
    TENANT_SLAVES,
    TENANT_SPEC_NAMES,
    search_catalogue,
    serve_catalogue,
    spec,
)

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"


def digest(value) -> str:
    """Short content hash of a value's ``repr`` (floats print exactly)."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:12]


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile of ``values`` (0 < share <= 1)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


@dataclass
class Outcome:
    """What one timed phase produced.

    ``latencies`` are the request latencies the median is taken over,
    ``tail`` those the 99th percentile is taken over (``latencies`` when
    empty), and ``rate`` the work items done per second; each workload
    says how it derives them from its samples, and whether it scales
    them to the reference speed of ``calibrate.py``.
    """

    latencies: list[float] = field(default_factory=list)
    tail: list[float] = field(default_factory=list)
    rate: float = 0.0
    #: Median host-speed factor the timings were scaled by (calibrate.py).
    speed: float = 1.0
    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    results: list = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


#: Closed-loop workloads time at least this many passes, so that each
#: item's median has a majority to stand on.
MIN_PASSES = 3
#: Calibration kernel samples taken before each closed-loop item.
CAL_PER_ITEM = 2


def whole_pass(items) -> tuple:
    """Run one pass of ``(key, thunk)`` items untimed; the pass's results."""
    return tuple(thunk() for _, thunk in items)


def closed_loop(pass_items, seconds: float) -> Outcome:
    """Repeat a fixed pass of items back to back for about ``seconds``.

    ``pass_items()`` yields one pass's ``(key, thunk)`` items; the same
    keys in the same order on every pass.  Each thunk is one request
    (a grid cell, a mix) and is timed alone; work between items (fresh
    caches, final saves) is not.  Every pass is whole, so that every
    pass can be checked against the same reference; the loop stops
    before a pass that would end after ``seconds``, once it has
    ``MIN_PASSES``.

    The calibration kernel runs before each item, and a pass's timings
    are scaled by the factor of its own kernel timings.  A request's
    latency is its scaled median over the passes, so a stall of the
    host that hits one pass moves no item; ``latencies`` holds one such
    median per item, and ``rate`` is items per second of a pass made of
    them.
    """
    outcome = Outcome()
    samples: dict = {}
    factors, pass_walls = [], []
    start = perf_counter()
    while True:
        began = perf_counter()
        calibration = Calibration()
        results, times = [], []
        for key, thunk in pass_items():
            calibration.sample(CAL_PER_ITEM)
            tick = perf_counter()
            results.append(thunk())
            times.append((key, perf_counter() - tick))
        factors.append(calibration.factor())
        for key, elapsed in times:
            samples.setdefault(key, []).append(elapsed * factors[-1])
        outcome.results.append(tuple(results))
        outcome.attempted += len(results)
        pass_walls.append(perf_counter() - began)
        outcome.wall = perf_counter() - start
        if (len(pass_walls) >= MIN_PASSES
                and outcome.wall + statistics.median(pass_walls) > seconds):
            break
    outcome.latencies = [statistics.median(times) for times in samples.values()]
    outcome.rate = len(outcome.latencies) / sum(outcome.latencies)
    outcome.speed = statistics.median(factors)
    return outcome


def check_passes(name: str, run_index: int, outcome: Outcome) -> list[str]:
    """Every cold pass gives the reference digest for the run index."""
    digests = {digest(result) for result in outcome.results}
    expected = load_reference()[name][str(run_index)]
    if digests == {expected}:
        return []
    return [
        f"{name}: run index {run_index} pass digests {sorted(digests)}"
        f" != reference {expected}"
    ]


def _profile(specs, cache) -> list:
    """Resolve (profile, on a miss) each spec into ``cache``."""
    from repro.pipeline import SpecSource

    return [
        SpecSource(item, profile_nodes=PROFILE_NODES).resolve(cache)
        for item in specs
    ]


# -- sweep ----------------------------------------------------------------------


class Sweep:
    """A cold exp-vs-model grid, run the way ``repro pipeline --cache`` runs it."""

    def __init__(self, seed: int, root: Path, workdir: Path) -> None:
        self.run_index = seed % RUN_INDICES
        self.root = root
        self.workdir = workdir
        self._passes = 0

    def setup(self) -> None:
        from repro.faults import load_fault_plan
        from repro.pipeline import ResultCache
        from repro.resilience import ResiliencePolicy, SpeculationPolicy

        cache = ResultCache(self.workdir / "sweep-reports.json")
        _profile([spec(name) for name, _ in SWEEP_ROWS], cache)
        self.template = cache.save()
        self.plan = load_fault_plan(self.root / FAULT_PLAN)
        self.policy = ResiliencePolicy(speculation=SpeculationPolicy())

    def pass_items(self):
        """One cold grid, cell by cell, into a fresh file-backed cache."""
        from repro.pipeline import ClusterPlatform, Experiment, ResultCache, SpecSource

        self._passes += 1
        path = self.workdir / f"sweep-pass-{self._passes}.json"
        shutil.copyfile(self.template, path)
        cache = ResultCache(path)

        def cell(name, cores, platform, **faults):
            experiment = Experiment(
                SpecSource(spec(name), profile_nodes=PROFILE_NODES),
                platform, cache=cache, **faults,
            )
            result = experiment.run_grid(
                nodes=(SWEEP_SLAVES,), cores_per_node=(cores,),
                run_indices=(self.run_index,),
            )[0]
            return (
                name, platform.label, cores, bool(faults),
                tuple(
                    (stage.name, stage.measured_seconds, stage.predicted_seconds)
                    for stage in result.stages
                ),
            )

        for hdfs, local in SWEEP_PLACEMENTS:
            platform = ClusterPlatform(hdfs_kind=hdfs, local_kind=local)
            for name, core_counts in SWEEP_ROWS:
                for cores in core_counts:
                    yield ((name, platform.label, cores),
                           functools.partial(cell, name, cores, platform))
        name, cores = FAULT_CELL
        platform = ClusterPlatform(hdfs_kind="ssd", local_kind="ssd")
        yield ((name, platform.label, cores, "faulted"), functools.partial(
            cell, name, cores, platform, faults=self.plan,
            resilience=self.policy,
        ))
        cache.save()
        path.unlink()

    def grid_pass(self) -> tuple:
        return whole_pass(self.pass_items())

    def run(self, seconds: float) -> Outcome:
        outcome = closed_loop(self.pass_items, seconds)
        errors = [
            abs(measured - predicted) / measured
            for _, _, _, _, stages in outcome.results[0]
            for _, measured, predicted in stages
        ]
        outcome.notes.append(
            f"model_err_pct={100 * sum(errors) / len(errors):.3f}"
            f" (mean abs Eq.-1 error over {len(errors)} cell stages,"
            f" run index {self.run_index})"
        )
        return outcome

    def check(self, outcome: Outcome) -> list[str]:
        return check_passes("sweep", self.run_index, outcome)

    def close(self) -> None:
        self.template.unlink(missing_ok=True)


# -- tenants ----------------------------------------------------------------------


class Tenants:
    """Cold multi-tenant mixes under both scheduling policies."""

    def __init__(self, seed: int, root: Path, workdir: Path) -> None:
        self.run_index = seed % RUN_INDICES
        self.root = root

    def _mix_jobs(self, path):
        from repro.schedule import MixJob

        if path is None:
            return "k1-terasort", [MixJob(spec=spec("terasort"))]
        plan = json.loads((self.root / path).read_text())
        return Path(path).stem, [
            MixJob(
                spec=spec(TENANT_SPEC_NAMES[entry["workload"]]),
                arrival=float(entry.get("arrival", 0.0)),
                volume_scale=float(entry.get("volume_scale", 1.0)),
                name=entry.get("name"),
            )
            for entry in plan["jobs"]
        ]

    def setup(self) -> None:
        from repro.pipeline import ClusterPlatform, ResultCache
        from repro.workloads.base import scale_workload_volume

        self.platform = ClusterPlatform(hdfs_kind="hdd", local_kind="hdd")
        self.mixes = [self._mix_jobs(path) for path in TENANT_MIXES]
        cache = ResultCache()
        # run_mix predicts each job from its own profile.  Mixes holding a
        # volume-scaled job cannot be profiled (the profiler's request-size
        # cross-check rejects the scaled SVM), so they run the path
        # `repro simulate --mix` takes: the mix plus solo baselines.
        self.use_run_mix = {
            label: all(job.volume_scale == 1.0 for job in jobs)
            for label, jobs in self.mixes
        }
        _profile(
            [
                scale_workload_volume(job.spec, job.volume_scale)
                for label, jobs in self.mixes if self.use_run_mix[label]
                for job in jobs
            ],
            cache,
        )
        self.reports = cache.export_shard()

    def mix_op(self, label, jobs, policy) -> tuple:
        from repro.pipeline import Experiment, ResultCache
        from repro.workloads.base import scale_workload_volume

        cache = ResultCache()
        cache.merge_shard(self.reports)
        experiment = Experiment(jobs[0].spec, self.platform, cache=cache)
        shape = dict(nodes=TENANT_SLAVES, cores_per_node=TENANT_CORES,
                     run_index=self.run_index)
        if self.use_run_mix[label]:
            mix = experiment.run_mix(jobs, policy=policy, **shape)
            return (label, policy, mix.makespan_seconds, tuple(
                (job.name, job.result.measured_seconds,
                 job.result.predicted_seconds, job.solo_seconds)
                for job in mix.jobs
            ))
        mix = experiment.measure_mix(jobs, policy=policy, **shape)
        solos = [
            Experiment(
                scale_workload_volume(job.spec, job.volume_scale),
                self.platform, cache=cache,
            ).measure(TENANT_SLAVES, TENANT_CORES, run_index=self.run_index)
            for job in jobs
        ]
        return (label, policy, mix.makespan, tuple(
            (timeline.name, timeline.measurement.total_seconds, None,
             solo.total_seconds)
            for timeline, solo in zip(mix.jobs, solos)
        ))

    def pass_items(self):
        for label, jobs in self.mixes:
            for policy in TENANT_POLICIES:
                yield ((label, policy),
                       functools.partial(self.mix_op, label, jobs, policy))

    def mix_pass(self) -> tuple:
        return whole_pass(self.pass_items())

    def run(self, seconds: float) -> Outcome:
        outcome = closed_loop(self.pass_items, seconds)
        for label, policy, makespan, jobs in outcome.results[0]:
            slowdowns = ", ".join(
                f"{name} {mixed / solo:.3f}x" for name, mixed, _, solo in jobs
            )
            outcome.notes.append(
                f"{label}/{policy}: makespan {makespan:.1f} s; {slowdowns}"
            )
        return outcome

    def check(self, outcome: Outcome) -> list[str]:
        return check_passes("tenants", self.run_index, outcome)

    def close(self) -> None:
        pass


# -- search -----------------------------------------------------------------------


def search_answer(result) -> tuple:
    best = result.best
    return (best.config.label(), best.runtime_seconds, best.cost_dollars,
            result.num_evaluated)


class Search:
    """Seeded cold exhaustive cost searches, each with a fresh optimizer."""

    #: Every ``SAMPLE_EVERY``-th search keeps its optimum for the
    #: array-versus-scalar check.
    SAMPLE_EVERY = 25
    #: Searches per block of the throughput median.
    BLOCK = 40
    #: Searches per calibration kernel sample.
    CAL_EVERY = 8

    def __init__(self, seed: int, root: Path, workdir: Path) -> None:
        self.rng = random.Random(seed)

    def setup(self) -> None:
        from repro.cloud.optimizer import CostOptimizer
        from repro.core.predictor import Predictor
        from repro.pipeline import ResultCache

        resolved = _profile([spec(name) for name in SEARCH_WORKLOADS],
                            ResultCache())
        self.predictors = {
            name: Predictor(item.report)
            for name, item in zip(SEARCH_WORKLOADS, resolved)
        }
        for predictor in self.predictors.values():  # kernel warm-up
            CostOptimizer(predictor).grid_search(vcpu_grid=(4,))

    def optimizer(self, workload: str, workers: int):
        from repro.cloud.optimizer import CostOptimizer

        min_hdfs, min_local = CostOptimizer.capacity_requirements(
            spec(workload), num_workers=workers
        )
        return CostOptimizer(
            self.predictors[workload], num_workers=workers,
            min_hdfs_gb=min_hdfs, min_local_gb=min_local,
        )

    def order(self, size: int):
        """Catalogue indices: the whole catalogue in a seeded order, again
        and again.  Every run then sends every search about equally
        often, so the latency tail does not hinge on how many of the
        dearest searches a seed happened to draw."""
        while True:
            indices = list(range(size))
            self.rng.shuffle(indices)
            yield from indices

    def run(self, seconds: float) -> Outcome:
        """Whole blocks of ``BLOCK`` searches back to back.

        The calibration kernel runs before every ``CAL_EVERY``-th search,
        and a block's latencies are scaled by the factor of its own
        kernel timings.  ``rate`` is the median over blocks of scaled
        searches per second, so a stall of the host that hits a few
        blocks moves no rate.
        """
        catalogue = search_catalogue()
        order = self.order(len(catalogue))
        outcome = Outcome()
        block_rates, factors = [], []
        start = perf_counter()
        while perf_counter() - start < seconds or len(block_rates) < MIN_PASSES:
            calibration = Calibration()
            times = []
            for number in range(self.BLOCK):
                if number % self.CAL_EVERY == 0:
                    calibration.sample()
                index = next(order)
                workload, workers, grid = catalogue[index]
                began = perf_counter()
                result = self.optimizer(workload, workers).grid_search(vcpu_grid=grid)
                times.append(perf_counter() - began)
                kept = result.best if len(outcome.results) % self.SAMPLE_EVERY == 0 else None
                outcome.results.append((index, digest(search_answer(result)), kept))
            factors.append(calibration.factor())
            outcome.latencies += [elapsed * factors[-1] for elapsed in times]
            block_rates.append(self.BLOCK / (sum(times) * factors[-1]))
        outcome.wall = perf_counter() - start
        outcome.attempted = len(outcome.latencies)
        outcome.rate = statistics.median(block_rates)
        outcome.speed = statistics.median(factors)
        return outcome

    def check(self, outcome: Outcome) -> list[str]:
        catalogue = search_catalogue()
        reference = load_reference()["search"]
        failures = [
            f"search: {catalogue[index]} optimum digest {got} != reference"
            f" {reference[index]}"
            for index, got, _ in outcome.results
            if got != reference[index]
        ]
        for index, got, best in outcome.results:
            if best is None:
                continue
            workload, workers, _ = catalogue[index]
            scalar = self.optimizer(workload, workers).evaluate(best.config)
            if (scalar.runtime_seconds, scalar.cost_dollars) != (
                best.runtime_seconds, best.cost_dollars
            ):
                failures.append(
                    f"search: array optimum {best!r} != scalar evaluate {scalar!r}"
                )
        return failures[:20]

    def close(self) -> None:
        pass


# -- serve ------------------------------------------------------------------------


def predict_answer(answer: dict) -> tuple:
    return (answer["config"]["label"], answer["runtime_seconds"],
            answer["cost_dollars"])


def optimize_answer(answer: dict) -> tuple:
    best = answer["best"]
    return (best["config"]["label"], best["runtime_seconds"],
            best["cost_dollars"], answer["num_evaluated"])


def simulate_answer(answer: dict) -> tuple:
    return (answer["total_seconds"], tuple(
        (stage["name"], stage["num_tasks"], stage["makespan_seconds"])
        for stage in answer["stages"]
    ))


ANSWER_KEYS = {
    "predict": predict_answer,
    "optimize": optimize_answer,
    "simulate": simulate_answer,
}


class Serve:
    """Open-loop Poisson what-if queries against an in-process engine.

    The median latency is wall time: most of it is the micro-batcher's
    fixed wait, which the host's speed does not change.  The tail is
    the heavy queries' compute and the queueing behind it, so it is
    scaled to the reference speed by the calibration kernel, sampled on
    the event loop every ``CAL_PERIOD`` seconds of the timed phase.
    ``rate`` is not scaled: the schedule sets it.
    """

    #: Mean arrival rate, queries per second.
    RATE = 200.0
    #: Query mix: shares of optimizes and simulates; the rest predict.
    OPTIMIZE_SHARE = 0.027
    SIMULATE_SHARE = 0.003
    #: Zipf exponent over the predict catalogue.  With the engine's
    #: 1024-entry LRU it gives about 35 % LRU hits at 200 qps: near half,
    #: yet far enough from it that the median latency stays among the
    #: misses instead of flipping between the two populations from seed
    #: to seed.
    ZIPF_S = 0.8
    #: A run whose generator sends its 99th-percentile query later than
    #: this after its due time is invalid.
    LAG_LIMIT_MS = 100.0
    #: Seconds between calibration kernel samples on the event loop.
    CAL_PERIOD = 0.5
    #: Answers re-derived from direct library calls, per kind.
    LIBRARY_SAMPLES = {"predict": 12, "optimize": 3, "simulate": 2}

    def __init__(self, seed: int, root: Path, workdir: Path) -> None:
        self.seed = seed
        self.loop = None
        self.engine = None

    def setup(self) -> None:
        from repro.pipeline import ResultCache
        from repro.service import QueryEngine

        # The event loop and the engine's worker thread hand the
        # interpreter lock back and forth.  Across two CPUs each hand-off
        # depends on how the OS schedules the other CPU, which moved the
        # p99 by 24 % between seeds on a 2-CPU host; on one CPU it moved
        # by 9 %.  Python code cannot use a second CPU here anyway.
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.loop = asyncio.new_event_loop()
        self.engine = QueryEngine(
            {name: spec(name) for name in SERVE_WORKLOADS},
            cache=ResultCache(), workers=None, profile_nodes=PROFILE_NODES,
        )
        self.loop.run_until_complete(self.engine.start())
        self.loop.run_until_complete(self.engine.warm())

    def schedule(self, seconds: float) -> list[tuple[float, str, int]]:
        """Seeded ``(due offset, kind, catalogue index)`` arrivals.

        The count is fixed at ``RATE * seconds`` and the arrival times
        are its uniform order statistics, which is a Poisson process
        conditioned on that count.  Optimizes and simulates take fixed
        shares.  Optimizes sit at evenly spaced places in the sequence,
        from a seeded phase, as the repository's own load generator
        interleaves them.  Each simulate sits midway between two
        optimizes, in a seeded gap of its own stretch of the sequence,
        so that no seed makes every simulate run into an optimize.
        Each heavy kind sends its whole catalogue in a seeded order,
        again and again.  So every run meets the same heavy jobs (at
        20 s, each exactly once), spread the same way, and the tail
        latency measures the engine rather than which heavy jobs a seed
        drew or chance pile-ups of them.
        """
        catalogue = serve_catalogue()
        rng = random.Random(self.seed)
        count = max(1, round(self.RATE * seconds))
        offsets = sorted(rng.uniform(0.0, seconds) for _ in range(count))
        kinds = ["predict"] * count
        optimizes = round(self.OPTIMIZE_SHARE * count)
        simulates = round(self.SIMULATE_SHARE * count)
        gap = count / max(1, optimizes)
        phase = rng.random()
        for number in range(optimizes):
            kinds[int((number + phase) * gap)] = "optimize"
        for stretch in range(simulates):
            after = int((stretch + rng.random()) * optimizes / simulates)
            kinds[int((after + phase + 0.5) * gap) % count] = "simulate"
        ranks = list(range(len(catalogue["predict"])))
        rng.shuffle(ranks)
        cumulative, total = [], 0.0
        for rank in range(len(ranks)):
            total += 1.0 / (rank + 1) ** self.ZIPF_S
            cumulative.append(total)
        heavy = {}
        for kind in ("simulate", "optimize"):
            heavy[kind] = []
            while len(heavy[kind]) < kinds.count(kind):
                indices = list(range(len(catalogue[kind])))
                rng.shuffle(indices)
                heavy[kind] += indices
            del heavy[kind][kinds.count(kind):]
        arrivals = []
        for offset, kind in zip(offsets, kinds):
            if kind == "predict":
                rank = bisect.bisect_left(cumulative, rng.random() * total)
                index = ranks[min(rank, len(ranks) - 1)]
            else:
                index = heavy[kind].pop()
            arrivals.append((offset, kind, index))
        return arrivals

    def run(self, seconds: float) -> Outcome:
        return self.loop.run_until_complete(self._drive(seconds))

    async def _drive(self, seconds: float) -> Outcome:
        from repro.errors import AdmissionError
        from tracing import query_id

        catalogue = serve_catalogue()
        arrivals = self.schedule(seconds)
        loop = asyncio.get_running_loop()
        outcome = Outcome()
        lags, tasks = [], []
        counts = {"sent": 0, "succeeded": 0, "refused": 0, "failed": 0}
        # The loop samples the calibration kernel between sends.  It times
        # the kernel in the loop thread's CPU time, since the engine's
        # worker thread holds the interpreter lock for whole slices.
        calibration = Calibration(clock=thread_time)

        async def sampler():
            while True:
                await asyncio.sleep(self.CAL_PERIOD)
                calibration.sample()

        sampling = loop.create_task(sampler())

        async def one(number, due, kind, index):
            query_id.set(number)
            try:
                answer = await self.engine.submit(dict(catalogue[kind][index]))
            except AdmissionError:
                counts["refused"] += 1
                return
            except Exception as exc:  # noqa: BLE001 - counted and reported
                counts["failed"] += 1
                outcome.notes.append(f"query {kind}#{index} failed: {exc}")
                return
            outcome.latencies.append(loop.time() - due)
            counts["succeeded"] += 1
            outcome.results.append((kind, index, answer))

        start = loop.time() + 0.01
        for number, (offset, kind, index) in enumerate(arrivals):
            due = start + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append(loop.time() - due)
            counts["sent"] += 1
            tasks.append(loop.create_task(one(number, due, kind, index)))
        _, pending = await asyncio.wait(tasks, timeout=60.0)
        sampling.cancel()
        await asyncio.gather(sampling, return_exceptions=True)
        if not calibration.samples:
            calibration.sample()
        outcome.speed = calibration.factor()
        for task in pending:
            task.cancel()
            counts["failed"] += 1
        await asyncio.gather(*pending, return_exceptions=True)
        outcome.wall = loop.time() - start
        outcome.attempted = counts["sent"]
        outcome.failed = counts["refused"] + counts["failed"]
        outcome.rate = counts["succeeded"] / outcome.wall
        # A refused or failed query misses every latency limit.
        outcome.latencies.extend([outcome.wall] * outcome.failed)
        outcome.tail = [latency * outcome.speed for latency in outcome.latencies]
        self.lag_p99_ms = 1e3 * percentile(lags, 0.99)
        self.stats = self.engine.stats()
        outcome.notes.append(
            f"rate {self.RATE:g}/s: sent {counts['sent']}, succeeded"
            f" {counts['succeeded']}, refused {counts['refused']}, failed"
            f" {counts['failed']}; generator lag p99 {self.lag_p99_ms:.2f} ms"
        )
        lru = self.stats["lru"]["hits"] / max(1, self.stats["queries"])
        outcome.notes.append(
            f"LRU hits {lru:.1%}, coalesced {self.stats['coalesced']},"
            f" batches {self.stats['batches']['flushed']}"
        )
        return outcome

    def check(self, outcome: Outcome) -> list[str]:
        failures = []
        if self.lag_p99_ms > self.LAG_LIMIT_MS:
            failures.append(
                f"serve: invalid run, generator lag p99 {self.lag_p99_ms:.1f} ms"
                f" > {self.LAG_LIMIT_MS} ms"
            )
        reference = load_reference()["serve"]
        for kind, index, answer in outcome.results:
            got = digest(ANSWER_KEYS[kind](answer))
            if got != reference[kind][index]:
                failures.append(
                    f"serve: {kind}#{index} answer digest {got} != reference"
                    f" {reference[kind][index]}"
                )
        failures += self._library_check(outcome)
        return failures[:20]

    def _library_check(self, outcome: Outcome) -> list[str]:
        """Sampled answers equal the direct library calls (service = library)."""
        catalogue = serve_catalogue()
        taken = {kind: 0 for kind in ANSWER_KEYS}
        failures = []
        for kind, index, answer in outcome.results:
            if taken[kind] >= self.LIBRARY_SAMPLES[kind]:
                continue
            taken[kind] += 1
            expected = library_answer(catalogue[kind][index], self.engine.cache)
            if ANSWER_KEYS[kind](answer) != expected:
                failures.append(
                    f"serve: {kind}#{index} answer {ANSWER_KEYS[kind](answer)}"
                    f" != library {expected}"
                )
        return failures

    def close(self) -> None:
        if self.engine is not None:
            self.loop.run_until_complete(self.engine.close())
            self.loop.run_until_complete(self.loop.shutdown_default_executor())
            self.loop.close()
            self.engine = None


def library_answer(payload: dict, cache=None) -> tuple:
    """The answer a direct library call gives for one serve query."""
    from repro.cloud.instance import machine_for_vcpus
    from repro.cloud.optimizer import CostOptimizer
    from repro.cloud.pricing import CloudConfiguration
    from repro.core.predictor import Predictor
    from repro.pipeline import ClusterPlatform, Experiment, ResultCache, SpecSource

    workload = spec(payload["workload"])
    if payload["kind"] == "simulate":
        measurement = Experiment(
            workload,
            ClusterPlatform(hdfs_kind=payload["hdfs"], local_kind=payload["local"]),
        ).measure(payload["slaves"], payload["cores"])
        return (measurement.total_seconds, tuple(
            (stage.name, stage.num_tasks, stage.makespan)
            for stage in measurement.stages
        ))
    report = SpecSource(workload, profile_nodes=PROFILE_NODES).resolve(
        cache if cache is not None else ResultCache()
    ).report
    min_hdfs, min_local = CostOptimizer.capacity_requirements(
        workload, num_workers=payload["num_workers"]
    )
    optimizer = CostOptimizer(
        Predictor(report), num_workers=payload["num_workers"],
        min_hdfs_gb=min_hdfs, min_local_gb=min_local,
    )
    if payload["kind"] == "optimize":
        return search_answer(
            optimizer.grid_search(vcpu_grid=tuple(payload["vcpu_grid"]))
        )
    evaluated = optimizer.evaluate(CloudConfiguration(
        machine=machine_for_vcpus(payload["vcpus"]),
        num_workers=payload["num_workers"],
        hdfs_disk_kind=payload["hdfs_kind"],
        hdfs_disk_gb=payload["hdfs_gb"],
        local_disk_kind=payload["local_kind"],
        local_disk_gb=payload["local_gb"],
    ))
    return (evaluated.config.label(), evaluated.runtime_seconds,
            evaluated.cost_dollars)


WORKLOADS = {
    "sweep": Sweep,
    "tenants": Tenants,
    "search": Search,
    "serve": Serve,
}
