"""Spans around calls into each layer's public entry points.

Only a traced run (``--trace 1``) calls :meth:`Tracer.install`; timed
runs import ``repro`` unmodified.  Each entry point is replaced on its
class, or on every ``repro`` module attribute that holds the function
(its call sites), so every caller goes through the wrapper.  Spans stay
in memory until the run ends and are then reduced to per-layer metrics
and written out as Chrome trace-event JSON.

A span's parent is the span open in the same context when it started.
``asyncio.to_thread`` copies the caller's context into the worker
thread, so spans and the per-query id (:data:`query_id`) follow a query
across the service's event loop and its worker thread.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import os
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

#: Id of the query a span serves (``None`` outside the serve workloads).
query_id: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_query_id", default=None
)
_open_span: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_open_span", default=None
)


@dataclass
class Span:
    sid: int
    name: str
    phase: str
    parent: int | None
    qid: object
    tid: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _len_arg(position: int):
    return lambda args, kwargs, result: {"n": len(args[position])}


def _supervised(args, kwargs, result):
    return {"n": len(args[2]), "retries": result.retries}


def _saved(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


#: ``(span name, module, class or None, attribute, attrs from the call)``.
#: A ``None`` class means a module-level function patched at every
#: ``repro`` module attribute that holds it.
ENTRY_POINTS = (
    ("simulator", "repro.simulator.engine", "SimulationEngine", "run",
     _len_arg(1)),
    ("workloads.build_tasks", "repro.workloads.base", "StageSpec",
     "build_tasks", None),
    ("schedule.mix", "repro.schedule.mix", "MixEngine", "run_mix", None),
    ("core.profile", "repro.core.profiler", "Profiler", "profile", None),
    ("core.predict", "repro.core.app_model", "ApplicationModel", "predict",
     None),
    ("model.kernel", "repro.model.arrays", "Eq1BatchEvaluator", "score",
     _len_arg(1)),
    ("model.batch_build", "repro.model.arrays", "CandidateBatch",
     "from_configs", None),
    ("cloud.search", "repro.cloud.optimizer", "CostOptimizer", "grid_search",
     None),
    ("cloud.disk_tables", "repro.cloud.disks", None, "make_persistent_disk",
     None),
    ("pipeline.cache_save", "repro.pipeline.cache", "ResultCache", "save",
     _saved),
    ("pipeline.fingerprint", "repro.pipeline.fingerprint", None,
     "fingerprint", None),
    ("parallel.supervise", "repro.parallel.supervisor", "TaskSupervisor",
     "run", _supervised),
    ("service.parse", "repro.service.query", None, "parse_query", None),
)

#: Cache reads, counted (not timed) as hits and misses.
CACHE_READS = ("get_measurement", "get_prediction", "get_report", "get_mix")


class Tracer:
    """In-memory span recorder; patches entry points while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self.cache_hits = 0
        self.cache_misses = 0
        self.batch_waits: list[float] = []
        self.queue_waits: list[float] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self._batch_added: dict[int, float] = {}
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn, attrs_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(
                sid=next(tracer._ids), name=name, phase=tracer.phase,
                parent=_open_span.get(), qid=query_id.get(),
                tid=threading.get_ident(), start=perf_counter(),
            )
            token = _open_span.set(span.sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                _open_span.reset(token)
                tracer.spans.append(span)
            if attrs_of is not None:
                span.attrs = attrs_of(args, kwargs, result)
            return result

        return wrapper

    def _count_read(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            with tracer._lock:
                if result is None:
                    tracer.cache_misses += 1
                else:
                    tracer.cache_hits += 1
            return result

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        for name, module_name, class_name, attr, attrs_of in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if class_name is None:
                original = getattr(module, attr)
                self._patch_call_sites(
                    original, self._wrap(name, original, attrs_of)
                )
                continue
            owner = getattr(module, class_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(
                    self._wrap(name, raw.__func__, attrs_of)
                ))
            else:
                self._patch(owner, attr, self._wrap(name, raw, attrs_of))

        from repro.pipeline.cache import ResultCache
        from repro.service.batcher import MicroBatcher
        from repro.service.engine import QueryEngine

        for attr in CACHE_READS:
            self._patch(ResultCache, attr,
                        self._count_read(ResultCache.__dict__[attr]))
        self._patch_batcher(MicroBatcher)
        self._patch_worker_queue(QueryEngine)

    def _patch_call_sites(self, original, wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def _patch_batcher(self, batcher_cls) -> None:
        """Time each predict from joining a micro-batch to its flush."""
        tracer = self
        add, flush = batcher_cls.add, batcher_cls.flush

        def traced_add(batcher, entry):
            tracer._batch_added[id(entry)] = perf_counter()
            return add(batcher, entry)

        def traced_flush(batcher):
            now = perf_counter()
            for entry in batcher._pending:
                added = tracer._batch_added.pop(id(entry), None)
                if added is not None:
                    tracer.batch_waits.append(now - added)
            return flush(batcher)

        self._patch(batcher_cls, "add", traced_add)
        self._patch(batcher_cls, "flush", traced_flush)

    def _patch_worker_queue(self, engine_cls) -> None:
        """Time jobs waiting for the engine's single worker thread.

        The job runs in a copy of the submitting query's context, so its
        spans carry that query's id.
        """
        tracer = self
        call = engine_cls._call

        async def traced_call(engine, fn):
            context = contextvars.copy_context()
            queued = perf_counter()

            def job():
                tracer.queue_waits.append(perf_counter() - queued)
                return context.run(fn)

            return await call(engine, job)

        self._patch(engine_cls, "_call", traced_call)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reduction -----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the time its child spans cover."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        return {
            span.sid: span.duration - child_time.get(span.sid, 0.0)
            for span in self.spans
        }

    def write_chrome_trace(self, path: str) -> None:
        """Write every span as a Chrome trace-event ``X`` event."""
        origin = min((span.start for span in self.spans), default=0.0)
        events = [
            {
                "name": span.name,
                "cat": span.name.split(".")[0],
                "ph": "X",
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": os.getpid(),
                "tid": span.tid,
                "args": {"phase": span.phase, "query": span.qid,
                         "parent": span.parent, **span.attrs},
            }
            for span in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
