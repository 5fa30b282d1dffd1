"""Optimizer-as-a-service: the concurrent what-if query engine.

``repro.service`` turns the library's one-shot entry points
(:class:`~repro.pipeline.experiment.Experiment`,
:class:`~repro.cloud.optimizer.CostOptimizer`) into a long-running
query engine with a thin HTTP/JSON front (``python -m repro serve``).
The layers, bottom up:

- :mod:`repro.service.query` — the query schema: validation, canonical
  form, content fingerprints.
- :mod:`repro.service.batcher` — the time/size-bounded micro-batcher
  that turns concurrent model-only queries into one vectorized kernel
  call.
- :mod:`repro.service.engine` — the three-tier read path (LRU →
  persistent :class:`~repro.pipeline.cache.ResultCache` → coalesced,
  batched, admission-bounded compute).
- :mod:`repro.service.http` — the stdlib ``asyncio.start_server``
  front: ``POST /query``, ``GET /stats``, ``GET /healthz``.
- :mod:`repro.service.loadgen` — the load generator and naive baseline
  backing the ``service`` benchmark section and the CI smoke test.

Semantics, limits, and the exit-code/HTTP-status mapping are documented
in ``docs/SERVICE.md``.
"""

from repro.service.batcher import MicroBatcher
from repro.service.engine import QueryEngine
from repro.service.http import QueryServer, serve
from repro.service.query import (
    DEFAULT_OPTIMIZE_VCPU_GRID,
    QUERY_KINDS,
    Query,
    parse_query,
)

__all__ = [
    "DEFAULT_OPTIMIZE_VCPU_GRID",
    "MicroBatcher",
    "QUERY_KINDS",
    "Query",
    "QueryEngine",
    "QueryServer",
    "parse_query",
    "serve",
]
