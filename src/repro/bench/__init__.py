"""First-class benchmark subsystem: sections, history, regression gates.

``python -m repro bench`` is the one benchmark entry point and
``BENCH_history.jsonl`` the one result store:

- :mod:`repro.bench.registry` — the :class:`BenchmarkSection` protocol
  and the plugin registry the CLI consumes;
- :mod:`repro.bench.sections` — the built-in scenarios (engine, cache,
  search, resilience, parallel, vectorized, multitenant, service), each
  with its absolute floors and its history gates;
- :mod:`repro.bench.history` — the append-only ``BENCH_history.jsonl``
  store (one record per run: git SHA, timestamp, host fingerprint,
  per-section metrics);
- :mod:`repro.bench.gates` — the statistical regression detector:
  median-of-last-K history comparison inside a noise band, partitioned
  by host fingerprint, with structured pass/warn/fail verdicts;
- :mod:`repro.bench.runner` — orchestration behind
  ``python -m repro bench`` (and ``--check`` gate-only mode);
- :mod:`repro.bench.report` — the ``--report`` trajectory renderer.

See docs/BENCHMARKS.md for the history schema and how gates decide.
"""

from __future__ import annotations

from repro.bench.gates import GatePolicy, MetricGate, Verdict, evaluate_section
from repro.bench.history import BenchHistory, fingerprint_key, host_fingerprint
from repro.bench.report import render_history_report
from repro.bench.registry import (
    BenchmarkSection,
    all_sections,
    register_section,
    resolve_sections,
    section_names,
)
from repro.bench.runner import BenchReport, run_bench

# Importing the module registers the built-in sections.
import repro.bench.sections  # noqa: E402,F401  (import for side effect)

__all__ = [
    "BenchHistory",
    "BenchReport",
    "BenchmarkSection",
    "GatePolicy",
    "MetricGate",
    "Verdict",
    "all_sections",
    "evaluate_section",
    "fingerprint_key",
    "host_fingerprint",
    "register_section",
    "render_history_report",
    "resolve_sections",
    "run_bench",
    "section_names",
]
