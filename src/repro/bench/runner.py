"""Orchestration behind ``python -m repro bench``.

:func:`run_bench` runs the selected sections, judges every metric gate
against the rolling history, folds the sections' absolute floors into
the same verdict stream (metric ``"guard"``, always a fail), and hands
back a :class:`BenchReport`.  Persistence — appending the history
record — is the caller's business, so the runner is equally usable
from the CLI and from tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.gates import GatePolicy, Verdict, evaluate_section
from repro.bench.history import (
    BenchHistory,
    fingerprint_key,
    host_fingerprint,
    make_record,
)
from repro.bench.registry import BenchmarkSection, all_sections
from repro.errors import ConfigurationError


@dataclass
class BenchReport:
    """Everything one bench run produced."""

    sections: dict[str, dict]
    verdicts: list[Verdict]
    fingerprint: dict
    rounds: int
    record: dict = field(default_factory=dict)

    @property
    def failures(self) -> list[Verdict]:
        return [v for v in self.verdicts if v.status == "fail"]

    @property
    def warnings(self) -> list[Verdict]:
        return [v for v in self.verdicts if v.status == "warn"]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "sections": self.sections,
            "verdicts": [v.to_dict() for v in self.verdicts],
            "fingerprint": self.fingerprint,
            "fingerprint_key": fingerprint_key(self.fingerprint),
            "rounds": self.rounds,
            "ok": self.ok,
        }


def run_bench(
    sections: list[BenchmarkSection] | None = None,
    rounds: int = 3,
    history: BenchHistory | None = None,
    policy: GatePolicy | None = None,
) -> BenchReport:
    """Run sections, judge gates and floors, return the full report.

    ``history`` is only *read* here (for the gate comparisons); the
    caller decides whether the returned ``report.record`` gets
    appended.  ``rounds`` below 1 is a :class:`ConfigurationError`:
    a run must time at least one round, and its record says how many.
    """
    if rounds < 1:
        raise ConfigurationError(
            f"bench rounds must be at least 1, got {rounds}"
        )
    sections = sections if sections is not None else all_sections()
    records = history.load() if history is not None else []
    fingerprint = host_fingerprint()
    fp_key = fingerprint_key(fingerprint)

    metrics_by_name: dict[str, dict] = {}
    verdicts: list[Verdict] = []
    for section in sections:
        metrics = section.run(rounds)
        metrics_by_name[section.name] = metrics
        for failure in section.guards(metrics):
            verdicts.append(Verdict(
                section.name, "guard", "fail", detail=failure,
            ))
        verdicts.extend(evaluate_section(
            section.name, section.gates, metrics, records, fp_key, policy,
        ))

    return BenchReport(
        sections=metrics_by_name,
        verdicts=verdicts,
        fingerprint=fingerprint,
        rounds=rounds,
        record=make_record(metrics_by_name, rounds, fingerprint),
    )

