"""The append-only benchmark trajectory store.

``BENCH_history.jsonl`` holds one JSON record per bench run, and it is
the only place bench results are kept.  Each record carries the git
SHA, a UTC timestamp, the host fingerprint (CPU count, python version,
numpy version) and every section's metrics.  The file is append-only
so the perf story across PRs is a curve, not a point.

Reading mirrors the :class:`~repro.pipeline.cache.ResultCache`
checkpoint semantics: a corrupt line (truncated append, hand-editing)
is skipped with a warning, never fatal — history is an accelerator for
regression detection, and the worst acceptable outcome of damage is a
thinner window.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path

#: History record format marker.
HISTORY_FORMAT_VERSION = 1


def host_fingerprint() -> dict:
    """The environment facts that make wall-clock numbers comparable.

    CPU count uses the affinity-aware
    :func:`repro.parallel.available_cpus`, so a container restricted to
    one core fingerprints as one core — exactly the partition that keeps
    1-CPU CI runs from gating against multi-core dev-host history.
    """
    import numpy

    from repro.parallel import available_cpus

    return {
        "cpus": available_cpus(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def fingerprint_key(fingerprint: dict) -> str:
    """The partition key history comparisons are scoped by.

    Patch-level python releases don't move performance enough to split
    the history, so only ``major.minor`` participates.  The Eq.-1 kernel
    always runs on numpy, so the trailing ``-numpy-numpy`` is constant; it
    keeps the keys of records written when the kernel backend was still
    selectable, so those records keep gating.
    """
    major_minor = ".".join(str(fingerprint.get("python", "")).split(".")[:2])
    return f"cpu{fingerprint.get('cpus')}-py{major_minor}-numpy-numpy"


def git_sha(cwd: str | Path | None = None) -> str | None:
    """The current commit SHA, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=str(cwd) if cwd is not None else None,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def make_record(
    sections: dict[str, dict],
    rounds: int,
    fingerprint: dict | None = None,
    sha: str | None = None,
) -> dict:
    """One history record for a bench run over ``sections`` metrics."""
    fingerprint = fingerprint if fingerprint is not None else host_fingerprint()
    return {
        "format_version": HISTORY_FORMAT_VERSION,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "git_sha": sha if sha is not None else git_sha(),
        "rounds": rounds,
        "argv": list(sys.argv[1:]),
        "fingerprint": fingerprint,
        "fingerprint_key": fingerprint_key(fingerprint),
        "sections": sections,
    }


class BenchHistory:
    """The ``BENCH_history.jsonl`` append-only store."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def append(self, record: dict) -> None:
        """Append exactly one record as one JSON line."""
        line = json.dumps(record, sort_keys=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")

    def load(self) -> list[dict]:
        """Every parseable record, oldest first; corrupt lines skip+warn."""
        if not self.path.exists():
            return []
        records: list[dict] = []
        with open(self.path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    warnings.warn(
                        f"bench history {self.path}: skipping corrupt line"
                        f" {number} ({exc})",
                        stacklevel=2,
                    )
                    continue
                if not isinstance(record, dict):
                    warnings.warn(
                        f"bench history {self.path}: skipping non-record line"
                        f" {number}",
                        stacklevel=2,
                    )
                    continue
                records.append(record)
        return records

    def __len__(self) -> int:
        return len(self.load())

