"""``python -m repro bench`` end to end, on fast fake sections.

The real sections are exercised by the benchmark suite itself; here a
fake registry (installed via ``monkeypatch.dict``) keeps the CLI tests
instant while covering the full surface: record append, gate verdicts,
``--check`` exit codes, argument validation.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import repro.bench.registry as registry
from repro.bench.gates import MetricGate
from repro.bench.registry import BenchmarkSection
from repro.cli import main


@pytest.fixture
def fake_registry(monkeypatch):
    """Replace the registry with two tiny deterministic sections."""
    top = BenchmarkSection(
        name="engine", title="fake engine",
        run=lambda rounds: {
            "benchmark": "fake", "rounds": rounds,
            "simulated_makespan_seconds": 258.76, "wall_seconds_best": 0.1,
        },
        gates=(
            MetricGate("simulated_makespan_seconds", "exact"),
            MetricGate("wall_seconds_best", "lower"),
        ),
    )
    nested = BenchmarkSection(
        name="cache", title="fake cache",
        run=lambda rounds: {"cache_speedup": 30.0},
        guards=lambda metrics: (
            [] if metrics["cache_speedup"] >= 2.0 else ["too slow"]
        ),
        gates=(MetricGate("cache_speedup", "higher"),),
    )
    monkeypatch.setattr(
        registry, "_REGISTRY", {"engine": top, "cache": nested}
    )
    return {"engine": top, "cache": nested}


def bench(tmp_path, *extra):
    return main([
        "bench",
        "--history", str(tmp_path / "h.jsonl"),
        *extra,
    ])


def test_run_appends_exactly_one_record(fake_registry, tmp_path,
                                        monkeypatch):
    # Run from inside tmp_path so a stray write to the working
    # directory would show up next to the history file.
    monkeypatch.chdir(tmp_path)
    assert bench(tmp_path) == 0
    assert bench(tmp_path) == 0
    # The history file is the only thing a run writes.
    assert list(tmp_path.iterdir()) == [tmp_path / "h.jsonl"]
    lines = (tmp_path / "h.jsonl").read_text().splitlines()
    assert len(lines) == 2
    record = json.loads(lines[0])
    assert set(record["sections"]) == {"engine", "cache"}
    assert record["fingerprint_key"]
    assert record["format_version"] == 1


def test_check_writes_nothing(fake_registry, tmp_path, capsys):
    assert bench(tmp_path, "--check") == 0
    assert not (tmp_path / "h.jsonl").exists()
    assert "bench check OK" in capsys.readouterr().out


def test_check_fails_on_exact_divergence(fake_registry, tmp_path, capsys):
    bench(tmp_path)
    # Simulate a determinism break: the recorded makespan differs.  The
    # fixture owns the registry dict, so swapping an entry is test-local.
    registry._REGISTRY["engine"] = dataclasses.replace(
        fake_registry["engine"],
        run=lambda rounds: {
            "benchmark": "fake", "rounds": rounds,
            "simulated_makespan_seconds": 999.0, "wall_seconds_best": 0.1,
        },
    )
    assert bench(tmp_path, "--check") == 3
    out = capsys.readouterr()
    assert "deterministic metric changed" in out.out
    assert "BenchmarkRegressionError" in out.err
    # Gate-only mode appended nothing even though it failed.
    assert len((tmp_path / "h.jsonl").read_text().splitlines()) == 1


def test_check_fails_on_guard_floor(fake_registry, tmp_path, capsys):
    registry._REGISTRY["cache"] = dataclasses.replace(
        fake_registry["cache"], run=lambda rounds: {"cache_speedup": 1.1},
    )
    assert bench(tmp_path, "--check") == 3
    assert "[FAIL] cache.guard: too slow" in capsys.readouterr().out


def test_band_gate_fails_against_rolling_history(fake_registry, tmp_path,
                                                 capsys):
    for _ in range(3):
        assert bench(tmp_path) == 0
    registry._REGISTRY["engine"] = dataclasses.replace(
        fake_registry["engine"],
        run=lambda rounds: {
            "benchmark": "fake", "rounds": rounds,
            "simulated_makespan_seconds": 258.76, "wall_seconds_best": 41.0,
        },
    )
    assert bench(tmp_path, "--check") == 3
    assert "rolling median" in capsys.readouterr().out


def test_unknown_section_is_config_error(fake_registry, tmp_path):
    assert bench(tmp_path, "--sections", "warp-drive") == 2


@pytest.mark.parametrize("rounds", ["0", "-2"])
def test_rounds_below_one_is_config_error(fake_registry, tmp_path, capsys,
                                          rounds):
    # A usage error: argparse rejects the count before any section runs.
    with pytest.raises(SystemExit) as excinfo:
        bench(tmp_path, "--rounds", rounds)
    assert excinfo.value.code == 2
    assert "--rounds: must be a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "h.jsonl").exists()


@pytest.mark.parametrize("flag", [
    ["--output", "snap.json"], ["--skip-slow"], ["--max-history", "2"],
])
def test_removed_flags_are_usage_errors(fake_registry, tmp_path, flag):
    with pytest.raises(SystemExit) as excinfo:
        bench(tmp_path, *flag)
    assert excinfo.value.code == 2


def test_json_output_carries_verdicts(fake_registry, tmp_path, capsys):
    assert bench(tmp_path, "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert {v["section"] for v in payload["verdicts"]} == {"engine", "cache"}
    assert payload["sections"]["cache"] == {"cache_speedup": 30.0}


def test_list_prints_registry(fake_registry, capsys):
    assert main(["bench", "--list"]) == 0
    out = capsys.readouterr().out
    assert "fake engine" in out
    assert "simulated_makespan_seconds=exact" in out


def test_report_renders_history_trajectories(fake_registry, tmp_path, capsys):
    assert bench(tmp_path) == 0
    assert bench(tmp_path) == 0
    capsys.readouterr()  # drop the two run reports
    assert bench(tmp_path, "--report") == 0
    out = capsys.readouterr().out
    assert "bench history: 2 record(s)" in out
    assert "fingerprint" in out
    assert "engine.simulated_makespan_seconds" in out
    assert "->" in out


def test_report_on_empty_history(fake_registry, tmp_path, capsys):
    assert bench(tmp_path, "--report") == 0
    out = capsys.readouterr().out
    assert "0 record(s)" in out
    assert "no records yet" in out


def test_report_runs_no_sections(fake_registry, tmp_path, capsys):
    # --report is a pure read: it must not append a record even though
    # the normal path would.
    assert bench(tmp_path, "--report") == 0
    assert not (tmp_path / "h.jsonl").exists()
