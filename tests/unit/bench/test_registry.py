"""The section registry and the built-in section declarations."""

from __future__ import annotations

import pytest

import repro.bench as bench
from repro.bench.registry import BenchmarkSection
from repro.errors import ConfigurationError

BUILTINS = ["engine", "cache", "search", "resilience", "parallel",
            "vectorized", "multitenant", "service"]


def test_builtin_sections_registered_in_order():
    assert bench.section_names() == BUILTINS


def test_snapshot_keys_match_legacy_layout():
    keys = {s.name: s.snapshot_key for s in bench.all_sections()}
    assert keys == {
        "engine": None,
        "cache": "core_sweep",
        "search": "optimizer_search",
        "resilience": "resilience",
        "parallel": "parallel",
        "vectorized": "vectorized",
        "multitenant": "multitenant",
        "service": "service",
    }


def test_slow_flags():
    slow = {s.name for s in bench.all_sections() if s.slow}
    assert slow == {"cache", "parallel"}


def test_resolve_default_is_everything():
    assert [s.name for s in bench.resolve_sections()] == BUILTINS


def test_resolve_skip_slow_drops_flagged():
    names = [s.name for s in bench.resolve_sections(skip_slow=True)]
    assert names == ["engine", "search", "resilience", "vectorized",
                     "multitenant", "service"]


def test_resolve_explicit_names_never_slow_filtered():
    sections = bench.resolve_sections(["cache"], skip_slow=True)
    assert [s.name for s in sections] == ["cache"]


def test_resolve_preserves_registry_order_and_dedups():
    sections = bench.resolve_sections(["vectorized", "engine", "engine"])
    assert [s.name for s in sections] == ["engine", "vectorized"]


def test_resolve_unknown_name_is_config_error():
    with pytest.raises(ConfigurationError, match="unknown benchmark"):
        bench.resolve_sections(["engine", "warp-drive"])


def test_duplicate_registration_rejected():
    with pytest.raises(ConfigurationError, match="already registered"):
        bench.register_section(BenchmarkSection(
            name="engine", title="imposter", snapshot_key=None,
            run=lambda rounds: {},
        ))


def test_every_builtin_declares_gates():
    for section in bench.all_sections():
        assert section.gates, f"{section.name} has no regression gates"


def test_compose_snapshot_legacy_shape():
    snapshot = bench.compose_snapshot({
        "engine": {"benchmark": "gatk4-md-stage", "wall_seconds_best": 0.1},
        "cache": {"cache_speedup": 30.0},
        "vectorized": {"numpy_cand_per_s": 2e5},
    })
    # Engine metrics merge at the top level; others nest under their key.
    assert snapshot["benchmark"] == "gatk4-md-stage"
    assert snapshot["core_sweep"] == {"cache_speedup": 30.0}
    assert snapshot["vectorized"] == {"numpy_cand_per_s": 2e5}
    assert "engine" not in snapshot


def test_compose_snapshot_partial_run_preserves_existing():
    existing = {
        "benchmark": "gatk4-md-stage",
        "wall_seconds_best": 0.1,
        "core_sweep": {"cache_speedup": 30.0},
        "vectorized": {"numpy_cand_per_s": 2e5},
    }
    snapshot = bench.compose_snapshot(
        {"engine": {"benchmark": "gatk4-md-stage", "wall_seconds_best": 0.2}},
        existing=existing,
    )
    assert snapshot["wall_seconds_best"] == 0.2
    assert snapshot["core_sweep"] == {"cache_speedup": 30.0}
    # The input mapping is not mutated.
    assert existing["wall_seconds_best"] == 0.1
