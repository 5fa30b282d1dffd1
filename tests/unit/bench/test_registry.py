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


def test_resolve_default_is_everything():
    assert [s.name for s in bench.resolve_sections()] == BUILTINS


def test_resolve_preserves_registry_order_and_dedups():
    sections = bench.resolve_sections(["vectorized", "engine", "engine"])
    assert [s.name for s in sections] == ["engine", "vectorized"]


def test_resolve_unknown_name_is_config_error():
    with pytest.raises(ConfigurationError, match="unknown benchmark"):
        bench.resolve_sections(["engine", "warp-drive"])


def test_duplicate_registration_rejected():
    with pytest.raises(ConfigurationError, match="already registered"):
        bench.register_section(BenchmarkSection(
            name="engine", title="imposter",
            run=lambda rounds: {},
        ))


def test_every_builtin_declares_gates():
    for section in bench.all_sections():
        assert section.gates, f"{section.name} has no regression gates"
