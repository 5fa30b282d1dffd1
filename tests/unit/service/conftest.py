"""Fixtures shared by the service tests."""

import pytest

from repro.cli import WORKLOADS
from repro.pipeline import ResultCache, SpecSource


@pytest.fixture(scope="session")
def profiled_shard():
    """One lr-small profiling run, exported for seeding per-test caches.

    Engines profile on three nodes by default, so a cache seeded with
    this shard serves lr-small's report without re-profiling.
    """
    cache = ResultCache()
    SpecSource(WORKLOADS["lr-small"](), profile_nodes=3).resolve(cache)
    return cache.export_shard()
