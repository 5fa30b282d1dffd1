"""The CLI and the service answer the same what-if the same way.

``repro simulate --json`` and a service ``simulate`` query share
``total_seconds`` and each stage's name, task count and makespan;
``repro optimize --json`` ranks the service ``optimize`` answer's
``best`` first and scores the same number of candidates.  Both sides
start from the same profiling report, so the fields must be equal,
not merely close.
"""

import asyncio
import json

from repro.cli import WORKLOADS, main
from repro.pipeline import ResultCache
from repro.service import QueryEngine

NAME = "lr-small"
SLAVES, CORES = 2, 4


def _cli(capsys, argv) -> dict:
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def _service(profiled_shard, payload) -> dict:
    cache = ResultCache()
    cache.merge_shard(profiled_shard)

    async def scenario():
        async with QueryEngine({NAME: WORKLOADS[NAME]()}, cache=cache) as engine:
            return await engine.submit(payload)

    return json.loads(json.dumps(asyncio.run(scenario())))


def _stages(payload: dict) -> list[tuple]:
    return [
        (stage["name"], stage["num_tasks"], stage["makespan_seconds"])
        for stage in payload["stages"]
    ]


def test_simulate_agrees(capsys, profiled_shard):
    cli = _cli(capsys, [
        "simulate", NAME, "--slaves", str(SLAVES), "--cores", str(CORES),
        "--json",
    ])
    service = _service(profiled_shard, {
        "kind": "simulate", "workload": NAME, "slaves": SLAVES,
        "cores": CORES,
    })
    assert cli["total_seconds"] == service["total_seconds"]
    assert _stages(cli) == _stages(service)


def test_optimize_agrees(capsys, profiled_shard, tmp_path):
    # Seed the CLI's cache file with the service's report, so both sides
    # search over the same fitted constants.
    path = tmp_path / "cache.json"
    seeded = ResultCache(path)
    seeded.merge_shard(profiled_shard)
    seeded.save()
    cli = _cli(capsys, [
        "optimize", "--workload", NAME, "--cache", str(path), "--json",
    ])
    service = _service(profiled_shard, {"kind": "optimize", "workload": NAME})
    top = dict(cli["top"][0])
    assert top.pop("rank") == 1
    assert top == service["best"]
    assert cli["num_evaluated"] == service["num_evaluated"]
