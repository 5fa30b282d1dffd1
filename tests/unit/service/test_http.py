"""QueryServer: routes, error mapping, HTTP round trips on port 0."""

import asyncio
import json

import pytest

from repro.cli import WORKLOADS
from repro.pipeline import ResultCache
from repro.service import QueryEngine, QueryServer
from repro.service.http import MAX_BODY_BYTES
from repro.service.loadgen import _http_get, _http_post, _split_url

NAME = "lr-small"
SPEC = WORKLOADS[NAME]()


def server_cache(profiled_shard) -> ResultCache:
    cache = ResultCache()
    cache.merge_shard(profiled_shard)
    return cache


async def raw_request(host: str, port: int, blob: bytes) -> tuple[int, dict]:
    """Send raw bytes, return (status, parsed JSON body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(blob)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b"\r\n", 1)[0].split()[1])
    return status, json.loads(body.decode() or "null")


def post_blob(path: str, body: bytes) -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode() + body


class TestRoutes:
    def test_healthz_stats_and_query_round_trip(self, profiled_shard):
        async def scenario():
            engine = QueryEngine({NAME: SPEC}, cache=server_cache(profiled_shard))
            server = QueryServer(engine, port=0)  # port 0: kernel picks one
            await server.start()
            try:
                host, port = server.address
                assert port != 0
                health = await _http_get(host, port, "/healthz")
                assert health == {"status": "ok"}
                answer = await _http_post(
                    host,
                    port,
                    "/query",
                    {
                        "kind": "predict",
                        "workload": NAME,
                        "vcpus": 16,
                        "hdfs_kind": "pd-ssd",
                        "hdfs_gb": 512,
                        "local_kind": "pd-ssd",
                        "local_gb": 1024,
                    },
                )
                assert answer["kind"] == "predict"
                assert answer["runtime_seconds"] > 0
                stats = await _http_get(host, port, "/stats")
                assert stats["queries"] == 1
            finally:
                await server.close()

        asyncio.run(scenario())

    def test_error_statuses(self, profiled_shard):
        async def scenario():
            engine = QueryEngine({NAME: SPEC}, cache=server_cache(profiled_shard))
            server = QueryServer(engine, port=0)
            await server.start()
            host, port = server.address
            try:
                # Unknown route -> 404.
                status, body = await raw_request(
                    host,
                    port,
                    b"GET /nope HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
                )
                assert status == 404 and body["error"] == "NotFound"
                # GET on /query -> 405.
                status, body = await raw_request(
                    host,
                    port,
                    b"GET /query HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
                )
                assert status == 405
                # Non-JSON body -> 400.
                status, body = await raw_request(
                    host, port, post_blob("/query", b"{not json")
                )
                assert status == 400 and "JSON" in body["message"]
                # Bad query (unknown kind) -> 400 QueryError.
                status, body = await raw_request(
                    host, port, post_blob("/query", b'{"kind": "explain"}')
                )
                assert status == 400 and body["error"] == "QueryError"
                # An optimize field outside the schema (prune) -> 400
                # QueryError, like any other unknown field.
                status, body = await raw_request(
                    host,
                    port,
                    post_blob(
                        "/query",
                        json.dumps({
                            "kind": "optimize", "workload": NAME,
                            "prune": True,
                        }).encode(),
                    ),
                )
                assert status == 400 and body["error"] == "QueryError"
                assert "prune" in body["message"]
                # Oversized body -> 413 before reading it.
                huge = (
                    f"POST /query HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {MAX_BODY_BYTES + 1}\r\n"
                    f"Connection: close\r\n\r\n"
                ).encode()
                status, body = await raw_request(host, port, huge)
                assert status == 413
                # Empty request line -> 400.
                status, body = await raw_request(host, port, b"\r\n")
                assert status == 400
            finally:
                await server.close()

        asyncio.run(scenario())


class TestSplitUrl:
    def test_accepts_with_and_without_scheme(self):
        assert _split_url("http://127.0.0.1:8642") == ("127.0.0.1", 8642)
        assert _split_url("127.0.0.1:9000") == ("127.0.0.1", 9000)
        assert _split_url("http://localhost") == ("localhost", 80)

    def test_rejects_garbage(self):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError, match="cannot parse"):
            _split_url("http://")
