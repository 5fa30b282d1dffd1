"""The append-only history store: append, load, corruption."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.history import (
    BenchHistory,
    fingerprint_key,
    host_fingerprint,
    make_record,
)


def test_append_one_line_per_record(tmp_path):
    history = BenchHistory(tmp_path / "h.jsonl")
    history.append({"a": 1})
    history.append({"b": 2})
    lines = (tmp_path / "h.jsonl").read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0]) == {"a": 1}
    assert json.loads(lines[1]) == {"b": 2}


def test_load_missing_file_is_empty(tmp_path):
    assert BenchHistory(tmp_path / "nope.jsonl").load() == []


def test_load_roundtrip_preserves_order(tmp_path):
    history = BenchHistory(tmp_path / "h.jsonl")
    for index in range(5):
        history.append({"run": index})
    assert [r["run"] for r in history.load()] == [0, 1, 2, 3, 4]
    assert len(history) == 5


def test_corrupt_line_skipped_with_warning(tmp_path):
    path = tmp_path / "h.jsonl"
    history = BenchHistory(path)
    history.append({"run": 0})
    with open(path, "a") as handle:
        handle.write('{"run": 1, "truncated...\n')
    history.append({"run": 2})
    with pytest.warns(UserWarning, match="corrupt line 2"):
        records = history.load()
    assert [r["run"] for r in records] == [0, 2]


def test_non_dict_line_skipped_with_warning(tmp_path):
    path = tmp_path / "h.jsonl"
    path.write_text('{"run": 0}\n[1, 2, 3]\n')
    with pytest.warns(UserWarning, match="non-record line 2"):
        records = BenchHistory(path).load()
    assert records == [{"run": 0}]


def test_blank_lines_ignored(tmp_path):
    path = tmp_path / "h.jsonl"
    path.write_text('{"run": 0}\n\n\n{"run": 1}\n')
    assert len(BenchHistory(path).load()) == 2


def test_fingerprint_key_shape():
    key = fingerprint_key({
        "cpus": 4, "python": "3.11.7", "numpy": "1.26.0",
        "arrays_backend": "numpy",
    })
    assert key == "cpu4-py3.11-numpy-numpy"
    key = fingerprint_key({"cpus": 1, "python": "3.12.1", "numpy": "2.0.0"})
    assert key == "cpu1-py3.12-numpy-numpy"


def test_committed_history_keys_match_this_host():
    # Records written while the kernel backend was selectable carry
    # extra fingerprint fields; they must land in the same partition as
    # a fresh record from a host with the same CPU count and python.
    committed_path = Path(__file__).parents[3] / "BENCH_history.jsonl"
    committed = json.loads(committed_path.read_text().splitlines()[0])
    assert "arrays_backend" in committed["fingerprint"]
    host = host_fingerprint()
    host["cpus"] = committed["fingerprint"]["cpus"]
    host["python"] = committed["fingerprint"]["python"]
    assert fingerprint_key(host) == fingerprint_key(committed["fingerprint"])
    assert fingerprint_key(host) == committed["fingerprint_key"]


def test_host_fingerprint_fields():
    fingerprint = host_fingerprint()
    assert fingerprint["cpus"] >= 1
    assert fingerprint["python"].count(".") == 2
    assert fingerprint["numpy"]


def test_make_record_carries_fingerprint_and_sections():
    record = make_record({"engine": {"wall": 1.0}}, rounds=2)
    assert record["sections"] == {"engine": {"wall": 1.0}}
    assert record["rounds"] == 2
    assert record["fingerprint_key"] == fingerprint_key(record["fingerprint"])
    assert record["format_version"] == 1
    assert record["timestamp"].endswith("+00:00")
