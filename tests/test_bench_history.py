"""The benchmark history stamps every line with its host."""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from bench_history import append_history, host_fingerprint, main  # noqa: E402


def test_fingerprint_names_cpus_and_runtimes():
    fp = host_fingerprint()
    assert set(fp) == {"nproc", "cpu_model", "python", "numpy"}
    assert fp["nproc"] >= 1 and fp["cpu_model"]
    assert fp["python"].count(".") == 2


def test_every_line_carries_the_host(tmp_path):
    path = tmp_path / "HISTORY.jsonl"
    append_history({"x": 1}, bench="replay", history_path=path)
    append_history({"x": 2}, bench="replay", history_path=path, note="after")
    first, second = (json.loads(ln) for ln in path.read_text().splitlines())
    assert first["host"] == second["host"] == host_fingerprint()
    assert first["results"] == {"x": 1} and "note" not in first
    assert second["note"] == "after"


def test_cli_note(tmp_path, monkeypatch):
    import bench_history
    snapshot = tmp_path / "BENCH_replay.json"
    snapshot.write_text(json.dumps({"y": 3}))
    path = tmp_path / "HISTORY.jsonl"
    monkeypatch.setattr(bench_history, "HISTORY_PATH", path)
    assert main(["--note", "before", str(snapshot)]) == 0
    line = json.loads(path.read_text())
    assert (line["bench"], line["note"], line["results"]) == (
        "replay", "before", {"y": 3})
    assert main(["--note"]) == 2
