"""Smoke tests of the benchmark itself (8 ranks, one app per workload).

Run from the repository root::

    python3 -m pytest -q layerbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
RUN = BENCH / "run.py"
WORKLOADS = ("cold-pipeline", "platform-sweep", "engine-grid", "observed-replay")
COUNTS = ("dimemas.events", "core.chunks_created", "tracer.records")


def run_bench(*args: str, cwd: Path = ROOT) -> tuple[int, str, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "layerbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, proc.stdout + proc.stderr, result


def smoke(workload: str, trace: int, seed: int = 0):
    return run_bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace), "--smoke")


def declared(kind: str) -> dict[str, str]:
    """``name -> unit`` of the metrics BENCHMARK.json declares."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind):
    code, out, result = smoke(workload, trace)
    assert code == 0, out
    assert result is not None and result["correct"] is True, out
    assert result["attempted"] >= 1 and result["failed"] == 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared(kind)
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values()), result


def test_counts_repeat_exactly():
    runs = [smoke("cold-pipeline", 1, seed=seed)[2] for seed in (1, 2)]
    for name in COUNTS:
        values = [r["metrics"][name]["value"] for r in runs]
        assert values[0] > 0 and values[0] == values[1], (name, values)


def copy_bench(dest: Path) -> None:
    """The benchmark's files and BENCHMARK.json, copied under ``dest``."""
    shutil.copytree(BENCH, dest / "layerbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")


def test_corrupted_reference_fails_the_run(tmp_path):
    copy_bench(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    path = tmp_path / "layerbench" / "references-smoke.json"
    refs = json.loads(path.read_text())
    refs["replay/cg/ideal/default/table1"]["duration"] *= 1.0 + 1e-12
    path.write_text(json.dumps(refs))
    code, out, result = run_bench("--workload", "cold-pipeline", "--seed", "0",
                                  "--seconds", "0", "--trace", "0", "--smoke",
                                  cwd=tmp_path)
    assert code != 0
    assert result is not None and result["correct"] is False
    assert result["failed"] >= 1, out


def test_without_the_program_it_fails_without_a_result(tmp_path):
    copy_bench(tmp_path)
    code, out, result = run_bench("--workload", "cold-pipeline", "--seed", "1",
                                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert result is None, out
