"""Checkpoint/resume: journal invariants, drain, guards, degradation.

Covers the write-ahead journal (checksummed lines, idempotent replay,
torn-tail recovery), the engine's serve-without-re-execution resume
path, graceful drain on SIGTERM/SIGINT, the RSS and disk-space guards,
cache degrade-to-memory, PID-recycling-safe staging sweeps, and the
run-manifest resume bookkeeping.
"""

from __future__ import annotations

import json
import os
import signal
import time
from pathlib import Path

import pytest

from repro.experiments import (
    CampaignInterrupted,
    CheckpointJournal,
    ExperimentEngine,
    GridPoint,
    expand_grid,
    graceful_drain,
    list_runs,
    point_key,
    replay_journal,
)
from repro.experiments import cache as cache_mod
from repro.experiments.cache import (
    SimResultCache,
    TraceCache,
    _sweep_orphan_tmps,
    _writer_alive,
    _writer_token,
    sweep_cache_dir,
)
from repro.experiments.checkpoint import _seal_line, render_runs_table
from repro.experiments.parallel import WorkerMemoryError
from repro.obs import RunContext, get_registry

#: A tiny Sweep3D instance so traces build in milliseconds.
TINY = dict(nx=8, ny=8, nz=4, mk=2, angle_block=2, iterations=1)

#: A grid point that fails identically on every attempt.
POISON = GridPoint(app="no_such_app", nranks=4)


def tiny_points():
    return expand_grid(
        ["sweep3d"],
        variants=("original", "real"),
        bandwidths=(None, 100.0),
        nranks=4,
        app_params=TINY,
    )


def counter(name: str) -> float:
    return get_registry().counter(name).value


# --------------------------------------------------------------------------- #
# Journal line format and replay.
# --------------------------------------------------------------------------- #

class TestJournalReplay:
    def test_record_and_replay_roundtrip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CheckpointJournal(path, run_id="r") as j:
            j.record("k1", "duration", {"duration": 1.5})
            j.record("k2", "failure", {"kind": "exception", "error": "boom"})
        entries, max_seq, dropped = replay_journal(path)
        assert dropped == 0
        assert max_seq == 2
        assert entries[("k1", "duration")].payload == {"duration": 1.5}
        assert entries[("k2", "failure")].payload["error"] == "boom"

    def test_replay_twice_equals_replay_once(self, tmp_path):
        """Idempotence: a journal replayed twice gives the same state."""
        path = tmp_path / "journal.jsonl"
        with CheckpointJournal(path, run_id="r") as j:
            for i in range(10):
                j.record(f"k{i % 4}", "duration", {"duration": float(i)})
        once = replay_journal(path)
        twice = replay_journal(path)
        assert once == twice
        # Later duplicates win: k0 was last written at i=8.
        assert once[0][("k0", "duration")].payload == {"duration": 8.0}

    def test_truncated_trailing_line_dropped_and_point_reruns(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CheckpointJournal(path, run_id="r") as j:
            j.record("keep", "duration", {"duration": 1.0})
            j.record("torn", "duration", {"duration": 2.0})
        # Simulate a torn write: chop the tail of the last line.
        text = path.read_text()
        path.write_text(text[: len(text) - 25])
        entries, _, dropped = replay_journal(path)
        assert dropped == 1
        assert ("keep", "duration") in entries
        assert ("torn", "duration") not in entries  # must re-run

    def test_garbled_line_detected_by_checksum(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        line = _seal_line(1, {"point": "k", "mode": "duration",
                              "payload": {"duration": 3.0}})
        # Bit-flip inside the payload but keep the JSON well-formed.
        path.write_text(line.replace("3.0", "9.0") + "\n")
        entries, _, dropped = replay_journal(path)
        assert dropped == 1
        assert not entries

    def test_foreign_garbage_lines_dropped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('not json at all\n{"schema": 999}\n')
        entries, _, dropped = replay_journal(path)
        assert dropped == 2 and not entries

    def test_reopened_journal_continues_sequence(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CheckpointJournal(path) as j:
            j.record("a", "duration", {"duration": 1.0})
        with CheckpointJournal(path) as j:
            j.record("b", "duration", {"duration": 2.0})
        _, max_seq, _ = replay_journal(path)
        assert max_seq == 2  # monotone across reopen, no seq reuse


class TestPointKey:
    def test_distinct_specs_distinct_keys(self):
        pts = tiny_points()
        keys = {point_key(p) for p in pts}
        assert len(keys) == len(pts)

    def test_key_stable_for_equal_points(self):
        a, b = tiny_points()[0], tiny_points()[0]
        assert point_key(a) == point_key(b)


# --------------------------------------------------------------------------- #
# Engine resume: serve journaled completions without re-execution.
# --------------------------------------------------------------------------- #

class TestEngineResume:
    def test_resume_serves_without_reexecution(self, tmp_path):
        pts = tiny_points()
        path = tmp_path / "journal.jsonl"
        with CheckpointJournal(path, run_id="r1") as j:
            with ExperimentEngine(jobs=1, checkpoint=j) as eng:
                first = eng.run_grid(pts)
        replayed0 = counter("checkpoint.replayed")
        executed0 = counter("engine.points_executed")
        with CheckpointJournal(path, run_id="r1") as j:
            with ExperimentEngine(jobs=1, checkpoint=j) as eng:
                second = eng.run_grid(pts)
        assert [r.to_dict() for r in second] == [r.to_dict() for r in first]
        assert counter("engine.points_executed") == executed0
        assert counter("checkpoint.replayed") == replayed0 + len(pts)

    def test_result_entry_serves_duration_request(self, tmp_path):
        pts = tiny_points()[:2]
        path = tmp_path / "journal.jsonl"
        with CheckpointJournal(path) as j:
            with ExperimentEngine(jobs=1, checkpoint=j) as eng:
                results = eng.run_grid(pts)
        executed0 = counter("engine.points_executed")
        with CheckpointJournal(path) as j:
            with ExperimentEngine(jobs=1, checkpoint=j) as eng:
                durs = eng.durations(pts)
        assert durs == [r.duration for r in results]
        assert counter("engine.points_executed") == executed0

    def test_journal_and_cache_agree_bitwise(self, tmp_path):
        """A journal-served result equals the cache/simulate result."""
        pts = tiny_points()[:2]
        cache_dir = tmp_path / "cache"
        path = tmp_path / "journal.jsonl"
        with CheckpointJournal(path) as j:
            with ExperimentEngine(jobs=1, cache_dir=cache_dir,
                                  checkpoint=j) as eng:
                first = eng.run_grid(pts)
        # Fresh engine, no journal: cache (or simulation) answers.
        with ExperimentEngine(jobs=1, cache_dir=cache_dir) as eng:
            second = eng.run_grid(pts)
        assert [r.to_dict() for r in first] == [r.to_dict() for r in second]

    def test_degraded_resume_restores_quarantine(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CheckpointJournal(path) as j:
            with ExperimentEngine(jobs=1, degraded=True, checkpoint=j) as eng:
                out = eng.durations([POISON])
        assert out[0] is eng.quarantine[POISON]
        executed0 = counter("engine.points_executed")
        quarantined0 = counter("engine.quarantined")
        with CheckpointJournal(path) as j:
            with ExperimentEngine(jobs=1, degraded=True, checkpoint=j) as eng:
                out = eng.durations([POISON])
                assert POISON in eng.quarantine
                assert out[0].kind == "exception"
        # Restored, not re-run: no execution, no fresh quarantine count.
        assert counter("engine.points_executed") == executed0
        assert counter("engine.quarantined") == quarantined0

    def test_strict_engine_gives_journaled_failure_a_fresh_chance(
            self, tmp_path):
        from repro.experiments import GridExecutionError
        path = tmp_path / "journal.jsonl"
        with CheckpointJournal(path) as j:
            with ExperimentEngine(jobs=1, degraded=True, checkpoint=j) as eng:
                eng.durations([POISON])
        with CheckpointJournal(path) as j:
            with ExperimentEngine(jobs=1, checkpoint=j) as eng:
                with pytest.raises(GridExecutionError):
                    eng.durations([POISON])

    def test_corrupt_result_payload_reruns_point(self, tmp_path):
        pts = tiny_points()[:1]
        path = tmp_path / "journal.jsonl"
        with CheckpointJournal(path) as j:
            with ExperimentEngine(jobs=1, checkpoint=j) as eng:
                first = eng.run_grid(pts)
        # Corrupt the journaled payload (well-formed line, bogus result).
        key = point_key(pts[0])
        path.write_text(_seal_line(1, {
            "point": key, "mode": "result", "payload": {"result": {"x": 1}},
        }) + "\n")
        executed0 = counter("engine.points_executed")
        with CheckpointJournal(path) as j:
            with ExperimentEngine(jobs=1, checkpoint=j) as eng:
                second = eng.run_grid(pts)
        assert counter("engine.points_executed") == executed0 + 1
        assert second[0].to_dict() == first[0].to_dict()


# --------------------------------------------------------------------------- #
# Graceful drain.
# --------------------------------------------------------------------------- #

class TestGracefulDrain:
    def test_drain_raises_campaign_interrupted_serial(self, tmp_path):
        pts = tiny_points()
        with CheckpointJournal(tmp_path / "j.jsonl", run_id="rX") as j:
            with ExperimentEngine(jobs=1, checkpoint=j) as eng:
                eng.request_drain()
                with pytest.raises(CampaignInterrupted) as ei:
                    eng.run_grid(pts)
        assert ei.value.resumable
        assert ei.value.run_id == "rX"
        assert ei.value.remaining == len(pts)

    def test_drain_without_journal_not_resumable(self):
        with ExperimentEngine(jobs=1) as eng:
            eng.request_drain()
            with pytest.raises(CampaignInterrupted) as ei:
                eng.durations(tiny_points())
        assert not ei.value.resumable

    def test_sigterm_requests_drain_then_resume_completes(self, tmp_path):
        pts = tiny_points()
        path = tmp_path / "j.jsonl"
        with CheckpointJournal(path, run_id="r") as j:
            with ExperimentEngine(jobs=1, checkpoint=j) as eng:
                with graceful_drain(eng):
                    os.kill(os.getpid(), signal.SIGTERM)
                    deadline = time.monotonic() + 5.0
                    while (not eng.drain_requested
                           and time.monotonic() < deadline):
                        time.sleep(0.01)
                    assert eng.drain_requested
                    with pytest.raises(CampaignInterrupted):
                        eng.run_grid(pts)
        # The old handler is restored and the campaign resumes cleanly.
        with CheckpointJournal(path, run_id="r") as j:
            with ExperimentEngine(jobs=1, checkpoint=j) as eng:
                assert len(eng.run_grid(pts)) == len(pts)

    def test_second_signal_escalates_to_keyboardinterrupt(self):
        with ExperimentEngine(jobs=1) as eng:
            with graceful_drain(eng):
                os.kill(os.getpid(), signal.SIGINT)
                deadline = time.monotonic() + 5.0
                while (not eng.drain_requested
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                assert eng.drain_requested
                with pytest.raises(KeyboardInterrupt):
                    os.kill(os.getpid(), signal.SIGINT)
                    t0 = time.monotonic()
                    while time.monotonic() - t0 < 5.0:
                        time.sleep(0.01)

    def test_drain_preserves_completed_prefix(self, tmp_path):
        """Points journaled before the drain are served on resume."""
        pts = tiny_points()
        path = tmp_path / "j.jsonl"
        with CheckpointJournal(path, run_id="r") as j:
            with ExperimentEngine(jobs=1, checkpoint=j) as eng:
                done = eng.durations(pts[:2])  # journaled
                eng.request_drain()
                with pytest.raises(CampaignInterrupted):
                    eng.durations(pts)
        executed0 = counter("engine.points_executed")
        with CheckpointJournal(path, run_id="r") as j:
            with ExperimentEngine(jobs=1, checkpoint=j) as eng:
                full = eng.durations(pts)
        assert full[:2] == done
        # Only the tail had to execute.
        assert counter("engine.points_executed") == executed0 + len(pts) - 2


# --------------------------------------------------------------------------- #
# Resource guards: RSS watchdog and disk low-water.
# --------------------------------------------------------------------------- #

class TestResourceGuards:
    def test_rss_guard_converts_oom_into_journaled_failure(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FAKE_RSS_MB", "4096")
        trips0 = counter("engine.rss_guard_trips")
        path = tmp_path / "j.jsonl"
        with CheckpointJournal(path) as j:
            with ExperimentEngine(jobs=1, degraded=True, checkpoint=j,
                                  rss_limit_mb=512) as eng:
                out = eng.durations(tiny_points()[:1])
        assert out[0].kind == "exception"
        assert "WorkerMemoryError" in out[0].error
        assert counter("engine.rss_guard_trips") == trips0 + 1
        entries, _, _ = replay_journal(path)
        assert any(mode == "failure" for (_, mode) in entries)

    def test_rss_guard_inactive_without_limit(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FAKE_RSS_MB", "4096")
        with ExperimentEngine(jobs=1) as eng:
            assert len(eng.durations(tiny_points()[:1])) == 1

    def test_rss_limit_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_RSS_LIMIT_MB", "512")
        with ExperimentEngine(jobs=1) as eng:
            assert eng.rss_limit_mb == 512.0

    def test_worker_memory_error_is_memory_error(self):
        assert issubclass(WorkerMemoryError, MemoryError)

    def test_journal_degrades_on_low_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MIN_FREE_MB", str(10 ** 9))  # ~1 PB floor
        degraded0 = counter("checkpoint.degraded")
        with CheckpointJournal(tmp_path / "j.jsonl") as j:
            j.record("k", "duration", {"duration": 1.0})
            assert j.degraded
            # Degraded appends still index in memory for this session.
            assert j.lookup("k", "duration") is not None
        assert counter("checkpoint.degraded") == degraded0 + 1
        entries, _, _ = replay_journal(tmp_path / "j.jsonl")
        assert not entries  # nothing was persisted

    def test_journal_degrades_on_unwritable_path(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        j = CheckpointJournal(blocker / "sub" / "j.jsonl")
        assert j.degraded
        j.record("k", "duration", {"duration": 1.0})  # must not raise
        j.close()


# --------------------------------------------------------------------------- #
# Satellite 1: caches degrade to memory instead of crashing.
# --------------------------------------------------------------------------- #

class TestCacheDegrade:
    def test_sim_cache_enospc_degrades_once(self, tmp_path, monkeypatch):
        cache = SimResultCache(tmp_path / "replays")

        def explode(path, text):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cache_mod, "_stage_and_publish", explode)
        degraded0 = counter("cache.degraded")
        from repro.experiments.pipeline import AppExperiment
        exp = AppExperiment("sweep3d", nranks=4, app_params=TINY)
        trace = exp.trace("original")
        res = cache.load_or_simulate(trace, exp.machine)
        assert cache.degraded
        assert counter("cache.degraded") == degraded0 + 1
        # The in-memory fallback still answers, bit-identically.
        again = cache.load(cache.key(trace, exp.machine))
        assert again is not None
        assert again.to_dict() == res.to_dict()
        # Degrading twice does not double-count.
        cache._degrade("again")
        assert counter("cache.degraded") == degraded0 + 1

    def test_sim_cache_unusable_dir_degrades_at_init(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        cache = SimResultCache(blocker / "replays")
        assert cache.degraded
        cache.put_digest("spec", "a" * 24)  # must not raise
        assert cache.get_digest("spec") == "a" * 24

    def test_trace_cache_degrades_and_serves_from_memory(
            self, tmp_path, monkeypatch):
        cache = TraceCache(tmp_path / "traces")

        def explode(path, text):
            raise OSError(30, "Read-only file system")

        monkeypatch.setattr(cache_mod, "_stage_and_publish", explode)
        from repro.experiments.pipeline import AppExperiment
        exp = AppExperiment("sweep3d", nranks=4, app_params=TINY)
        built = []

        def builder():
            built.append(1)
            return exp.trace("original")

        t1 = cache.load_or_build("k", builder)
        cache.flush()  # publication (and hence the degrade) is async
        assert cache.degraded
        t2 = cache.load_or_build("k", builder)
        assert len(built) == 1  # second call was a memory hit
        assert t1 is t2

    def test_disk_low_floor_degrades_publish(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MIN_FREE_MB", str(10 ** 9))
        cache = SimResultCache(tmp_path / "replays")
        assert not cache.degraded  # init does not write entries
        assert not cache._publish(tmp_path / "replays" / "x.json", "{}")
        assert cache.degraded


# --------------------------------------------------------------------------- #
# Satellite 2: PID-recycling-safe staging sweeps.
# --------------------------------------------------------------------------- #

class TestWriterIdentity:
    DEAD_PID = 2 ** 22 + 12345

    def test_own_token_alive(self):
        assert _writer_alive(str(os.getpid()))
        assert _writer_alive(_writer_token())

    def test_dead_pid_not_alive_either_format(self):
        assert not _writer_alive(str(self.DEAD_PID))
        assert not _writer_alive(f"{self.DEAD_PID}-12345")

    def test_recycled_pid_detected_by_start_time(self):
        # A live PID recorded with a different start time is a recycle.
        assert not _writer_alive(f"{os.getpid()}-1")

    def test_sweep_removes_recycled_pid_tmp(self, tmp_path):
        live_but_recycled = tmp_path / f"entry.dim.{os.getpid()}-1.tmp"
        live_but_recycled.write_text("garbage")
        ours = tmp_path / f"entry2.dim.{_writer_token()}.tmp"
        ours.write_text("mid-publish")
        assert _sweep_orphan_tmps(tmp_path) == 1
        assert not live_but_recycled.exists()
        assert ours.exists()  # genuinely-live writer left alone

    def test_sweep_cache_dir_handles_both_token_formats(self, tmp_path):
        for sub in ("traces", "replays", "replays/columns"):
            d = tmp_path / sub
            d.mkdir()
            (d / f"k.x.{os.getpid()}.tmp").write_text("legacy own")
            (d / f"k.y.{_writer_token()}.tmp").write_text("new own")
            (d / f"k.z.{self.DEAD_PID}-7.tmp").write_text("dead writer")
        assert sweep_cache_dir(tmp_path) == 9
        for sub in ("traces", "replays", "replays/columns"):
            assert not list((tmp_path / sub).glob("*.tmp"))

    def test_stage_and_publish_uses_start_time_token(self, tmp_path):
        seen = []
        orig_replace = Path.replace

        def spy(self, target):
            seen.append(self.name)
            return orig_replace(self, target)

        Path.replace = spy
        try:
            cache_mod._stage_and_publish(tmp_path / "out.json", "{}")
        finally:
            Path.replace = orig_replace
        # <name>.<pid>-<ticks>-<serial>.tmp — the serial keeps sibling
        # publisher threads off each other's staging file
        assert seen
        prefix = f"out.json.{_writer_token()}-"
        assert seen[0].startswith(prefix) and seen[0].endswith(".tmp")
        assert seen[0][len(prefix):-len(".tmp")].isdigit()
        assert (tmp_path / "out.json").read_text() == "{}"


# --------------------------------------------------------------------------- #
# Manifest resume + operator tooling.
# --------------------------------------------------------------------------- #

class TestManifestResume:
    def test_resume_increments_seq_and_merges_counters(self, tmp_path):
        reg = get_registry()
        run = RunContext(tmp_path, command="t", run_id="run-a")
        reg.counter("test.ckpt.points").inc(3)
        m1 = run.finalize(status="interrupted")
        assert m1["run_seq"] == 1
        base = m1["merged_counters"]["test.ckpt.points"]

        reg.reset()  # a real resume is a fresh process
        run2 = RunContext(tmp_path, command="t", run_id="run-a", resume=True)
        reg.counter("test.ckpt.points").inc(2)
        m2 = run2.finalize(status="ok")
        assert m2["run_seq"] == 2
        assert m2["merged_counters"]["test.ckpt.points"] == base + 2
        # The per-session snapshot is NOT inflated by prior sequences.
        assert m2["metrics"]["counters"]["test.ckpt.points"] == 2

        events = [json.loads(line) for line in
                  (tmp_path / "run-a" / "events.jsonl").read_text()
                  .splitlines()]
        kinds = [e["kind"] for e in events]
        assert "resumed_from" in kinds
        assert kinds.count("run_start") == 2

    def test_resume_requires_existing_run(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            RunContext(tmp_path, run_id="no-such-run", resume=True)
        with pytest.raises(ValueError):
            RunContext(tmp_path, resume=True)

    def test_list_runs_reports_progress_and_resumability(self, tmp_path):
        run = RunContext(tmp_path, command="repro-report", run_id="run-x")
        with CheckpointJournal(run.dir / "journal.jsonl", run_id="run-x") as j:
            j.record("p1", "result", {"result": {}})
            j.record("p2", "failure", {"kind": "exception", "error": "e"})
        run.finalize(status="interrupted")

        done = RunContext(tmp_path, command="repro-report", run_id="run-y")
        done.finalize(status="ok")

        runs = {r["run_id"]: r for r in list_runs(tmp_path)}
        assert runs["run-x"]["resumable"]
        assert runs["run-x"]["points"] == 2
        assert runs["run-x"]["failures"] == 1
        assert not runs["run-y"]["resumable"]
        table = render_runs_table(list(runs.values()))
        assert "run-x" in table and "repro-report" in table

    def test_list_runs_empty(self, tmp_path):
        assert list_runs(tmp_path / "nowhere") == []
        assert render_runs_table([]) == "no runs found"


class TestWorkerFunnelIsolation:
    def test_configure_worker_drops_inherited_deltas(self):
        """A forked worker must not re-report the parent's pre-fork
        activity: its first flushed payload starts from zero deltas."""
        from repro.obs import collect_worker_payload, configure_worker
        get_registry().counter("test.ckpt.prefork").inc(5)
        configure_worker(None)  # what _worker_init runs after the fork
        payload = collect_worker_payload()
        assert "test.ckpt.prefork" not in payload["metrics"]["counters"]
        # The counter value itself survives — only the delta is drained.
        assert counter("test.ckpt.prefork") == 5
