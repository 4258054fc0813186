"""The replay core against its own pinned output.

The replay resolves message matching, request ids and protocol slots
once per trace content and keeps per-replay transfer timing in flat
lists driven by typed heap events.  None of that may change what a
replay computes.  This suite pins it:

* **Platform matrix** — every application skeleton at 16 ranks, in all
  three variants and traced with analytic collectives, on the Table I bus counts, unlimited buses, an SMP
  platform (``cores_per_node=4``) and all-rendezvous messaging
  (``eager_threshold=0``) must reproduce the stored ``duration.hex()``,
  ``result_digest`` and ``events_executed``; where the replay stalls,
  the digest of its :class:`DeadlockReport` instead.
* **Side channels** (CG) — a ``full`` audit (same violations), an
  attributed replay (occupancy log, queue causes, every wait interval
  with the timing of the transfers it blocked on), perturbed replays,
  a watchdog stop and malformed traces (post-mortem digests).

Regenerate the fixture (only when the replay is *meant* to change its
output) with::

    PYTHONPATH=src python -m tests.test_replay_identity --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

import repro.dimemas.engine as engine_mod
import repro.dimemas.network as network_mod
from repro.apps import get_app
from repro.audit.auditor import AuditConfig
from repro.audit.certify import result_digest
from repro.core.ideal import ideal_transform
from repro.core.transform import OverlapConfig, overlap_transform
from repro.dimemas.machine import MachineConfig
from repro.dimemas.postmortem import DeadlockError, ReplayError, SimulationTimeout
from repro.dimemas.replay import simulate
from repro.faults import inject
from repro.insight import collect
from repro.perturb import build_scenario

FIXTURE = Path(__file__).parent / "data" / "replay_digests.json"
APPS = ("sweep3d", "pop", "alya", "specfem3d", "bt", "cg")
VARIANTS = ("original", "real", "ideal")
PLATFORMS = ("table1", "unlimited", "smp4", "eager0")
NRANKS = 16
SCENARIOS = ("bandwidth-sag", "latency-spike", "outage-restart",
             "outage-stall", "straggler")
FAULTS = ("drop", "duplicate", "reorder", "corrupt_size", "truncate")


def _platform(app: str, label: str) -> MachineConfig:
    table1 = MachineConfig.paper_testbed(app)
    return {
        "table1": table1,
        "unlimited": table1.with_platform(buses=None),
        "smp4": table1.with_platform(cores_per_node=4),
        "eager0": table1.with_platform(eager_threshold=0),
    }[label]


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:24]


def _hx(t: float | None) -> str | None:
    return None if t is None else float(t).hex()


def _outcome(run) -> dict:
    """Pinned observables of one replay, or of the way it failed."""
    try:
        res = run()
    except (DeadlockError, SimulationTimeout) as exc:
        return {"error": type(exc).__name__,
                "report": _digest(exc.report.to_dict())}
    except ReplayError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {
        "duration": res.duration.hex(),
        "result_digest": result_digest(res),
        "events_executed": res.network_stats["events_executed"],
    }


def _insight_digest(ins) -> str:
    """Occupancy, queue causes and every wait with its transfers.

    Causes and perturbation excess are looked up through the same
    transfer objects the wait intervals hold, so the digest also pins
    that the channel's ``id()``-keyed maps and its wait tuples agree.
    """
    waits = [
        [rank, label, _hx(t0), _hx(t1), [
            [tr.src, tr.dst, tr.size, tr.tag, tr.rendezvous,
             _hx(tr.send_time), _hx(tr.recv_post_time), _hx(tr.ready_time),
             _hx(tr.start_time), _hx(tr.inject_time), _hx(tr.arrival_time),
             ins.queue_cause.get(id(tr)),
             _hx(ins.perturb_excess.get(id(tr)))]
            for tr in trs]]
        for rank, label, t0, t1, trs in ins.waits
    ]
    return _digest({
        "waits": waits,
        "occupancy": [[_hx(t), a, q] for t, a, q in ins.occupancy],
        "queue_cause": list(ins.queue_cause.values()),
        "perturb_excess": [_hx(v) for v in ins.perturb_excess.values()],
        "queued_peak": ins.queued_peak,
        "queued_total": ins.queued_total,
    })


def _traces(cache: dict, app: str) -> dict:
    if app not in cache:
        original = get_app(app).trace(nranks=NRANKS).trace
        real, _ = overlap_transform(original, OverlapConfig(chunks=4))
        ideal, _ = ideal_transform(original, chunks=4)
        cache[app] = {"original": original, "real": real, "ideal": ideal}
    return cache[app]


def _matrix_case(cache, app, variant, label):
    trace = _traces(cache, app)[variant]
    cfg = _platform(app, label)
    return _outcome(lambda: simulate(trace, cfg))


def _collective_case(cache, app, label):
    """The original trace with analytic GlobalOp collectives."""
    key = f"{app}/collectives"
    if key not in cache:
        cache[key] = get_app(app).trace(
            nranks=NRANKS, decompose_collectives=False).trace
    cfg = _platform(app, label)
    return _outcome(lambda: simulate(cache[key], cfg))


def _audit_case(cache, variant):
    trace = _traces(cache, "cg")[variant]
    acfg = AuditConfig(level="full")
    out = _outcome(lambda: simulate(
        trace, MachineConfig.paper_testbed("cg"), audit=acfg))
    out["violations"] = [[v.code, v.message, list(v.ranks), _hx(v.time)]
                         for v in acfg.report.violations]
    out["checks"] = list(acfg.report.checks)
    return out


def _insight_case(cache, variant, label, scenario=None):
    trace = _traces(cache, "cg")[variant]
    cfg = _platform("cg", label)
    kwargs = {}
    if scenario is not None:
        horizon = simulate(trace, cfg).duration
        kwargs["perturb"] = build_scenario(scenario, horizon, seed=3)
    got = {}

    def run():
        res, ins = collect(trace, cfg, **kwargs)
        got["insight"] = _insight_digest(ins)
        return res

    out = _outcome(run)
    out.update(got)
    return out


def _perturb_case(cache, variant, scenario):
    trace = _traces(cache, "cg")[variant]
    cfg = MachineConfig.paper_testbed("cg")
    horizon = simulate(trace, cfg).duration
    sched = build_scenario(scenario, horizon, seed=3)
    return _outcome(lambda: simulate(trace, cfg, perturb=sched))


def _watchdog_case(cache, variant, max_events):
    trace = _traces(cache, "cg")[variant]
    return _outcome(lambda: simulate(
        trace, MachineConfig.paper_testbed("cg"), max_events=max_events))


def _fault_case(cache, variant, kind, seed):
    broken, _ = inject(_traces(cache, "cg")[variant], kind, seed=seed)
    acfg = AuditConfig(level="full")
    out = _outcome(lambda: simulate(
        broken, MachineConfig.paper_testbed("cg"), audit=acfg))
    if acfg.report is not None:
        out["violations"] = [[v.code, v.message, list(v.ranks), _hx(v.time)]
                             for v in acfg.report.violations]
    return out


#: case name -> builder of its pinned observables (takes the trace cache).
CASES: dict = {}
for _app in APPS:
    for _variant in VARIANTS:
        for _label in PLATFORMS:
            CASES[f"{_app}/{_variant}/{_label}"] = (
                lambda c, a=_app, v=_variant, p=_label: _matrix_case(c, a, v, p))
    for _label in PLATFORMS:
        CASES[f"{_app}/collectives/{_label}"] = (
            lambda c, a=_app, p=_label: _collective_case(c, a, p))
for _variant in VARIANTS:
    CASES[f"cg/{_variant}/audit-full"] = (
        lambda c, v=_variant: _audit_case(c, v))
    for _label in ("table1", "unlimited", "smp4"):
        CASES[f"cg/{_variant}/{_label}/insight"] = (
            lambda c, v=_variant, p=_label: _insight_case(c, v, p))
    CASES[f"cg/{_variant}/watchdog"] = (
        lambda c, v=_variant: _watchdog_case(c, v, 500))
for _scenario in SCENARIOS:
    for _variant in ("original", "real"):
        CASES[f"cg/{_variant}/perturb/{_scenario}"] = (
            lambda c, v=_variant, s=_scenario: _perturb_case(c, v, s))
    CASES[f"cg/real/table1/insight/{_scenario}"] = (
        lambda c, s=_scenario: _insight_case(c, "real", "table1", s))
for _kind in FAULTS:
    for _variant in ("original", "real"):
        CASES[f"cg/{_variant}/fault/{_kind}"] = (
            lambda c, v=_variant, k=_kind: _fault_case(c, v, k, 7))


@pytest.fixture(scope="module")
def cache():
    return {}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(pinned):
    assert sorted(pinned) == sorted(CASES)


def test_matrix_exercises_every_outcome(pinned):
    """The fixture only has teeth if both completions and stalls occur."""
    outcomes = {"error" in v for v in pinned.values()}
    assert outcomes == {True, False}


@pytest.mark.parametrize("name", list(CASES))
def test_replay_output_identical(cache, pinned, name):
    assert CASES[name](cache) == pinned[name]


class TestPlainPath:
    """A plain replay builds no per-transfer object and schedules only
    typed events with plain-data arguments."""

    def _spy(self, monkeypatch):
        views, pushed = [], []
        init = network_mod.Transfer.__init__
        push = engine_mod.EventLoop.push

        def counting_init(self, *args):
            views.append(args)
            init(self, *args)

        def recording_push(self, time, kind, arg):
            pushed.append((kind, arg))
            push(self, time, kind, arg)

        monkeypatch.setattr(network_mod.Transfer, "__init__", counting_init)
        monkeypatch.setattr(engine_mod.EventLoop, "push", recording_push)
        return views, pushed

    @pytest.mark.parametrize("label", PLATFORMS)
    def test_no_views_no_callables(self, cache, monkeypatch, label):
        trace = _traces(cache, "cg")["real"]
        cfg = _platform("cg", label)
        simulate(trace, cfg)  # plan built outside the spy
        views, pushed = self._spy(monkeypatch)
        res = simulate(trace, cfg)
        assert views == []
        assert len(pushed) == res.network_stats["events_executed"]
        assert all(kind != engine_mod.CALL for kind, _ in pushed)
        assert not any(callable(arg) for _, arg in pushed)

    def test_side_channels_build_views(self, cache, monkeypatch):
        trace = _traces(cache, "cg")["real"]
        cfg = _platform("cg", "table1")
        views, _ = self._spy(monkeypatch)
        collect(trace, cfg)
        # Memoized: at most one view per matched message.
        assert 0 < len(views) == len(set(views))


def _write_fixture() -> None:
    cache: dict = {}
    data = {name: build(cache) for name, build in CASES.items()}
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_replay_identity --write")
    _write_fixture()
