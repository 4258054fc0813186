"""The network arbiter against the full-rescan arbiter it replaced.

:class:`Network` keeps its transfer queue *settled* — after every
settle no queued transfer has its bus, output port and input port all
free — so ``submit`` tests only the newcomer and a release needs one
forward FIFO pass.  The arbiter it replaced rescanned the queue from
the front after every start and on every submit behind a non-empty
queue.  That arbiter lives on here, and only here, as
:class:`RescanNetwork`: the oracle the settled-queue arbiter must match
bit for bit.

* **Replay identity** — every application skeleton, in all three
  variants, on the Table I bus counts and on unlimited buses, replays
  to the same ``duration.hex()`` and ``result_digest`` under both
  arbiters; for CG the insight channel's occupancy log, queue causes
  and queue peak agree too.
* **Random streams** (hypothesis) — transfer streams with deliberately
  colliding submit times start in the same order at the same times as
  under the oracle, and the settled-queue invariant holds after every
  event.
* **Perturbed settle** — an outage ends with no release, so a transfer
  submitted at that instant must queue behind the earlier ones rather
  than start ahead of them.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.dimemas.replay as replay_mod
from repro.apps import get_app
from repro.audit.certify import result_digest
from repro.core.ideal import ideal_transform
from repro.core.transform import OverlapConfig, overlap_transform
from repro.dimemas.engine import ARRIVE, INJECTED, RELEASE, EventLoop
from repro.dimemas.machine import MachineConfig
from repro.dimemas.network import Network, PerturbedNetwork
from repro.dimemas.replay import simulate
from repro.insight import InsightCollector, collect
from repro.perturb import OutageWindow, PerturbationSchedule

APPS_POOL = ("sweep3d", "pop", "alya", "specfem3d", "bt", "cg")
VARIANTS = ("original", "real", "ideal")
NRANKS = 16
US = 1e-6


class RescanNetwork(Network):
    """The arbiter before the settled-queue invariant (test oracle).

    ``submit`` queues behind any non-empty queue and rescans it;
    ``_try_start`` restarts its FIFO scan from the front after every
    start and keeps scanning when the bus pool is exhausted.
    """

    def submit(self, pid: int) -> None:
        loop = self.loop
        now = loop.now
        self.ready[pid] = now
        src, dst, size = self.src[pid], self.dst[pid], self.size[pid]
        if size == 0 or src == dst:
            self.start[pid] = now
            loop.push(now, INJECTED, pid)
            lat = 0.0 if src == dst else self._latency
            loop.push(now + lat, ARRIVE, pid)
            return
        if self._smp_possible and self.cfg.same_node(src, dst):
            self.start[pid] = now
            copy = self.cfg.intra_transfer_seconds(size)
            loop.push(now + copy, INJECTED, pid)
            loop.push(now + (copy + self.cfg.intra_latency), ARRIVE, pid)
            return
        if not self._queue and self._resources_free(pid):
            self._start(pid)
        else:
            self._queue.append(pid)
            self._try_start()
            if self.insight is not None and self.start[pid] is None:
                self.insight.note_queued(
                    now, self.transfer(pid), self._queue_cause(pid),
                    len(self._queue),
                )

    def _try_start(self) -> None:
        queue = self._queue
        started_any = True
        while started_any and queue:
            started_any = False
            for i, pid in enumerate(queue):
                if self._resources_free(pid):
                    del queue[i]
                    self._start(pid)
                    started_any = True
                    break


# --------------------------------------------------------------------------- #
# Replay identity over the paper's applications.
# --------------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def triples():
    out = {}
    for app in APPS_POOL:
        original = get_app(app).trace(nranks=NRANKS).trace
        real, _ = overlap_transform(original, OverlapConfig(chunks=4))
        ideal, _ = ideal_transform(original, chunks=4)
        out[app] = {"original": original, "real": real, "ideal": ideal}
    return out


def _platforms(app: str) -> dict[str, MachineConfig]:
    table1 = MachineConfig.paper_testbed(app)
    return {"table1": table1, "unlimited": table1.with_platform(buses=None)}


def _with_oracle(monkeypatch, fn):
    with monkeypatch.context() as m:
        m.setattr(replay_mod, "Network", RescanNetwork)
        return fn()


class TestReplayIdentity:
    @pytest.mark.parametrize("app", APPS_POOL)
    def test_results_bitwise_identical(self, app, triples, monkeypatch):
        for variant in VARIANTS:
            trace = triples[app][variant]
            for label, cfg in _platforms(app).items():
                new = simulate(trace, cfg)
                old = _with_oracle(monkeypatch, lambda: simulate(trace, cfg))
                where = f"{app}/{variant}/{label}"
                assert new.duration.hex() == old.duration.hex(), where
                assert result_digest(new) == result_digest(old), where

    def test_oracle_is_wired_in(self, triples, monkeypatch):
        built = []

        class Spy(RescanNetwork):
            def __init__(self, *args, **pairs):
                super().__init__(*args, **pairs)
                built.append(self)

        with monkeypatch.context() as m:
            m.setattr(replay_mod, "Network", Spy)
            simulate(triples["cg"]["original"], MachineConfig.paper_testbed("cg"))
        assert len(built) == 1

    @pytest.mark.parametrize("label", ["table1", "unlimited"])
    def test_cg_insight_identical(self, label, triples, monkeypatch):
        cfg = _platforms("cg")[label]
        for variant in VARIANTS:
            trace = triples["cg"][variant]
            new_res, new = collect(trace, cfg)
            old_res, old = _with_oracle(monkeypatch, lambda: collect(trace, cfg))
            assert result_digest(new_res) == result_digest(old_res)
            # ``occupancy`` carries the queue length seen by every start
            # and release, so it pins the ``queued`` count too.
            assert new.occupancy == old.occupancy, variant
            assert list(new.queue_cause.values()) == list(old.queue_cause.values())
            assert new.queued_peak == old.queued_peak
            assert new.queued_total == old.queued_total
        if label == "table1":
            # The comparison only has teeth if transfers really queue.
            assert new.queued_peak > 0


# --------------------------------------------------------------------------- #
# Random transfer streams.
# --------------------------------------------------------------------------- #

class _Recorded:
    """Records the order in which transfers start."""

    def __init__(self, *args, **pairs):
        super().__init__(*args, **pairs)
        self.started: list[int] = []

    def _start(self, pid: int) -> None:
        self.started.append(pid)
        super()._start(pid)


class RecordedNetwork(_Recorded, Network):
    pass


class RecordedRescanNetwork(_Recorded, RescanNetwork):
    pass


def _assert_settled(net, loop):
    """No queued transfer has its bus, out-port and in-port all free."""
    assert not any(net._resources_free(pid) for pid in net._queue), (
        f"unsettled queue at t={loop.now}")


def _run_stream(cls, stream, nranks, cfg):
    loop = EventLoop()
    net = cls(loop, nranks, cfg, src=[src for _, src, _, _ in stream],
              dst=[dst for _, _, dst, _ in stream],
              size=[size for _, _, _, size in stream])
    net.insight = InsightCollector()
    for pid, (tick, _src, _dst, _size) in enumerate(stream):
        loop.at(tick * US, lambda pid=pid: net.submit(pid))
    # Sample before every event, i.e. after the previous one.
    loop.SAMPLE_EVERY = 1
    loop.depth_sampler = lambda _depth: _assert_settled(net, loop)
    loop.run()
    _assert_settled(net, loop)
    return net, net.started, net.insight


@st.composite
def _streams(draw):
    nranks = draw(st.integers(1, 6))
    buses = draw(st.sampled_from([1, 2, None]))
    in_ports = draw(st.sampled_from([1, 2]))
    out_ports = draw(st.sampled_from([1, 2]))
    rank = st.integers(0, nranks - 1)
    # Few distinct ticks and sizes: submits collide with each other and
    # with the releases of earlier transfers (100 B = 1 us on the wire).
    item = st.tuples(st.integers(0, 6), rank, rank,
                     st.sampled_from([0, 100, 200, 300]))
    stream = draw(st.lists(item, min_size=1, max_size=30))
    cfg = MachineConfig(bandwidth_mbps=100.0, latency=1 * US, buses=buses,
                        input_ports=in_ports, output_ports=out_ports)
    return nranks, cfg, stream


class TestRandomStreams:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_streams())
    def test_same_starts_as_oracle(self, case):
        nranks, cfg, stream = case
        new, new_order, new_ins = _run_stream(RecordedNetwork, stream, nranks, cfg)
        old, old_order, old_ins = _run_stream(
            RecordedRescanNetwork, stream, nranks, cfg)
        assert new_order == old_order
        assert new.start == old.start
        assert new.arrival == old.arrival
        assert new_ins.occupancy == old_ins.occupancy
        assert list(new_ins.queue_cause.values()) == list(old_ins.queue_cause.values())

    def test_queued_count_excludes_started_transfer(self):
        # One bus, three disjoint transfers at t=0: the first starts
        # with nothing queued, the other two queue; at the release the
        # second starts with exactly one transfer still queued.
        cfg = MachineConfig(bandwidth_mbps=100.0, latency=1 * US, buses=1)
        stream = [(0, 0, 1, 100), (0, 2, 3, 100), (0, 4, 5, 100)]
        _, order, ins = _run_stream(RecordedNetwork, stream, 6, cfg)
        assert order == [0, 1, 2]
        starts = [(t, q) for t, active, q in ins.occupancy if active == 1]
        assert [q for _t, q in starts] == [0, 1, 0]


# --------------------------------------------------------------------------- #
# The perturbed network still settles the whole queue on submit.
# --------------------------------------------------------------------------- #

class TestPerturbedSettle:
    def test_submit_as_outage_lifts_queues_behind_earlier(self):
        # Link down over [0, 50 us).  A and B are submitted at 10 us and
        # queue; C is submitted at exactly 50 us, on ports nobody holds,
        # by an event scheduled before the network's own wake-up.  The
        # one bus must go to A first (FIFO), not to the newcomer.
        cfg = MachineConfig(bandwidth_mbps=100.0, latency=1 * US, buses=1)
        outage = PerturbationSchedule(
            outages=(OutageWindow(0.0, 50 * US, "stall"),))
        loop = EventLoop()
        net = PerturbedNetwork(loop, 6, cfg, outage, src=[0, 2, 4],
                               dst=[1, 3, 5], size=[100, 100, 100])
        order = []
        release = loop.handlers[RELEASE]

        def injected(pid):
            order.append("abc"[pid])
            release(pid)

        loop.handlers[RELEASE] = injected
        loop.at(10 * US, lambda: net.submit(0))
        loop.at(10 * US, lambda: net.submit(1))
        loop.at(50 * US, lambda: net.submit(2))
        loop.run()
        a, b, c = net.start
        assert a == pytest.approx(50 * US)
        assert b == pytest.approx(51 * US)
        assert c == pytest.approx(52 * US)
        assert order == ["a", "b", "c"]
