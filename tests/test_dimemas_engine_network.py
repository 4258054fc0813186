"""Unit tests of the event loop and the network resource model."""

import pytest

from repro.dimemas.engine import ARRIVE, RELEASE, EventLoop
from repro.dimemas.machine import MachineConfig
from repro.dimemas.network import Network
from repro.dimemas.replay import simulate
from repro.trace.records import CpuBurst, ProcessTrace, Recv, Send, TraceSet


class TestEventLoop:
    def test_time_order(self):
        loop, out = EventLoop(), []
        loop.at(2e-6, lambda: out.append("b"))
        loop.at(1e-6, lambda: out.append("a"))
        loop.run()
        assert out == ["a", "b"]

    def test_fifo_on_ties(self):
        loop, out = EventLoop(), []
        for k in range(5):
            loop.at(1e-6, lambda k=k: out.append(k))
        loop.run()
        assert out == [0, 1, 2, 3, 4]

    def test_now_advances(self):
        loop = EventLoop()
        seen = []
        loop.at(5e-6, lambda: seen.append(loop.now))
        end = loop.run()
        assert seen == [5e-6] and end == 5e-6

    def test_after_relative(self):
        loop, seen = EventLoop(), []
        def first():
            loop.after(3e-6, lambda: seen.append(loop.now))
        loop.at(1e-6, first)
        loop.run()
        assert seen == [pytest.approx(4e-6)]

    def test_scheduling_into_past_rejected(self):
        loop = EventLoop()
        loop.at(1e-3, lambda: None)
        def bad():
            loop.at(0.0, lambda: None)
        loop.at(2e-3, bad)
        with pytest.raises(ValueError, match="past"):
            loop.run()

    def test_nan_time_rejected(self):
        with pytest.raises(ValueError):
            EventLoop().at(float("nan"), lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventLoop().after(-1.0, lambda: None)

    def test_executed_counter(self):
        loop = EventLoop()
        for _ in range(3):
            loop.at(0.0, lambda: None)
        loop.run()
        assert loop.executed == 3 and loop.pending == 0


    def test_typed_events_dispatch_to_handlers(self):
        loop, out = EventLoop(), []
        loop.handlers[RELEASE] = lambda arg: out.append(("release", arg))
        loop.handlers[ARRIVE] = lambda arg: out.append(("arrive", arg))
        loop.push(2e-6, ARRIVE, 7)
        loop.push(1e-6, RELEASE, 7)
        loop.at(1e-6, lambda: out.append("call"))
        loop.run()
        assert out == [("release", 7), "call", ("arrive", 7)]


def make_net(loop, pairs, nranks=4, **over):
    """A network over ``pairs`` = [(src, dst, size), ...] (pair ids =
    list positions)."""
    cfg = MachineConfig(bandwidth_mbps=100.0, latency=10e-6, **over)
    src = [p[0] for p in pairs]
    dst = [p[1] for p in pairs]
    size = [p[2] for p in pairs]
    return Network(loop, nranks, cfg, src=src, dst=dst, size=size), cfg


class TestNetwork:
    def test_uncontended_transfer_timing(self):
        loop = EventLoop()
        net, cfg = make_net(loop, [(0, 1, 1000)])
        loop.at(0.0, lambda: net.submit(0))
        loop.run()
        assert net.inject[0] == pytest.approx(10e-6)     # 1000 B / 100 MB/s
        assert net.arrival[0] == pytest.approx(20e-6)    # + 10 us latency

    def test_zero_size_costs_latency_only(self):
        loop = EventLoop()
        net, _ = make_net(loop, [(0, 1, 0)])
        loop.at(0.0, lambda: net.submit(0))
        loop.run()
        assert net.arrival == [pytest.approx(10e-6)]

    def test_self_message_is_instant(self):
        loop = EventLoop()
        net, _ = make_net(loop, [(2, 2, 4096)])
        loop.at(0.0, lambda: net.submit(0))
        loop.run()
        assert net.arrival == [pytest.approx(0.0)]

    def test_in_port_serializes_same_destination(self):
        loop = EventLoop()
        net, _ = make_net(loop, [(0, 2, 1000), (1, 2, 1000)])
        loop.at(0.0, lambda: (net.submit(0), net.submit(1)))
        loop.run()
        assert net.arrival[0] == pytest.approx(20e-6)
        assert net.arrival[1] == pytest.approx(30e-6)  # queued 10 us on the in-port

    def test_out_port_serializes_same_source(self):
        loop = EventLoop()
        net, _ = make_net(loop, [(0, 1, 1000), (0, 2, 1000)])
        loop.at(0.0, lambda: (net.submit(0), net.submit(1)))
        loop.run()
        assert sorted(net.arrival) == [pytest.approx(20e-6), pytest.approx(30e-6)]

    def test_single_bus_serializes_disjoint_pairs(self):
        loop = EventLoop()
        net, _ = make_net(loop, [(0, 1, 1000), (2, 3, 1000)], buses=1)
        loop.at(0.0, lambda: (net.submit(0), net.submit(1)))
        loop.run()
        assert net.arrival[0] == pytest.approx(20e-6)
        assert net.arrival[1] == pytest.approx(30e-6)

    def test_two_buses_allow_parallel_disjoint_pairs(self):
        loop = EventLoop()
        net, _ = make_net(loop, [(0, 1, 1000), (2, 3, 1000)], buses=2)
        loop.at(0.0, lambda: (net.submit(0), net.submit(1)))
        loop.run()
        assert net.arrival[0] == net.arrival[1] == pytest.approx(20e-6)

    def test_port_blocked_transfer_does_not_block_others(self):
        """FIFO with per-resource pass: a later transfer on free ports
        may start while the head waits for a busy port."""
        loop = EventLoop()
        net, _ = make_net(loop, [
            (0, 1, 2000),   # a: occupies 0->1 for 20 us
            (0, 2, 1000),   # b: blocked on out-port of 0
            (3, 2, 1000),   # c: free to go
        ], buses=10)
        loop.at(0.0, lambda: (net.submit(0), net.submit(1), net.submit(2)))
        loop.run()
        a, b, c = net.arrival
        assert a == pytest.approx(30e-6)
        assert c == pytest.approx(20e-6)   # went ahead of b
        assert b == pytest.approx(40e-6)

    def test_waiters_after_completion_fire_immediately(self):
        """A rank that waits on an already-arrived transfer does not
        block: it continues at once, at its own clock."""
        cfg = MachineConfig(bandwidth_mbps=100.0, latency=10e-6)
        res = simulate(TraceSet([
            ProcessTrace(0, [Send(peer=1, tag=0, size=0)]),
            ProcessTrace(1, [CpuBurst(50e-6), Recv(peer=0, tag=0, size=0)]),
        ]), cfg)
        assert res.rank_end[1] == pytest.approx(50e-6)
        assert res.time_in_state("Waiting a message", 1) == 0.0
        got = [m.t_recv for m in res.messages]
        assert got == [pytest.approx(10e-6)]    # arrived long before

    def test_view_after_completion_reads_arrival(self):
        loop = EventLoop()
        net, _ = make_net(loop, [(0, 1, 0)])
        loop.at(0.0, lambda: net.submit(0))
        loop.run()
        tr = net.transfer(0)
        assert tr.arrived and [tr.arrival_time] == [net.arrival[0]]
        assert net.transfer(0) is tr            # memoized per pair id

    def test_view_reads_pair_and_timing(self):
        loop = EventLoop()
        net, _ = make_net(loop, [(0, 1, 1000)])
        tr = net.transfer(0)
        assert (tr.src, tr.dst, tr.size, tr.tag, tr.rendezvous) == (
            0, 1, 1000, 0, False)
        assert not tr.injected and tr.ready_time is None
        loop.at(0.0, lambda: net.submit(0))
        loop.run()
        assert tr.ready_time == tr.start_time == 0.0
        assert tr.injected and tr.inject_time == pytest.approx(10e-6)
        with pytest.raises(AttributeError):
            tr.arrival_time = 1.0

    def test_diagnostics(self):
        loop = EventLoop()
        net, _ = make_net(loop, [(0, 1, 1000), (2, 3, 1000)], buses=2)
        for pid in (0, 1):
            loop.at(0.0, lambda pid=pid: net.submit(pid))
        loop.run()
        assert net.peak_active == 2
        assert net.busy_seconds == pytest.approx(20e-6)


class TestMachineConfig:
    def test_paper_testbed_values(self):
        cfg = MachineConfig.paper_testbed("cg")
        assert cfg.bandwidth_mbps == 250.0 and cfg.buses == 6

    def test_paper_testbed_unknown_app(self):
        with pytest.raises(KeyError):
            MachineConfig.paper_testbed("linpack")

    def test_linear_cost(self):
        cfg = MachineConfig(bandwidth_mbps=100.0, latency=5e-6)
        assert cfg.linear_cost(1000) == pytest.approx(15e-6)

    def test_with_bandwidth(self):
        cfg = MachineConfig(buses=7).with_bandwidth(10.0)
        assert cfg.bandwidth_mbps == 10.0 and cfg.buses == 7

    @pytest.mark.parametrize("kw", [
        {"bandwidth_mbps": 0}, {"latency": -1}, {"buses": 0},
        {"input_ports": 0}, {"cpu_ratio": 0}, {"eager_threshold": -1},
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            MachineConfig(**kw)
