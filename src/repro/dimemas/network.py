"""Network resource model: buses, ports, and transfer scheduling.

Implements Dimemas' congestion semantics on top of the linear model:
a message's wire occupancy (``size/bandwidth``) simultaneously holds

* one **global bus** (bounding how many messages travel concurrently
  through the whole interconnect — paper Table I calibrates this),
* one **output port** of the source processor, and
* one **input port** of the destination processor,

while the constant ``latency`` term is pipeline depth, not a resource.
A transfer starts only when all three resources are free; queued
transfers are served FIFO by request time (a later transfer may start
earlier only if it uses entirely different ports while the earlier one
is port-blocked — matching Dimemas' per-resource queues).

Zero-byte messages (pure synchronization) bypass the network and cost
only latency.
"""

from __future__ import annotations

from .engine import ARRIVE, INJECTED, RELEASE, EventLoop
from .machine import MachineConfig

__all__ = ["Network", "PerturbedNetwork", "Transfer"]


class Transfer:
    """Read-only view of one matched message of one replay.

    A replay keeps its transfers as pair ids into the flat lists of its
    :class:`Network`; this view reads them back as attributes.  Views
    are built only on request (:meth:`Network.transfer` — the audit,
    insight and post-mortem channels ask) and memoized per pair id for
    the replay, so ``id()``-keyed maps over views stay consistent.
    Times are absolute seconds; ``None`` = not yet known.
    """

    __slots__ = ("_net", "pid")

    def __init__(self, net: "Network", pid: int):
        self._net = net
        self.pid = pid

    src = property(lambda self: self._net.src[self.pid])
    dst = property(lambda self: self._net.dst[self.pid])
    size = property(lambda self: self._net.size[self.pid])
    tag = property(lambda self: self._net.tag[self.pid])
    rendezvous = property(lambda self: self._net.rendezvous[self.pid])
    send_time = property(lambda self: self._net.send_time[self.pid])
    recv_post_time = property(lambda self: self._net.recv_post[self.pid])
    ready_time = property(lambda self: self._net.ready[self.pid])
    start_time = property(lambda self: self._net.start[self.pid])
    inject_time = property(lambda self: self._net.inject[self.pid])
    arrival_time = property(lambda self: self._net.arrival[self.pid])
    injected = property(lambda self: self.inject_time is not None)
    arrived = property(lambda self: self.arrival_time is not None)

    def __repr__(self) -> str:
        return (f"Transfer(pid={self.pid}, src={self.src}, dst={self.dst}, "
                f"size={self.size})")


class Network:
    """Resource arbiter for the transfers of one replay.

    Transfers are pair ids into per-pair ``src``/``dst``/``size`` lists
    (shared, read-only).  The per-replay state is flat ``[None] *
    npairs`` lists of absolute times: ``send_time`` (sender executed
    its send record) and ``recv_post`` (receiver posted the receive),
    written by the replay driver; ``ready`` (handed to the network),
    ``start`` (took bus and ports), ``inject`` (released them) and
    ``arrival`` (payload delivered), written here.  The network
    schedules ``INJECTED`` (bypass copies), ``RELEASE`` and ``ARRIVE``
    events; the replay replaces the ``ARRIVE`` handler with one that
    also wakes the ranks blocked on the pair.
    """

    def __init__(self, loop: EventLoop, nranks: int, cfg: MachineConfig,
                 *, src, dst, size, tag=None, rendezvous=None):
        self.loop = loop
        self.cfg = cfg
        self.nranks = nranks
        npairs = len(src)
        self.src, self.dst, self.size = src, dst, size
        self.tag = tag or [0] * npairs
        self.rendezvous = rendezvous or [False] * npairs
        (self.send_time, self.recv_post, self.ready, self.start,
         self.inject, self.arrival) = ([None] * npairs for _ in range(6))
        self._views: dict[int, Transfer] = {}
        handlers = loop.handlers
        handlers[INJECTED] = self._injected
        handlers[RELEASE] = self._release
        handlers[ARRIVE] = self._arrived
        self._free_buses = cfg.buses if cfg.buses is not None else float("inf")
        self._free_out = [cfg.output_ports] * nranks
        self._free_in = [cfg.input_ports] * nranks
        self._queue: list[int] = []
        #: Optional :class:`repro.audit.InvariantAuditor` — when set,
        #: occupancy is cross-checked against capacity at every
        #: acquire/release (one ``is None`` branch per started transfer,
        #: nothing on the zero-byte/SMP bypass paths).
        self.auditor = None
        #: Optional :class:`repro.insight.InsightCollector` — when set,
        #: the network reports why each transfer queued and how bus
        #: occupancy evolved.  Same cost contract as the auditor hook:
        #: one ``is None`` branch per started/queued transfer only.
        self.insight = None
        #: Hoisted platform constants — read once per transfer in the
        #: replay inner loop instead of walking ``cfg`` attributes.
        self._latency = cfg.latency
        self._bandwidth = cfg.bandwidth
        #: With one core per node no pair of distinct ranks shares a
        #: node, so the SMP branch can be skipped wholesale.
        self._smp_possible = (cfg.cores_per_node or 1) > 1
        #: Peak number of simultaneously active transfers (diagnostics).
        self.peak_active = 0
        self._active = 0
        #: Total wire-occupancy seconds consumed (diagnostics).
        self.busy_seconds = 0.0

    def transfer(self, pid: int) -> Transfer:
        """The (memoized) :class:`Transfer` view of pair ``pid``."""
        view = self._views.get(pid)
        if view is None:
            view = self._views[pid] = Transfer(self, pid)
        return view

    # ------------------------------------------------------------------ #
    def submit(self, pid: int) -> None:
        """Hand transfer ``pid`` to the network at the current loop time.

        Must be called at ``loop.now == ready[pid]`` (the replay driver
        schedules the call accordingly).
        """
        loop = self.loop
        now = loop.now
        self.ready[pid] = now
        src = self.src[pid]
        dst = self.dst[pid]
        if src == dst or self.size[pid] == 0:
            # Pure sync or self-message: latency only, no resources.
            self.start[pid] = now
            loop.push(now, INJECTED, pid)
            lat = 0.0 if src == dst else self._bypass_latency(pid, now)
            loop.push(now + lat, ARRIVE, pid)
            return
        if self._smp_possible and self.cfg.same_node(src, dst):
            # Shared-memory path: no buses, no ports (Dimemas' SMP node
            # model) — a plain copy at intra-node latency/bandwidth.
            self.start[pid] = now
            copy = self.cfg.intra_transfer_seconds(self.size[pid])
            loop.push(now + copy, INJECTED, pid)
            loop.push(now + (copy + self.cfg.intra_latency), ARRIVE, pid)
            return
        self._enqueue(pid)
        if self.insight is not None and self.start[pid] is None:
            # Queued: some resource is genuinely exhausted for it.
            self.insight.note_queued(
                now, self.transfer(pid), self._queue_cause(pid),
                len(self._queue),
            )

    def _enqueue(self, pid: int) -> None:
        """Start ``pid`` at once or append it to the queue, in O(1).

        The queue is settled (see :meth:`_try_start`): every queued
        transfer is blocked, and only a release can unblock one.  So
        starting ``pid`` cannot overtake an earlier transfer that could
        have started, and appending it keeps the queue settled.
        """
        if self._resources_free(pid):
            self._start(pid)
        else:
            self._queue.append(pid)

    # ------------------------------------------------------------------ #
    def _queue_cause(self, pid: int) -> str:
        """Which resource class is blocking ``pid`` right now.

        Checked in bus → output-port → input-port order, mirroring
        :meth:`_resources_free`; the shared bus pool blocking everyone
        is also the fallback.
        """
        if self._free_buses < 1:
            return "bus_contention"
        if self._free_out[self.src[pid]] < 1:
            return "injection_port"
        if self._free_in[self.dst[pid]] < 1:
            return "endpoint_port"
        return "bus_contention"

    def _resources_free(self, pid: int) -> bool:
        return (
            self._free_buses >= 1
            and self._free_out[self.src[pid]] >= 1
            and self._free_in[self.dst[pid]] >= 1
        )

    def _try_start(self) -> None:
        """Settle the queue: start every queued transfer whose bus,
        output port and input port are all free.

        Invariant: after every settle no queued transfer has all three
        resources free.  Only a release frees resources, and every
        release settles, so the queue stays settled in between — which
        is what lets :meth:`_enqueue` test the newcomer alone.

        One forward FIFO pass suffices: starting a transfer only
        consumes resources, so an entry skipped earlier in the pass is
        still blocked.  Earlier-queued transfers get first pick; a later
        one only jumps ahead when it needs *different* ports.  The pass
        stops once the shared bus pool is exhausted, since that blocks
        everyone.
        """
        if self._free_buses < 1:
            return
        queue = self._queue
        free_out = self._free_out
        free_in = self._free_in
        src = self.src
        dst = self.dst
        i, n = 0, len(queue)
        while i < n:
            pid = queue[i]
            if free_out[src[pid]] >= 1 and free_in[dst[pid]] >= 1:
                # Removed before _start so the insight ``queued`` count
                # excludes the transfer being started.
                del queue[i]
                n -= 1
                self._start(pid)
                if self._free_buses < 1:
                    return
            else:
                i += 1

    def _start(self, pid: int) -> None:
        self._free_buses -= 1
        self._free_out[self.src[pid]] -= 1
        self._free_in[self.dst[pid]] -= 1
        active = self._active + 1
        self._active = active
        if active > self.peak_active:
            self.peak_active = active
        if self.auditor is not None:
            self.auditor.check_occupancy(self, self.transfer(pid))
        loop = self.loop
        now = loop.now
        self.start[pid] = now
        if self.insight is not None:
            self.insight.note_start(now, active, len(self._queue))
        # Same arithmetic as cfg.transfer_seconds, minus the property
        # chase — this runs once per started transfer.
        occupancy = self.size[pid] / self._bandwidth
        loop.push(self._wire_end(pid, now, occupancy), RELEASE, pid)

    def _release(self, pid: int) -> None:
        """``RELEASE`` handler: the wire time is over."""
        self._free_buses += 1
        self._free_out[self.src[pid]] += 1
        self._free_in[self.dst[pid]] += 1
        self._active -= 1
        if self.auditor is not None:
            self.auditor.check_release(self, self.transfer(pid))
        loop = self.loop
        now = loop.now
        if self.insight is not None:
            self.insight.note_release(now, self._active, len(self._queue))
        self.inject[pid] = now
        loop.push(self._delivery(pid, now), ARRIVE, pid)
        if self._queue:
            self._try_start()

    def _injected(self, pid: int) -> None:
        self.inject[pid] = self.loop.now

    def _arrived(self, pid: int) -> None:
        self.arrival[pid] = self.loop.now

    # -- platform timing (overridden by PerturbedNetwork) -------------- #
    def _wire_end(self, pid: int, now: float, occupancy: float) -> float:
        """When ``pid``, starting at ``now``, releases its resources."""
        self.busy_seconds += occupancy
        return now + occupancy

    def _delivery(self, pid: int, now: float) -> float:
        """Arrival time of ``pid``, injected at ``now``."""
        return now + self._latency

    def _bypass_latency(self, pid: int, now: float) -> float:
        """Latency of a zero-byte ``pid`` submitted at ``now``."""
        return self._latency


class PerturbedNetwork(Network):
    """A :class:`Network` degraded by a perturbation schedule.

    Subclassing keeps the fast path provably untouched: ``simulate``
    builds a plain :class:`Network` whenever no schedule is active, so
    the unperturbed hot loop contains not a single perturbation branch.
    Here, wire time is the integral of a piecewise-constant effective
    bandwidth (degradation windows scale it, stall outages zero it),
    restart outages abort and re-inject in-flight transfers, no
    transfer may *start* during any outage, and latency windows add to
    the pipeline constant at delivery time.

    Everything is a pure function of ``loop.now`` and the schedule —
    no RNG, no wall clock — so perturbed replays stay bitwise
    deterministic.  Whenever a transfer takes longer than it would
    have on the pristine platform, the excess seconds are reported to
    the insight channel (:meth:`InsightCollector.note_perturbed`) so
    wait-cause attribution can carve out exactly the slice of blocked
    time the fault caused.
    """

    def __init__(self, loop: EventLoop, nranks: int, cfg: MachineConfig,
                 schedule, **pairs) -> None:
        super().__init__(loop, nranks, cfg, **pairs)
        self.schedule = schedule
        #: Piecewise wire profile: (t0, t1, factor) with stall outages
        #: as factor 0.0.  Restart outages are kept apart — they do not
        #: slow the integral, they void the whole attempt.
        profile = [(w.t0, w.t1, w.factor) for w in schedule.bandwidth]
        profile += [
            (w.t0, w.t1, 0.0)
            for w in schedule.outages if w.semantics == "stall"
        ]
        self._profile = sorted(profile)
        self._restarts = sorted(
            (w.t0, w.t1)
            for w in schedule.outages if w.semantics == "restart"
        )
        self._outage_spans = sorted((w.t0, w.t1) for w in schedule.outages)
        self._latency_windows = sorted(
            (w.t0, w.t1, w.extra) for w in schedule.latency
        )
        #: Outage ends with a pending wake-up already scheduled.
        self._woken: set[float] = set()

    # -- schedule lookups ---------------------------------------------- #
    def _extra_latency(self, t: float) -> float:
        for w0, w1, extra in self._latency_windows:
            if w0 <= t < w1:
                return extra
        return 0.0

    def _outage_until(self, t: float) -> float | None:
        """End of the outage covering ``t`` (any semantics), or None."""
        for w0, w1 in self._outage_spans:
            if w0 <= t < w1:
                return w1
        return None

    def _note_excess(self, pid: int, seconds: float) -> None:
        if self.insight is not None:
            self.insight.note_perturbed(self.transfer(pid), seconds)

    # -- wire-time integration ----------------------------------------- #
    def _integrate(self, start: float, occupancy: float) -> float:
        """Finish time of ``occupancy`` effective wire-seconds starting
        at ``start`` under degradation and stall windows."""
        t = start
        remaining = occupancy
        for w0, w1, factor in self._profile:
            if w1 <= t:
                continue
            if w0 > t:
                gap = w0 - t
                if remaining <= gap:
                    return t + remaining
                remaining -= gap
                t = w0
            if factor <= 0.0:
                # Stalled: the clock runs, the payload does not.
                t = w1
            else:
                cap = (w1 - t) * factor
                if remaining <= cap:
                    return t + remaining / factor
                remaining -= cap
                t = w1
        return t + remaining

    def _wire_finish(self, start: float, occupancy: float) -> float:
        """Injection-complete time including restart-outage retries."""
        t = start
        while True:
            nxt = None
            for o0, o1 in self._restarts:
                if o1 > t:
                    nxt = (o0, o1)
                    break
            if nxt is not None and nxt[0] <= t:
                # Retry landed inside a reset window (fresh starts are
                # blocked by _try_start, so only retries get here).
                t = nxt[1]
                continue
            finish = self._integrate(t, occupancy)
            if nxt is None or finish <= nxt[0]:
                return finish
            # In flight when the link reset: abort, re-inject after.
            t = nxt[1]

    # -- Network overrides --------------------------------------------- #
    def _bypass_latency(self, pid: int, now: float) -> float:
        # Pure sync bypasses buses and ports but not the wire pipeline,
        # so latency spikes still apply.
        extra = self._extra_latency(now)
        if extra > 0.0:
            self._note_excess(pid, extra)
        return self._latency + extra

    def _queue_cause(self, pid: int) -> str:
        if self._outage_spans and self._outage_until(self.loop.now) is not None:
            return "perturbation"
        return super()._queue_cause(pid)

    def _enqueue(self, pid: int) -> None:
        # An outage ends with no release, so the queue may be unsettled
        # when a transfer arrives at the instant it lifts (before the
        # wake-up fires): settle the whole queue, FIFO, every time.
        self._queue.append(pid)
        self._try_start()

    def _try_start(self) -> None:
        until = self._outage_until(self.loop.now)
        if until is None:
            super()._try_start()
        elif self._queue and until not in self._woken:
            # No transfer may start during an outage, and nothing else
            # is guaranteed to poke the queue while the link is down —
            # wake it the instant the outage lifts.
            self._woken.add(until)
            self.loop.at(until, self._try_start)

    def _wire_end(self, pid: int, now: float, occupancy: float) -> float:
        finish = self._wire_finish(now, occupancy)
        elapsed = finish - now
        # Wall-on-the-wire, not nominal occupancy: a stalled or slowed
        # transfer holds its bus and ports the whole time.
        self.busy_seconds += elapsed
        excess = elapsed - occupancy
        if excess > 0.0:
            self._note_excess(pid, excess)
        return finish

    def _delivery(self, pid: int, now: float) -> float:
        extra = self._extra_latency(now)
        if extra > 0.0:
            self._note_excess(pid, extra)
        return now + self._latency + extra
