"""The analysis-event channel: raw material of wait-state attribution.

One :class:`InsightCollector` rides along one :func:`simulate` call.
The replay driver reports every *wait interval* — the span between a
rank blocking on a communication record and the completion that
released it, together with the transfers it was blocked on — and the
network reports *resource transitions*: why a transfer queued (bus
pool exhausted, source injection port busy, destination endpoint port
busy) and how bus occupancy evolved over simulated time.

Cost model (the ``repro.obs.spans`` contract, enforced by
``tests/test_insight.py``): collection is off by default — ``simulate``
takes ``insight=None`` and every hook sits behind one ``is None``
branch on the *blocking* paths only, never in the per-event dispatch
loop — and an attributed replay produces bitwise-identical results,
because the collector only observes; it never schedules.

Classification of the raw intervals into root causes happens post-hoc
in :mod:`repro.insight.attribution`, once every transfer's timing
fields are final (transfer views read the replay's timing lists, so
they see the final values).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..dimemas.machine import MachineConfig
    from ..dimemas.network import Transfer
    from ..dimemas.results import SimResult

__all__ = ["InsightCollector", "collect"]

#: Epsilon mirroring ``repro.dimemas.replay._EPS``: wait intervals the
#: replay drops from the state timeline are not recorded either, so
#: attributed wait time sums to exactly the recorded blocked time.
_EPS = 1e-15


class InsightCollector:
    """Accumulates the analysis events of one replay.

    Attributes are plain lists/dicts so the hooks cost appends only;
    nothing here reads the clock or touches the event loop.
    """

    __slots__ = ("waits", "queue_cause", "occupancy", "queued_peak",
                 "queued_total", "perturb_excess")

    def __init__(self) -> None:
        #: Raw wait intervals ``(rank, state_label, t0, t1, transfers)``
        #: where ``transfers`` is a tuple of the
        #: :class:`~repro.dimemas.network.Transfer` views the rank was
        #: blocked on (empty for collectives / unmatched records).  A
        #: replay memoizes one view per message, so the ``id()``-keyed
        #: maps below and these tuples name transfers consistently.
        self.waits: list[tuple[int, str, float, float, tuple]] = []
        #: ``id(transfer) -> cause`` recorded when the network queued a
        #: transfer instead of starting it: ``"bus_contention"``,
        #: ``"injection_port"``, or ``"endpoint_port"``.
        self.queue_cause: dict[int, str] = {}
        #: Bus-occupancy timeline: ``(t, active_transfers, queued)``
        #: transitions appended at every transfer start and release.
        self.occupancy: list[tuple[float, int, int]] = []
        #: Peak network queue depth observed (diagnostics).
        self.queued_peak = 0
        #: Total number of transfers that had to queue.
        self.queued_total = 0
        #: ``id(transfer) -> seconds`` a platform perturbation added to
        #: that transfer beyond its pristine wire time (degraded
        #: bandwidth, stalled/restarted outages, latency spikes).
        #: Filled by :class:`~repro.dimemas.network.PerturbedNetwork`;
        #: empty on an unperturbed replay.
        self.perturb_excess: dict[int, float] = {}

    # -- replay-side hook ------------------------------------------------- #
    def record_wait(self, rank: int, label: str, t0: float, t1: float,
                    transfers: "tuple[Transfer, ...] | None") -> None:
        """One blocked interval closed by ``_resume`` on ``rank``."""
        if t1 <= t0 + _EPS:
            return
        self.waits.append((rank, label, t0, t1, transfers or ()))

    # -- network-side hooks ------------------------------------------------ #
    def note_queued(self, t: float, transfer: "Transfer", cause: str,
                    queued: int) -> None:
        """``transfer`` could not start at ``t``; ``cause`` blocked it."""
        self.queue_cause[id(transfer)] = cause
        self.queued_total += 1
        if queued > self.queued_peak:
            self.queued_peak = queued

    def note_perturbed(self, transfer: "Transfer", seconds: float) -> None:
        """``transfer`` took ``seconds`` longer than on the pristine
        platform (may fire more than once per transfer — wire excess at
        start, latency excess at delivery; contributions accumulate)."""
        key = id(transfer)
        self.perturb_excess[key] = self.perturb_excess.get(key, 0.0) + seconds

    def note_start(self, t: float, active: int, queued: int) -> None:
        self.occupancy.append((t, active, queued))

    def note_release(self, t: float, active: int, queued: int) -> None:
        self.occupancy.append((t, active, queued))

    # -- summaries --------------------------------------------------------- #
    def occupancy_profile(self, bins: int = 64,
                          duration: float | None = None) -> list[float]:
        """Mean active-transfer count per time bin (for overlays).

        Integrates the step function described by :attr:`occupancy`
        over ``bins`` equal windows of ``[0, duration]``.
        """
        if not self.occupancy or bins < 1:
            return [0.0] * max(bins, 0)
        end = duration if duration is not None else self.occupancy[-1][0]
        if end <= 0:
            return [0.0] * bins
        width = end / bins
        out = [0.0] * bins
        prev_t, prev_active = 0.0, 0
        points = list(self.occupancy) + [(end, 0, 0)]
        for t, active, _q in points:
            t = min(t, end)
            a, b = prev_t, t
            if b > a and prev_active > 0:
                first = min(int(a / width), bins - 1)
                last = min(int(b / width), bins - 1)
                for k in range(first, last + 1):
                    ka, kb = k * width, (k + 1) * width
                    out[k] += prev_active * max(0.0, min(b, kb) - max(a, ka))
            prev_t, prev_active = t, active
        return [v / width for v in out]


def collect(
    trace,
    machine: "MachineConfig | None" = None,
    **simulate_kwargs,
) -> "tuple[SimResult, InsightCollector]":
    """Replay ``trace`` with the analysis channel attached.

    Returns ``(result, collector)``; the result is bitwise-identical
    to an unattributed :func:`~repro.dimemas.replay.simulate` of the
    same trace/platform.  Feed the pair to
    :func:`repro.insight.attribution.attribute`.
    """
    from ..dimemas.replay import simulate

    collector = InsightCollector()
    result = simulate(trace, machine, insight=collector, **simulate_kwargs)
    return result, collector
