"""The automatic overlap transformation (the paper's core contribution).

Rewrites a traced (non-overlapped) execution into the trace of the
*potential* overlapped execution, applying the four mechanisms of
paper §II at the MPI level:

* **Message chunking** — every transformable message is split into
  ``chunks`` contiguous-element chunks (paper setting: 4).
* **Advancing sends** — each chunk is transmitted (as a non-blocking
  send) at the virtual time its final version was produced: *"the
  tracer emits a Dimemas send record of every chunk at the moment of
  the last update of that chunk"* (§III-C).
* **Post-postponing receptions** — the receiver posts non-blocking
  receives for all chunks at the original receive point and waits for
  each chunk only *"at the point where that chunk is needed for the
  first time"* (§III-C).
* **Double buffering** — chunks of the next iteration may arrive while
  the current iteration is still consuming: chunk transfers are eager
  and the sender's completion waits are deferred to the next send of
  the same message stream.  (With ``double_buffering=False`` — the
  single-buffer ablation — chunk sends become rendezvous and complete
  at the original send point.)

The rewriting is purely trace-level: it moves communication records
through the recorded computation bursts (splitting bursts where chunk
boundaries fall) without altering the total computation, which is how
the framework isolates the effect of overlap from cache/locality
side-effects the paper criticizes in code-restructuring studies.

Two schedules are supported (§III-C, "two overlapped traces"):

* ``schedule="real"`` — chunk times taken from the measured
  production/consumption access profiles;
* ``schedule="ideal"`` — chunk transmissions/receptions uniformly
  distributed through the adjacent computation intervals, modelling the
  best possible production/consumption pattern (paper Eq. 1).

Causality rules
---------------

A chunk send may only move to an *earlier* point when there is store
evidence it was fully produced by then.  Chunks without evidence (no
profile, or a never-stored chunk) keep the original send's position in
the record stream — moving them to the same *virtual time* is not
enough, because zero-duration regions (e.g. a reduction-tree relay
that receives and immediately forwards) would let the forward jump
ahead of the receive it depends on.  For the same reason the ideal
schedule distributes chunk events only through the contiguous
computation region bounded by the adjacent communication records: the
data a process forwards right after a receive has no computation in
which it could have been produced earlier.
"""

from __future__ import annotations

import math
import weakref
from collections import defaultdict
from dataclasses import dataclass, field, replace

from ..obs import get_registry, traced
from ..trace.records import (
    CHANNEL_CHUNK,
    CpuBurst,
    Event as EventRec,
    IRecv,
    ISend,
    ProcessTrace,
    Recv,
    Record,
    Send,
    TraceSet,
    Wait,
)
from .chunking import (
    DEFAULT_CHUNKS,
    chunk_needed_times,
    chunk_ready_times,
    plan_chunks,
)
from .matching import MessagePair, match_messages_cached

__all__ = [
    "OverlapConfig",
    "TransformStats",
    "chunk_sub",
    "overlap_transform",
]

_MAX_CHUNKS = 256
_MAX_SUB = 1 << 16


def chunk_sub(channel: int, sub: int, c: int) -> int:
    """Pack an original (channel, sub) and a chunk index into a chunk key.

    Chunked messages travel on :data:`CHANNEL_CHUNK`; the original
    channel and sub id are folded into the new ``sub`` so that chunk
    streams of distinct original messages never collide.
    """
    if not 0 <= c < _MAX_CHUNKS:
        raise ValueError(f"chunk index {c} out of range [0, {_MAX_CHUNKS})")
    if not 0 <= sub < _MAX_SUB:
        raise ValueError(f"sub id {sub} out of range [0, {_MAX_SUB})")
    if channel < 0 or channel > 0xF:
        raise ValueError(f"channel {channel} out of range [0, 15]")
    return (channel << 24) | (sub << 8) | c


@dataclass(frozen=True)
class OverlapConfig:
    """Configuration of the overlap transformation.

    The defaults reproduce the paper's experimental setup; each flag
    disables one mechanism for the ablation benchmarks.
    """

    chunks: int = DEFAULT_CHUNKS
    #: Extension beyond the paper's fixed chunk count: when set, each
    #: message is split into ``ceil(size / chunk_bytes)`` chunks, capped
    #: by ``chunks`` — small messages stay whole, large ones split
    #: finer.  ``None`` (default) reproduces the paper's fixed scheme.
    chunk_bytes: int | None = None
    advance_sends: bool = True
    postpone_receptions: bool = True
    double_buffering: bool = True
    #: "real" uses measured access profiles; "ideal" distributes chunk
    #: events uniformly through the adjacent computation (paper's
    #: second overlapped trace).
    schedule: str = "real"
    #: Also transform the point-to-point messages that collectives were
    #: decomposed into (when their buffers carry profiles).
    transform_collectives: bool = True

    def __post_init__(self) -> None:
        if self.schedule not in ("real", "ideal"):
            raise ValueError(f"schedule must be 'real' or 'ideal', got {self.schedule!r}")
        if self.chunks < 1 or self.chunks > _MAX_CHUNKS:
            raise ValueError(f"chunks must be in [1, {_MAX_CHUNKS}]")
        if self.chunk_bytes is not None and self.chunk_bytes < 1:
            raise ValueError("chunk_bytes must be >= 1 or None")

    def chunks_for(self, size: int) -> int:
        """Chunk count for a message of ``size`` bytes."""
        if self.chunk_bytes is None:
            return self.chunks
        return max(1, min(self.chunks, -(-size // self.chunk_bytes)))


@dataclass
class TransformStats:
    """What the transformation did (reported alongside the new trace)."""

    messages_total: int = 0
    messages_transformed: int = 0
    chunks_created: int = 0
    sends_advanced: int = 0
    waits_postponed: int = 0
    skipped_no_profile: int = 0
    skipped_zero_size: int = 0


# --------------------------------------------------------------------------- #
# Per-rank edit script.
# --------------------------------------------------------------------------- #

@dataclass
class _Edits:
    removed: set[int] = field(default_factory=set)
    before_index: dict[int, list[Record]] = field(default_factory=lambda: defaultdict(list))
    timed: list[tuple[float, int, Record]] = field(default_factory=list)
    at_end: list[Record] = field(default_factory=list)
    wait_strip: dict[int, set[int]] = field(default_factory=lambda: defaultdict(set))
    _seq: int = 0

    def add_timed(self, t: float, rec: Record) -> None:
        self.timed.append((t, self._seq, rec))
        self._seq += 1


def _rebuild(proc: ProcessTrace, edits: _Edits) -> ProcessTrace:
    """Apply an edit script, splitting CPU bursts at timed insertions.

    Burst pieces shorter than 1e-15 s are dropped at split points, so
    total compute is preserved up to one femtosecond per insertion —
    negligible against microsecond-scale bursts, and bounded for tests.
    """
    starts = proc.virtual_starts()
    timed = sorted(edits.timed, key=lambda x: (x[0], x[1]))
    k = 0
    out: list[Record] = []

    for i, rec in enumerate(proc.records):
        t0, t1 = starts[i], starts[i + 1]
        if isinstance(rec, CpuBurst):
            cur = t0
            while k < len(timed) and timed[k][0] < t1 - 1e-15:
                tt = max(timed[k][0], cur)
                if tt > cur + 1e-15:
                    out.append(CpuBurst(tt - cur))
                cur = tt
                out.append(timed[k][2])
                k += 1
            if t1 > cur + 1e-15:
                out.append(CpuBurst(t1 - cur))
            continue
        # Non-burst record: flush timed insertions due up to its time.
        while k < len(timed) and timed[k][0] <= t0 + 1e-15:
            out.append(timed[k][2])
            k += 1
        out.extend(edits.before_index.get(i, ()))
        if i in edits.removed:
            continue
        if isinstance(rec, Wait) and i in edits.wait_strip:
            kept = tuple(q for q in rec.requests if q not in edits.wait_strip[i])
            if kept:
                out.append(Wait(kept, meta=dict(rec.meta)))
            continue
        out.append(replace(rec))

    while k < len(timed):
        out.append(timed[k][2])
        k += 1
    out.extend(edits.at_end)
    return ProcessTrace(proc.rank, out)


# --------------------------------------------------------------------------- #
# The per-trace index: what every transformation of one trace shares.
# --------------------------------------------------------------------------- #

class _RankIndex:
    """Stream context of one rank of an original trace.

    ``region_prev[i]`` / ``region_next[i]`` bound the contiguous
    computation region around record ``i``: the virtual time of the
    nearest non-burst, non-event record strictly before it (0.0 at the
    stream head) and strictly after it (trace end at the tail).  They
    bound how far the ideal schedule may spread chunk events without
    crossing a communication dependency.

    Per matching key ``(peer, context, channel, tag, sub)``:
    ``next_send[i]`` is the index of the send after send ``i`` (the
    double-buffering anchor of its chunk waits) and ``next_recv_t[i]``
    the time of the receive after receive ``i`` (trace end for the
    last one).

    Per buffer identity (the ``buf`` record meta): ``prev_recv_buf[i]``
    is the time of the last receive into the buffer before send ``i``
    (data arrival — an ideal-schedule send of that buffer cannot move
    before it) and ``next_send_buf[i]`` the time of the next send of the
    buffer after receive ``i`` (the forward point — a postponed wait
    cannot move past it).

    ``wait_of[request]`` is the index of the Wait record completing a
    request, and ``max_request`` the largest request id in use.
    """

    __slots__ = ("records", "starts", "region_prev", "region_next",
                 "next_send", "next_recv_t", "prev_recv_buf",
                 "next_send_buf", "wait_of", "max_request")

    def __init__(self, proc: ProcessTrace) -> None:
        records = proc.records
        starts = proc.virtual_starts().tolist()
        n = len(records)
        end = starts[-1]
        self.records = records
        self.starts = starts
        self.region_prev = region_prev = [0.0] * n
        self.region_next = region_next = [end] * n
        self.next_send = next_send = {}
        self.next_recv_t = next_recv_t = {}
        self.prev_recv_buf = prev_recv_buf = {}
        self.next_send_buf = next_send_buf = {}
        self.wait_of = wait_of = {}
        max_request = 0
        last_send: dict[tuple, int] = {}
        last_recv: dict[tuple, int] = {}
        seen_recv: dict[int, float] = {}
        last = 0.0
        for i, rec in enumerate(records):
            region_prev[i] = last
            if isinstance(rec, (CpuBurst, EventRec)):
                continue
            t = last = starts[i]
            if isinstance(rec, Wait):
                for req in rec.requests:
                    wait_of[req] = i
                continue
            if not isinstance(rec, (Send, ISend, Recv, IRecv)):
                continue
            if rec.channel == CHANNEL_CHUNK:
                raise ValueError(
                    "input trace already contains chunked messages; "
                    "overlap_transform must run on an original trace"
                )
            if isinstance(rec, (ISend, IRecv)):
                max_request = max(max_request, rec.request)
            key = (rec.peer, rec.context, rec.channel, rec.tag, rec.sub)
            buf = rec.meta.get("buf")
            if isinstance(rec, (Send, ISend)):
                prev = last_send.get(key)
                if prev is not None:
                    next_send[prev] = i
                last_send[key] = i
                if buf is not None:
                    prev_recv_buf[i] = seen_recv.get(buf, 0.0)
            else:
                prev = last_recv.get(key)
                if prev is not None:
                    next_recv_t[prev] = t
                next_recv_t[i] = end
                last_recv[key] = i
                if buf is not None:
                    seen_recv[buf] = t
        self.max_request = max_request

        upcoming = end
        upcoming_send: dict[int, float] = {}
        for i in range(n - 1, -1, -1):
            region_next[i] = upcoming
            rec = records[i]
            if isinstance(rec, (CpuBurst, EventRec)):
                continue
            upcoming = starts[i]
            buf = rec.meta.get("buf") if isinstance(rec, (Send, ISend, Recv, IRecv)) else None
            if buf is None:
                continue
            if isinstance(rec, (Recv, IRecv)):
                next_send_buf[i] = upcoming_send.get(buf, math.inf)
            else:
                upcoming_send[buf] = upcoming


class _TraceIndex:
    """Everything the transformation reads off an original trace.

    Independent of the :class:`OverlapConfig`, so the real and the ideal
    transformation of one trace (paper §III-C) share it.  It references
    the trace's record lists, never the :class:`TraceSet` itself, so the
    weak memo in :func:`_index_of` does not keep traces alive.
    """

    __slots__ = ("ranks", "pairs")

    def __init__(self, trace: TraceSet) -> None:
        # Rank scans first: they reject an already-transformed trace
        # before matching could fail on it.
        self.ranks = [_RankIndex(proc) for proc in trace]
        self.pairs = match_messages_cached(trace)


#: Per-TraceSet memo of indexes, guarded by per-rank record counts the
#: way :func:`~repro.core.matching.match_messages_cached` is.
_index_memo: "weakref.WeakKeyDictionary[TraceSet, tuple[tuple[int, ...], _TraceIndex]]" = (
    weakref.WeakKeyDictionary()
)


def _index_of(trace: TraceSet) -> _TraceIndex:
    fingerprint = tuple(len(p.records) for p in trace)
    hit = _index_memo.get(trace)
    if hit is not None and hit[0] == fingerprint:
        return hit[1]
    index = _TraceIndex(trace)
    _index_memo[trace] = (fingerprint, index)
    return index


# --------------------------------------------------------------------------- #
# The transformation proper.
# --------------------------------------------------------------------------- #

@traced("transform.overlap")
def overlap_transform(
    trace: TraceSet,
    config: OverlapConfig | None = None,
    **kwargs,
) -> tuple[TraceSet, TransformStats]:
    """Rewrite an original trace into the overlapped-execution trace.

    Parameters may be given as an :class:`OverlapConfig` or as keyword
    arguments (``chunks=4, schedule="ideal", ...``).  Returns the new
    :class:`TraceSet` and a :class:`TransformStats` summary.  The input
    trace is not modified.
    """
    if config is None:
        config = OverlapConfig(**kwargs)
    elif kwargs:
        raise TypeError("pass either an OverlapConfig or keyword arguments, not both")

    index = _index_of(trace)
    stats = TransformStats()
    stats.messages_total = len(index.pairs)

    edits = [_Edits() for _ in range(trace.nranks)]
    req_counter = [r.max_request + 1 for r in index.ranks]

    def new_req(rank: int) -> int:
        req_counter[rank] += 1
        return req_counter[rank]

    for pair in index.pairs:
        if pair.size <= 0:
            stats.skipped_zero_size += 1
            continue
        sidx, ridx = index.ranks[pair.src], index.ranks[pair.dst]
        srec = sidx.records[pair.send_index]
        rrec = ridx.records[pair.recv_index]

        # The point where the original reception *completed*: the Recv
        # record itself, or the Wait record of a non-blocking receive.
        # Chunk waits may never move before it — the original program
        # had no data before that point, and moving synchronization
        # earlier can deadlock the replay (e.g. the IRecv/Send/Waitall
        # halo idiom where posting, sends, and wait share one virtual
        # instant).
        complete_idx = pair.recv_index
        if isinstance(rrec, IRecv):
            wi = ridx.wait_of.get(rrec.request)
            if wi is not None:
                complete_idx = wi
        ts = sidx.starts[pair.send_index]
        t_complete = ridx.starts[complete_idx]

        decision = _plan_message(
            pair, sidx, ridx, config, ts, complete_idx, t_complete,
        )
        if decision is None:
            continue
        sizes, send_times, wait_times = decision
        # Never wait before the original completion (np.maximum order:
        # an equal value keeps t_complete's bits).
        wait_times = [w if w > t_complete else t_complete for w in wait_times]
        nchunks = len(sizes)
        stats.messages_transformed += 1
        stats.chunks_created += nchunks
        advanced_before = ts - 1e-12
        postponed_after = t_complete + 1e-12
        stats.sends_advanced += sum(1 for t in send_times if t < advanced_before)
        stats.waits_postponed += sum(1 for w in wait_times if w > postponed_after)
        subs = [chunk_sub(pair.channel, pair.sub, c) for c in range(nchunks)]

        se, re_ = edits[pair.src], edits[pair.dst]

        # ---- sender side ------------------------------------------------ #
        se.removed.add(pair.send_index)
        if isinstance(srec, ISend):
            wi = sidx.wait_of.get(srec.request)
            if wi is not None:
                se.wait_strip[wi].add(srec.request)
        chunk_reqs: list[int] = []
        moved_before = ts - 1e-15
        for c in range(nchunks):
            req = new_req(pair.src)
            chunk_reqs.append(req)
            isend = ISend(
                peer=pair.dst, tag=pair.tag, size=sizes[c],
                channel=CHANNEL_CHUNK, sub=subs[c],
                context=pair.context, request=req,
                rendezvous=not config.double_buffering,
            )
            # Only chunks with evidence of earlier production move; the
            # rest keep the original send's position in the stream (see
            # "Causality rules" above).
            if send_times[c] < moved_before:
                se.add_timed(send_times[c], isend)
            else:
                se.before_index[pair.send_index].append(isend)
        waitall = Wait(tuple(chunk_reqs))
        nsi = sidx.next_send.get(pair.send_index)
        if config.double_buffering and nsi is not None:
            se.before_index[nsi].append(waitall)
        elif config.double_buffering:
            se.at_end.append(waitall)
        else:
            se.before_index[pair.send_index].append(waitall)

        # ---- receiver side ------------------------------------------------ #
        re_.removed.add(pair.recv_index)
        if isinstance(rrec, IRecv):
            wi = ridx.wait_of.get(rrec.request)
            if wi is not None:
                re_.wait_strip[wi].add(rrec.request)
        immediate_waits: list[Record] = []
        kept_until = t_complete + 1e-15
        for c in range(nchunks):
            req = new_req(pair.dst)
            re_.before_index[pair.recv_index].append(
                IRecv(
                    peer=pair.src, tag=pair.tag, size=sizes[c],
                    channel=CHANNEL_CHUNK, sub=subs[c],
                    context=pair.context, request=req,
                )
            )
            # Waits that cannot be postponed keep the original
            # completion point's position in the record stream
            # (index-anchored, after the IRecv postings and any sends in
            # between); only genuinely-postponed waits move by time.
            if wait_times[c] <= kept_until:
                immediate_waits.append(Wait((req,)))
            else:
                re_.add_timed(wait_times[c], Wait((req,)))
        re_.before_index[complete_idx].extend(immediate_waits)

    new_procs = [_rebuild(trace[r], edits[r]) for r in range(trace.nranks)]
    meta = dict(trace.meta)
    meta["overlap"] = {
        "chunks": config.chunks,
        "schedule": config.schedule,
        "advance_sends": config.advance_sends,
        "postpone_receptions": config.postpone_receptions,
        "double_buffering": config.double_buffering,
    }
    stats.skipped_no_profile = stats.messages_total - stats.messages_transformed - stats.skipped_zero_size
    reg = get_registry()
    reg.counter("transform.runs").inc()
    reg.counter("transform.messages_transformed").inc(stats.messages_transformed)
    reg.counter("transform.chunks_created").inc(stats.chunks_created)
    return TraceSet(new_procs, meta=meta), stats


def _plan_message(pair: MessagePair, sidx: _RankIndex, ridx: _RankIndex,
                  config: OverlapConfig, ts: float, complete_idx: int,
                  t_complete: float):
    """Decide chunk sizes and schedules for one non-empty message.

    Returns ``(sizes, send_times, wait_times)`` as lists of Python
    numbers, or None when the message is left untouched.  Chunk times
    are plain floats; on ties and NaN the comparisons pick the operand
    ``np.minimum`` and ``np.clip`` pick (``a if a < b or a != a else b``
    and ``lo if w < lo else (hi if w > hi else w)``), so the times are
    the element-wise numpy results bit for bit, signed zeros included.
    """
    if pair.channel != 0 and not config.transform_collectives:
        return None

    srec = sidx.records[pair.send_index]
    production = srec.production
    consumption = ridx.records[pair.recv_index].consumption

    elements = None
    if production is not None:
        elements = production.elements
    if consumption is not None:
        if elements is None:
            elements = consumption.elements
        elif consumption.elements != elements:
            consumption = None  # inconsistent view; trust the sender
    if elements is None:
        if config.schedule == "ideal":
            # No profile: fall back to the element count recorded off the
            # MPI call (a one-element reduction stays unchunkable, paper
            # Table II note on Alya), then to byte granularity.
            elements = srec.elements if srec.elements > 0 else pair.size
        else:
            return None
    if elements <= 0:
        return None

    plan = plan_chunks(pair.size, elements, config.chunks_for(pair.size))
    n = plan.nchunks

    # -- sender schedule ------------------------------------------------------
    if not config.advance_sends:
        send_times = [ts] * n
    elif config.schedule == "ideal":
        # Uniform production through the production interval (previous
        # send of the buffer -> this send), never before the buffer's
        # own data arrived (forwarded buffers), falling back to the
        # adjacent compute region when no profile exists.
        if production is not None:
            p_start = production.interval_start
        else:
            p_start = sidx.region_prev[pair.send_index]
        p_start = max(p_start, sidx.prev_recv_buf.get(pair.send_index, 0.0))
        span = max(ts - p_start, 0.0)
        send_times = [ts - span + (k / n) * span for k in range(1, n + 1)]
        send_times = [t if t < ts or t != t else ts for t in send_times]
    elif production is not None:
        # Never-stored chunks (NaN) keep the original send point.
        ready = chunk_ready_times(production, plan).tolist()
        send_times = [t if t < ts else ts for t in ready]
    else:
        send_times = [ts] * n

    # -- receiver schedule ------------------------------------------------------
    if not config.postpone_receptions:
        wait_times = [t_complete] * n
    else:
        t_next = ridx.next_recv_t[pair.recv_index]
        t_fwd = ridx.next_send_buf.get(pair.recv_index, math.inf)
        if config.schedule == "ideal":
            # Uniform consumption through the consumption interval (this
            # receive -> next receive of the buffer), never past the point
            # where the buffer is forwarded, falling back to the adjacent
            # compute region when no profile exists.
            if consumption is not None:
                c_end = consumption.interval_end
            else:
                c_end = ridx.region_next[complete_idx]
            c_end = min(c_end, t_fwd)
            span = max(c_end - t_complete, 0.0)
            wait_times = [t_complete + (k / n) * span for k in range(n)]
        elif consumption is not None:
            # Never-loaded chunks wait until the interval ends.
            end = consumption.interval_end
            needed = chunk_needed_times(consumption, plan).tolist()
            wait_times = [end if t != t else t for t in needed]
        else:
            wait_times = [t_complete] * n
        upper = max(min(t_next, t_fwd), t_complete)
        wait_times = [
            t_complete if w < t_complete else (upper if w > upper else w)
            for w in wait_times
        ]

    # A NaN chunk time (a NaN profile bound) leaves the message untouched.
    if any(t != t for t in send_times) or any(w != w for w in wait_times):
        return None
    return plan.sizes.tolist(), send_times, wait_times
