"""Outside-in layer tracing for the benchmark's traced run.

The benchmark adds no instrumentation to the program.  Instead,
:class:`LayerTracer` wraps the public functions named in :data:`TARGETS`
while a traced phase runs: every module of the ``repro`` package that
holds a reference to a target (``from .x import f`` copies included)
gets a wrapper that records one span per call.  A traced run installs
the wrappers once, before its set-up, and an untraced run never does.
Pool workers forked by a traced run inherit the wrappers and append
their spans to one file per process, because a forked worker never
returns to the parent's memory.

Each span holds its name, layer, start, end, parent span, the process,
the benchmark phase it ran in and an operation id shared by every span
of one app, replay or grid point.  Self time is a span's duration minus
the time its child spans cover; a layer's self time is the sum over its
spans.  Counts come from the program's own metrics registry (worker
counters arrive through the existing result funnel) and from the values
the wrapped calls return.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

#: (layer, span name, module, attribute) of every wrapped public call.
TARGETS = (
    ("tracer", "tracer.trace", "repro.apps.base", "Application.trace"),
    ("core", "core.overlap", "repro.core.transform", "overlap_transform"),
    ("core", "core.ideal", "repro.core.ideal", "ideal_transform"),
    ("columnar", "columnar.of", "repro.trace.columnar", "columnar_of"),
    ("columnar", "columnar.pack", "repro.trace.columnar", "from_traceset"),
    ("columnar", "columnar.encode", "repro.trace.columnar", "ColumnarTrace.encode"),
    ("columnar", "columnar.decode", "repro.trace.columnar", "decode"),
    ("dimemas", "dimemas.simulate", "repro.dimemas.replay", "simulate"),
    ("engine", "engine.durations", "repro.experiments.parallel",
     "ExperimentEngine.durations"),
    ("cache", "cache.lookup", "repro.experiments.pipeline",
     "AppExperiment.cached_duration"),
    ("cache", "cache.replay.load_duration", "repro.experiments.cache",
     "SimResultCache.load_duration"),
    ("cache", "cache.replay.store", "repro.experiments.cache",
     "SimResultCache.store"),
    ("cache", "cache.dispatch.put", "repro.experiments.cache", "TraceStore.put"),
    ("cache", "cache.dispatch.get", "repro.experiments.cache", "TraceStore.get"),
    ("insight", "insight.explain", "repro.insight.explain", "explain_traces"),
    ("insight", "insight.collect", "repro.insight.channel", "collect"),
    ("insight", "insight.attribute", "repro.insight.attribution", "attribute"),
    ("insight", "insight.scorecard", "repro.insight.scorecard", "scorecard"),
    ("audit", "audit.finish", "repro.audit.auditor", "InvariantAuditor.finish"),
    ("perturb", "perturb.build", "repro.perturb.scenarios", "build_scenario"),
    ("perturb", "perturb.normalize", "repro.perturb.schedule",
     "PerturbationSchedule.normalized"),
    ("perturb", "perturb.cpu", "repro.perturb.schedule",
     "PerturbationSchedule.scale_cpu_durations"),
)

#: Layers that own at least one wrapped call (self time, calls, failures).
LAYERS = ("tracer", "core", "columnar", "dimemas", "engine", "cache", "insight",
          "audit", "perturb")

#: Program registry counters read as per-phase deltas.
COUNTERS = (
    "replay.events", "replay.messages",
    "transform.messages_transformed", "transform.chunks_created",
    "engine.points_executed", "engine.dispatch.ship_points",
    "engine.dispatch.batches", "engine.retries", "engine.quarantined",
    "cache.replay.hits", "cache.replay.misses",
    "cache.trace.hits", "cache.trace.misses", "audit.violations",
)
#: Program registry histograms read as per-phase sum deltas.
HISTOGRAM_SUMS = ("engine.dispatch.prep_seconds",)


def _call_attrs(name: str, args: tuple, kwargs: dict, result) -> dict:
    """Counts and labels a wrapped call carries on its span."""
    if name == "tracer.trace":
        return {"records": sum(len(p.records) for p in result.trace)}
    if name == "columnar.encode":
        return {"bytes": len(result)}
    if name == "dimemas.simulate":
        cfg = args[1] if len(args) > 1 else kwargs.get("machine")
        perturb = kwargs.get("perturb")
        if perturb is None and cfg is not None:
            perturb = cfg.perturb
        if kwargs.get("audit") is not None:
            mode = "audit"
        elif kwargs.get("insight") is not None:
            mode = "insight"
        elif perturb is not None:
            mode = "perturb"
        else:
            mode = "plain"
        return {
            "mode": mode,
            "buses": "unlimited" if cfg is None or cfg.buses is None else "table1",
            "events": int(result.network_stats.get("events_executed", 0)),
        }
    if name == "cache.replay.load_duration":
        return {"hit": result is not None}
    return {}


def _worker_op(name: str, args: tuple, result) -> str | None:
    """Operation id of a call made inside a pool worker: its grid point
    (trace digest at a platform) or the trace it decodes."""
    if name == "dimemas.simulate" and len(args) > 1:
        digest = getattr(args[0], "digest", "?")
        return f"point:{digest[:12]}@{getattr(args[1], 'bandwidth_mbps', None)}"
    if name == "columnar.decode":
        return f"trace:{getattr(result, 'digest', '?')[:12]}"
    if name == "cache.dispatch.get" and len(args) > 1:
        return f"trace:{str(args[1])[:12]}"
    return None


class LayerTracer:
    """In-memory span recorder plus the install/uninstall of wrappers."""

    def __init__(self, work_dir: Path):
        self.pid = os.getpid()
        self.worker_dir = Path(work_dir) / "worker-spans"
        self.worker_dir.mkdir(parents=True, exist_ok=True)
        for stale in self.worker_dir.glob("*.jsonl"):
            stale.unlink()
        self.spans: list[dict] = []
        self.phases: list[dict] = []
        self.phase: dict | None = None
        self.op = ""
        self._ids = iter(range(1, sys.maxsize))
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self._worker_fp = None

    # -- phases -------------------------------------------------------------
    def begin(self, kind: str) -> None:
        """Open a phase: one set-up, one pass or one baseline."""
        from repro.obs import get_registry
        reg = get_registry()
        self.phase = {
            "kind": kind, "index": len(self.phases),
            "t0": time.perf_counter(), "t1": None,
            "c0": {n: reg.counter(n).value for n in COUNTERS},
            "h0": {n: reg.histogram(n).sum for n in HISTOGRAM_SUMS},
        }

    def end(self) -> None:
        from repro.obs import get_registry
        reg = get_registry()
        ph = self.phase
        ph["t1"] = time.perf_counter()
        c0, h0 = ph.pop("c0"), ph.pop("h0")
        ph["counters"] = {n: reg.counter(n).value - c0[n] for n in COUNTERS}
        ph["histograms"] = {n: reg.histogram(n).sum - h0[n] for n in HISTOGRAM_SUMS}
        self.phases.append(ph)
        self.phase = None

    # -- wrapping -----------------------------------------------------------
    def install(self) -> None:
        repro_modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))
        ]
        for layer, name, modname, attr in TARGETS:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, original, self._wrap(layer, name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(layer, name, original)
            for mod in repro_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._saved.append((owner, key, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def _wrap(self, layer: str, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            error = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if error is not None:
                    tracer._record(layer, name, sid, parent, t0, t1,
                                   {"error": error}, None)
            tracer._record(layer, name, sid, parent, t0, t1,
                           _call_attrs(name, args, kwargs, result),
                           _worker_op(name, args, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _record(self, layer, name, sid, parent, t0, t1, attrs, worker_op) -> None:
        pid = os.getpid()
        rec = {"name": name, "layer": layer, "sid": sid, "parent": parent,
               "pid": pid, "t0": t0, "t1": t1, "attrs": attrs}
        if pid == self.pid:
            rec["op"] = self.op
            rec["phase"] = self.phase["index"] if self.phase else None
            self.spans.append(rec)
            return
        # Forked pool worker: nothing it keeps in memory reaches the
        # parent, and workers end without running exit handlers, so each
        # span is written and flushed as it closes.
        rec["op"] = worker_op or "worker"
        if self._worker_fp is None or self._worker_fp[0] != pid:
            fp = open(self.worker_dir / f"{pid}.jsonl", "a", encoding="utf-8")
            self._worker_fp = (pid, fp)
        fp = self._worker_fp[1]
        fp.write(json.dumps(rec) + "\n")
        fp.flush()

    # -- output -------------------------------------------------------------
    def collect(self, obs_spans: list[dict]) -> list[dict]:
        """Every span of the run: this process's, the workers' files, and
        the program's own ``repro.obs`` spans (marked ``layer="obs"``),
        each assigned to the phase whose interval holds its start."""
        spans = list(self.spans)
        for path in sorted(self.worker_dir.glob("*.jsonl")):
            with open(path, encoding="utf-8") as fp:
                spans.extend(json.loads(line) for line in fp if line.strip())
        spans.extend(obs_spans)
        for rec in spans:
            if rec.get("phase") is None:
                rec["phase"] = self._phase_at(rec["t0"])
        return spans

    def _phase_at(self, t: float) -> int | None:
        for ph in self.phases:
            if ph["t0"] <= t <= ph["t1"]:
                return ph["index"]
        return None


def obs_spans(run) -> list[dict]:
    """The program's ``repro.obs`` spans of an open run (parent and pool
    workers), on this process's ``perf_counter`` clock."""
    from repro.obs.spans import take_epoch
    epoch = take_epoch()
    out = []
    for sp in run.drain_spans():
        out.append({
            "name": sp["name"], "layer": "obs", "sid": sp.get("sid"),
            "parent": sp.get("parent"), "pid": sp.get("pid"),
            "t0": sp["t0"] - epoch, "t1": sp["t1"] - epoch,
            "attrs": {}, "op": "", "phase": None,
        })
    return out


def write_spans(spans: list[dict], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fp:
        for rec in spans:
            fp.write(json.dumps(rec, default=repr) + "\n")


# --------------------------------------------------------------------------- #
# Aggregation: spans + phase counters -> per-layer metrics.
# --------------------------------------------------------------------------- #

#: Inclusive-time quantities: (span names counted, ancestor names that
#: exclude a span).  A call nested in another call of its own group is
#: already inside that call's time; an ``overlap_transform`` run inside
#: ``ideal_transform`` belongs to the ideal transform.
INCLUSIVE = {
    "tracer.trace": ({"tracer.trace"}, {"tracer.trace"}),
    "core.overlap": ({"core.overlap"}, {"core.overlap", "core.ideal"}),
    "core.ideal": ({"core.ideal"}, {"core.ideal"}),
    "columnar.encode": ({"columnar.of", "columnar.pack", "columnar.encode"},
                        {"columnar.of", "columnar.pack", "columnar.encode"}),
    "columnar.decode": ({"columnar.decode"}, {"columnar.decode"}),
    "dimemas.simulate": ({"dimemas.simulate"}, {"dimemas.simulate"}),
    "insight.collect": ({"insight.collect"}, {"insight.collect"}),
    "insight.attribute": ({"insight.attribute"}, {"insight.attribute"}),
    "cache.lookup": ({"cache.lookup"}, {"cache.lookup"}),
}


def _phase_totals(spans: list[dict], phase: dict) -> dict[str, float]:
    """Additive per-layer quantities of one phase instance."""
    mine = [s for s in spans if s["phase"] == phase["index"]]
    tot: dict[str, float] = defaultdict(float)
    by_id = {(s["pid"], s["sid"]): s for s in mine if s["layer"] != "obs"}
    child_time: dict[tuple, float] = defaultdict(float)
    for s in by_id.values():
        if s["parent"] is not None:
            child_time[(s["pid"], s["parent"])] += s["t1"] - s["t0"]

    def ancestors(s) -> set:
        names = set()
        parent = by_id.get((s["pid"], s["parent"]))
        while parent is not None:
            names.add(parent["name"])
            parent = by_id.get((parent["pid"], parent["parent"]))
        return names

    for key, s in by_id.items():
        dur = s["t1"] - s["t0"]
        layer, name, attrs = s["layer"], s["name"], s["attrs"]
        tot[f"{layer}.self_s"] += dur - child_time[key]
        tot[f"{layer}.calls"] += 1
        if "error" in attrs:
            tot[f"{layer}.failures"] += 1
        tot["tracer.records"] += attrs.get("records", 0)
        tot["columnar.bytes"] += attrs.get("bytes", 0)
        above = ancestors(s)
        for quantity, (names, stop) in INCLUSIVE.items():
            if name in names and not above & stop:
                tot[f"incl.{quantity}"] += dur
                tot[f"n.{quantity}"] += 1
        if name == "dimemas.simulate" and "mode" in attrs:
            mode = attrs["mode"]
            tot[f"sim.{mode}_s"] += dur
            if mode == "plain":
                tot[f"sim.plain.{attrs['buses']}_s"] += dur
                tot[f"sim.plain.{attrs['buses']}_events"] += attrs["events"]
    for s in mine:
        if s["layer"] == "obs" and s["name"] == "replay.plan":
            tot["obs.replay.plan_s"] += s["t1"] - s["t0"]
    for n, v in phase["counters"].items():
        tot[f"counter.{n}"] += v
    for n, v in phase["histograms"].items():
        tot[f"hist.{n}"] += v
    return tot


def _median_by_kind(spans: list[dict], phases: list[dict], kinds) -> dict[str, float]:
    """Per-quantity median over the phase instances of each kind, summed
    across ``kinds``."""
    out: dict[str, float] = defaultdict(float)
    for kind in kinds:
        rows = [_phase_totals(spans, ph) for ph in phases if ph["kind"] == kind]
        if not rows:
            continue
        for key in set().union(*rows):
            out[key] += statistics.median(r.get(key, 0.0) for r in rows)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _overhead(observed: float, plain: float) -> float:
    """Relative extra time of observed replays over plain ones (0 when
    the workload runs no such replays)."""
    return (observed - plain) / plain if observed > 0 and plain > 0 else 0.0


#: Per-layer metric -> unit, in report order.
PER_LAYER_UNITS = {
    "tracer.trace_s": "s", "tracer.records": "count", "tracer.records_per_s": "1/s",
    "core.overlap_s": "s", "core.ideal_s": "s",
    "core.messages_transformed": "count", "core.chunks_created": "count",
    "columnar.encode_s": "s", "columnar.decode_s": "s", "columnar.bytes": "B",
    "dimemas.plan_s": "s", "dimemas.replay_s": "s",
    "dimemas.events": "count", "dimemas.messages": "count",
    "dimemas.events_per_s.buses_table1": "1/s",
    "dimemas.events_per_s.buses_unlimited": "1/s",
    "engine.prep_s": "s", "engine.points_executed": "count",
    "engine.ship_points": "count", "engine.batches": "count",
    "engine.retries": "count", "engine.quarantined": "count",
    "cache.replay.hits": "count", "cache.replay.misses": "count",
    "cache.trace.hits": "count", "cache.trace.misses": "count",
    "cache.warm_hit_ratio": "ratio", "cache.bytes_written": "B",
    "cache.lookup_s": "s",
    "insight.collect_s": "s", "insight.collect_overhead": "ratio",
    "insight.attribute_s": "s",
    "audit.full_s": "s", "audit.full_overhead": "ratio", "audit.violations": "count",
    "perturb.replay_s": "s", "perturb.overhead": "ratio",
    **{f"{layer}.{what}": unit for layer in LAYERS
       for what, unit in (("self_s", "s"), ("calls", "count"), ("failures", "count"))},
    "bench.trace_overhead_s": "s", "bench.trace_overhead": "ratio",
}


def per_layer_metrics(spans: list[dict], phases: list[dict],
                      cache_bytes: float) -> dict[str, float]:
    """The traced run's per-layer metrics.

    Layer times and counts describe one set-up plus one timed pass (the
    work behind ``setup_s`` and ``wall_s``); the ``engine.*`` and
    ``cache.*`` families describe the timed pass plus one warm pass (the
    grid writes its caches cold and reads them warm).  Each quantity is the
    median over the run's repetitions of that phase.  Overheads of the
    observed replays divide by the plain replays of the same traces
    (the ``baseline`` phase).
    """
    main = _median_by_kind(spans, phases, ("setup", "pass"))
    grid = _median_by_kind(spans, phases, ("pass", "warm"))
    warm = _median_by_kind(spans, phases, ("warm",))
    base = _median_by_kind(spans, phases, ("baseline",))
    plain = base.get("sim.plain.table1_s", 0.0) + base.get("sim.plain.unlimited_s", 0.0)

    m = {
        "tracer.trace_s": main["incl.tracer.trace"],
        "tracer.records": main["tracer.records"],
        "tracer.records_per_s": _ratio(main["tracer.records"], main["incl.tracer.trace"]),
        "core.overlap_s": main["incl.core.overlap"],
        "core.ideal_s": main["incl.core.ideal"],
        "core.messages_transformed": main["counter.transform.messages_transformed"],
        "core.chunks_created": main["counter.transform.chunks_created"],
        "columnar.encode_s": (main["incl.columnar.of"] + main["incl.columnar.pack"]
                              + main["incl.columnar.encode"]),
        "columnar.decode_s": grid["incl.columnar.decode"],
        "columnar.bytes": main["columnar.bytes"],
        "dimemas.plan_s": main["obs.replay.plan_s"],
        "dimemas.replay_s": main["incl.dimemas.simulate"],
        "dimemas.events": main["counter.replay.events"],
        "dimemas.messages": main["counter.replay.messages"],
        "dimemas.events_per_s.buses_table1": _ratio(
            main["sim.plain.table1_events"], main["sim.plain.table1_s"]),
        "dimemas.events_per_s.buses_unlimited": _ratio(
            main["sim.plain.unlimited_events"], main["sim.plain.unlimited_s"]),
        "engine.prep_s": grid["hist.engine.dispatch.prep_seconds"],
        "engine.points_executed": grid["counter.engine.points_executed"],
        "engine.ship_points": grid["counter.engine.dispatch.ship_points"],
        "engine.batches": grid["counter.engine.dispatch.batches"],
        "engine.retries": grid["counter.engine.retries"],
        "engine.quarantined": grid["counter.engine.quarantined"],
        "cache.replay.hits": grid["counter.cache.replay.hits"],
        "cache.replay.misses": grid["counter.cache.replay.misses"],
        "cache.trace.hits": grid["counter.cache.trace.hits"],
        "cache.trace.misses": grid["counter.cache.trace.misses"],
        "cache.warm_hit_ratio": _ratio(
            warm["counter.cache.replay.hits"],
            warm["counter.cache.replay.hits"] + warm["counter.cache.replay.misses"]),
        "cache.bytes_written": cache_bytes,
        "cache.lookup_s": _ratio(warm["incl.cache.lookup"], warm["n.cache.lookup"]),
        "insight.collect_s": main["incl.insight.collect"],
        "insight.collect_overhead": _overhead(main["incl.insight.collect"], plain),
        "insight.attribute_s": main["incl.insight.attribute"],
        "audit.full_s": main["sim.audit_s"],
        "audit.full_overhead": _overhead(main["sim.audit_s"], plain),
        "audit.violations": main["counter.audit.violations"],
        "perturb.replay_s": main["sim.perturb_s"],
        "perturb.overhead": _overhead(main["sim.perturb_s"], plain),
    }
    for layer in LAYERS:
        src = grid if layer in ("engine", "cache") else main
        for what in ("self_s", "calls", "failures"):
            m[f"{layer}.{what}"] = src[f"{layer}.{what}"]
    return {k: float(v) for k, v in m.items()}
