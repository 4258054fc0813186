"""The benchmark's four workloads and the reference results they check.

Every workload runs the paper's pipeline at the paper's scale (64 ranks,
4 chunks, default application parameters) through the program's public
API.  A workload has an untimed ``prepare`` (its set-up), a timed
``run_pass`` that returns the operations it performed with their
outputs, and ``check``, which compares those outputs against the stored
references (see README.md for why each workload exists).

The seed picks the ``platform-sweep`` bandwidth ladder and the order of
operations inside each pass; the program only ever sees the generated
inputs.  Ladders are drawn from a finite candidate set, and the
references cover every candidate, so every seed is checked against
references, not only the default one.  The ``bandwidth-sag`` scenario
of ``observed-replay`` ignores its seed, so the benchmark does not draw
one (:data:`PERTURB_SEED`).
"""

from __future__ import annotations

import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import probe
from repro.apps import get_app
from repro.audit import AuditConfig, result_digest
from repro.core import ideal as _core_ideal
from repro.core import transform as _core_transform
from repro.dimemas import replay as _replay
from repro.dimemas.machine import MachineConfig
from repro.experiments import parallel as _parallel
from repro.insight import explain as _explain
from repro.perturb import scenarios as _scenarios
from repro.trace import columnar as _columnar

VARIANTS = ("original", "real", "ideal")
#: Tolerance of the per-rank insight conservation check (attributed
#: wait == blocked time), the same bound the program's tests pin.
CONSERVATION_ATOL = 1e-9
#: Worker processes of the ``engine-grid`` engine.
JOBS = 2
#: Seed of the ``bandwidth-sag`` perturbation.  The scenario does not use
#: its seed today; drawing one from the run's seed would only relabel
#: identical replays.
PERTURB_SEED = 0


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark scale (``full`` is the paper's)."""

    name: str
    nranks: int
    chunks: int
    #: Applications of one ``cold-pipeline`` pass.
    pipeline_apps: tuple
    #: Application of ``platform-sweep``, ``engine-grid`` and
    #: ``observed-replay``.
    app: str
    #: Candidate bandwidths (MB/s) of the seeded ladder; a seed picks
    #: three, a third of the candidate list apart.
    ladder: tuple
    #: Bandwidths of the engine grid (None = the Table I platform).
    grid_bandwidths: tuple


FULL = Scale(
    name="full", nranks=64, chunks=4, pipeline_apps=("specfem3d",),
    app="cg",
    ladder=tuple(round(31.25 * 2 ** (j / 4), 3) for j in range(16)),
    grid_bandwidths=(None, 62.5, 125.0, 250.0, 500.0),
)
SMOKE = Scale(
    name="smoke", nranks=8, chunks=4, pipeline_apps=("cg",), app="cg",
    ladder=(31.25, 62.5, 125.0, 250.0), grid_bandwidths=(None, 125.0),
)
SCALES = {s.name: s for s in (FULL, SMOKE)}


def bw_label(bw: float | None) -> str:
    return "default" if bw is None else repr(float(bw))


def replay_key(app: str, variant: str, bw: float | None, buses: str) -> str:
    return f"replay/{app}/{variant}/{bw_label(bw)}/{buses}"


def perturbed_key(app: str, variant: str) -> str:
    return f"perturbed/{app}/{variant}"


def platform(app: str, bw: float | None, buses: str) -> MachineConfig:
    """The paper test bed of ``app`` with a bandwidth and a bus regime
    (``table1`` = the Table I bus count, ``unlimited`` = no bus limit)."""
    base = MachineConfig.paper_testbed(app)
    overrides = {}
    if bw is not None:
        overrides["bandwidth_mbps"] = bw
    if buses == "unlimited":
        overrides["buses"] = None
    return base.with_platform(**overrides) if overrides else base


def pick_ladder(scale: Scale, seed: int) -> tuple:
    """Three bandwidths spanning the candidate range at a seeded offset.

    Replay cost is not monotone in bandwidth (it peaks where transfers
    start to queue), so every ladder samples the low, middle and high
    end; any two-point ladder would change the pass cost by a seventh
    from one seed to the next.
    """
    stride = len(scale.ladder) // 3
    offset = random.Random(f"ladder/{seed}").randrange(len(scale.ladder) - 2 * stride)
    return tuple(scale.ladder[offset + k * stride] for k in range(3))


def build_triple(app: str, scale: Scale) -> dict:
    """Trace ``app`` and derive its real- and ideal-pattern traces."""
    original = get_app(app).trace(nranks=scale.nranks).trace
    real, _ = _core_transform.overlap_transform(
        original, _core_transform.OverlapConfig(chunks=scale.chunks, schedule="real"))
    ideal, _ = _core_ideal.ideal_transform(original, chunks=scale.chunks)
    return {"original": original, "real": real, "ideal": ideal}


# --------------------------------------------------------------------------- #
# Operations and their checks.
# --------------------------------------------------------------------------- #

@dataclass
class Op:
    """One benchmark operation: an app pipeline, a replay or a grid pass.

    ``steps`` holds the seconds of each timed step and ``kernels`` the
    mean of the host-speed probe measured just before and just after it;
    an operation that times no sub-steps is one step named after itself.
    """

    key: str
    probe: probe.Probe
    outputs: dict = field(default_factory=dict)
    error: str | None = None
    steps: dict = field(default_factory=dict)
    kernels: dict = field(default_factory=dict)

    def step(self, name: str, fn, *args, **kwargs):
        before = self.probe.seconds()
        t0 = time.perf_counter()
        value = fn(*args, **kwargs)
        self.steps[f"{self.key}/{name}"] = time.perf_counter() - t0
        self.kernels[f"{self.key}/{name}"] = (before + self.probe.seconds()) / 2
        return value


class Checker:
    """Compares outputs with the references and with earlier repeats.

    A missing or differing reference, a repeat that is not bitwise equal
    to the first occurrence, an audit violation or a broken insight
    conservation fails the operation.
    """

    def __init__(self, refs: dict):
        self.refs = refs
        self.seen: dict[str, object] = {}

    def _same(self, op: Op, key: str, value) -> None:
        first = self.seen.setdefault(key, value)
        if first != value:
            op.error = op.error or f"{key}: repeat {value!r} != first {first!r}"
        ref = self.refs.get(key)
        if ref is None:
            op.error = op.error or f"{key}: no reference"
        elif ref != value:
            op.error = op.error or f"{key}: {value!r} != reference {ref!r}"

    def trace(self, op: Op, app: str, variant: str, trace) -> None:
        self._same(op, f"trace/{app}/{variant}", _columnar.columnar_of(trace).digest)

    def result(self, op: Op, key: str, result) -> None:
        self._same(op, key, {"duration": result.duration,
                             "digest": result_digest(result)})

    def duration(self, op: Op, key: str, duration: float) -> None:
        ref = self.refs.get(key)
        if ref is None:
            op.error = op.error or f"{key}: no reference"
        elif ref["duration"] != duration:
            op.error = op.error or (
                f"{key}: duration {duration!r} != reference {ref['duration']!r}")


def _run(op: Op, fn) -> Op:
    before = op.probe.seconds()
    t0 = time.perf_counter()
    try:
        fn(op)
    except Exception as exc:  # noqa: BLE001 - a failed operation, reported
        op.error = f"{type(exc).__name__}: {exc}"
    if not op.steps:
        op.steps[op.key] = time.perf_counter() - t0
        op.kernels[op.key] = (before + op.probe.seconds()) / 2
    return op


# --------------------------------------------------------------------------- #
# Workloads.
# --------------------------------------------------------------------------- #

class Workload:
    """Base: ``prepare`` (untimed), ``run_pass`` (timed), ``check``."""

    name = ""
    #: Seconds of warm passes to repeat after the cold one; None when the
    #: workload keeps no cache a repeated pass could read.
    warm_block_s: float | None = None
    #: Whether a second pass in the same process is still the timed pass
    #: (true when set-up leaves the process in the pass's starting state).
    repeatable = False

    def __init__(self, scale: Scale, seed: int, work_dir: Path):
        self.scale = scale
        self.work_dir = Path(work_dir)
        self.probe = probe.Probe()

    def op(self, key: str) -> Op:
        return Op(key, self.probe)

    def prepare(self) -> None:
        pass

    def run_pass(self, rng: random.Random) -> list[Op]:
        raise NotImplementedError

    def check(self, ops: list[Op], checker: Checker) -> None:
        raise NotImplementedError

    def baseline(self) -> None:
        """Plain replays behind the traced run's overhead ratios."""

    def cache_bytes(self) -> int:
        """Bytes the timed pass left in persistent caches."""
        return 0

    def close(self) -> None:
        pass


class ColdPipeline(Workload):
    """Trace, transform, encode and replay each app from nothing."""

    name = "cold-pipeline"

    def run_pass(self, rng):
        apps = list(self.scale.pipeline_apps)
        rng.shuffle(apps)
        ops = []
        for app in apps:
            def one(op, app=app):
                c = self.scale.chunks
                original = op.step("trace", lambda: get_app(app).trace(
                    nranks=self.scale.nranks).trace)
                real, _ = op.step(
                    "overlap", _core_transform.overlap_transform, original,
                    _core_transform.OverlapConfig(chunks=c, schedule="real"))
                ideal, _ = op.step("ideal", _core_ideal.ideal_transform, original,
                                   chunks=c)
                trip = {"original": original, "real": real, "ideal": ideal}
                op.step("encode", lambda: [
                    _columnar.columnar_of(trip[v]).encode() for v in VARIANTS])
                cfg = MachineConfig.paper_testbed(app)
                op.outputs["results"] = {
                    v: op.step(f"replay/{v}", _replay.simulate, trip[v], cfg)
                    for v in VARIANTS}
                op.outputs["triple"] = trip
            ops.append(_run(self.op(f"pipeline/{app}"), one))
        return ops

    def check(self, ops, checker):
        for op in ops:
            if op.error:
                continue
            app = op.key.split("/", 1)[1]
            for v in VARIANTS:
                checker.trace(op, app, v, op.outputs["triple"][v])
                checker.result(op, replay_key(app, v, None, "table1"),
                               op.outputs["results"][v])
            op.outputs.clear()


class _WarmTriple(Workload):
    """Set-up shared by the replay-only workloads: the app's three traces
    built and their replay plans warmed."""

    repeatable = True

    def prepare(self):
        self.triple = build_triple(self.scale.app, self.scale)
        cfg = MachineConfig.paper_testbed(self.scale.app)
        self.plain = {v: _replay.simulate(self.triple[v], cfg) for v in VARIANTS}


class PlatformSweep(_WarmTriple):
    """Replay the warmed traces over a seeded bandwidth ladder, with the
    Table I bus count and with unlimited buses."""

    name = "platform-sweep"

    def __init__(self, scale, seed, work_dir):
        super().__init__(scale, seed, work_dir)
        self.ladder = pick_ladder(scale, seed)

    def run_pass(self, rng):
        points = [(v, bw, buses) for v in VARIANTS for bw in self.ladder
                  for buses in ("table1", "unlimited")]
        rng.shuffle(points)
        ops = []
        for v, bw, buses in points:
            def one(op, v=v, bw=bw, buses=buses):
                op.outputs["result"] = _replay.simulate(
                    self.triple[v], platform(self.scale.app, bw, buses))
            ops.append(_run(self.op(replay_key(self.scale.app, v, bw, buses)), one))
        return ops

    def check(self, ops, checker):
        for op in ops:
            if not op.error:
                checker.result(op, op.key, op.outputs.pop("result"))


class ObservedReplay(_WarmTriple):
    """Explain the triple, then replay each variant audited and under a
    seeded bandwidth sag: the replay core with its side channels on."""

    name = "observed-replay"

    def baseline(self):
        cfg = MachineConfig.paper_testbed(self.scale.app)
        for v in VARIANTS:
            _replay.simulate(self.triple[v], cfg)

    def prepare(self):
        super().prepare()
        self.sag = _scenarios.build_scenario(
            "bandwidth-sag", self.plain["original"].duration, PERTURB_SEED)

    def run_pass(self, rng):
        app = self.scale.app
        cfg = MachineConfig.paper_testbed(app)

        def explain(op):
            op.outputs["explanation"] = _explain.explain_traces(
                self.triple, cfg, app=app, chunks=self.scale.chunks)

        def audited(op, v):
            audit = AuditConfig(level="full")
            op.outputs["result"] = _replay.simulate(self.triple[v], cfg, audit=audit)
            op.outputs["violations"] = len(audit.report.violations)

        def perturbed(op, v):
            op.outputs["result"] = _replay.simulate(self.triple[v], cfg, perturb=self.sag)

        steps = [(f"explain/{app}", explain)]
        steps += [(f"audit/{v}", lambda op, v=v: audited(op, v)) for v in VARIANTS]
        steps += [(perturbed_key(app, v), lambda op, v=v: perturbed(op, v))
                  for v in VARIANTS]
        rng.shuffle(steps)
        return [_run(self.op(key), fn) for key, fn in steps]

    def check(self, ops, checker):
        app = self.scale.app
        for op in ops:
            if op.error:
                continue
            out = op.outputs
            if op.key.startswith("explain/"):
                ex = out["explanation"]
                for v in VARIANTS:
                    res = ex.results[v]
                    checker.result(op, replay_key(app, v, None, "table1"), res)
                    attr = ex.attribution[v]
                    for rank in range(res.nranks):
                        blocked = sum(t1 - t0 for s, t0, t1 in res.states[rank]
                                      if s != "Running")
                        if abs(attr.rank_total(rank) - blocked) > CONSERVATION_ATOL:
                            op.error = op.error or (
                                f"{op.key}: {v} rank {rank} attributed "
                                f"{attr.rank_total(rank)!r} != blocked {blocked!r}")
            elif op.key.startswith("audit/"):
                v = op.key.split("/", 1)[1]
                checker.result(op, replay_key(app, v, None, "table1"), out["result"])
                if out["violations"]:
                    op.error = op.error or f"{op.key}: {out['violations']} violation(s)"
            else:
                checker.result(op, op.key, out["result"])
            out.clear()


class EngineGrid(Workload):
    """The experiment engine on a grid: cold on a fresh cache directory,
    then warm on the cache the cold pass wrote."""

    name = "engine-grid"
    warm_block_s = 0.5

    def __init__(self, scale, seed, work_dir):
        super().__init__(scale, seed, work_dir)
        # The pool keeps both of its cores busy: pin the process (and so
        # its workers) to them and probe both.
        self.probe = probe.pinned(JOBS)

    def prepare(self):
        self.cache_dir = self.work_dir / "grid-cache"
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.points = _parallel.expand_grid(
            [self.scale.app], VARIANTS, self.scale.grid_bandwidths,
            nranks=self.scale.nranks, chunks=(self.scale.chunks,))

    def run_pass(self, rng):
        points = list(self.points)
        rng.shuffle(points)

        def grid(op):
            with _parallel.ExperimentEngine(jobs=JOBS, cache_dir=self.cache_dir) as eng:
                op.outputs["durations"] = eng.durations(points)
            op.outputs["points"] = points
        return [_run(self.op("grid"), grid)]

    def cache_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.cache_dir.rglob("*") if p.is_file())

    def check(self, ops, checker):
        for op in ops:
            if op.error:
                continue
            for p, dur in zip(op.outputs["points"], op.outputs["durations"]):
                key = replay_key(p.app, p.variant, p.bandwidth_mbps, "table1")
                checker.duration(op, key, dur)
                first = checker.seen.setdefault(f"grid/{key}", dur)
                if first != dur:
                    op.error = op.error or f"grid {key}: warm {dur!r} != cold {first!r}"
            op.outputs.clear()

    def close(self):
        shutil.rmtree(self.cache_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (ColdPipeline, PlatformSweep, EngineGrid, ObservedReplay)}


# --------------------------------------------------------------------------- #
# Reference generation.
# --------------------------------------------------------------------------- #

def generate_references(scale: Scale) -> dict:
    """Every reference any seed can need, computed by direct calls."""
    refs: dict = {}

    def put(key, res):
        refs[key] = {"duration": res.duration, "digest": result_digest(res)}

    apps = sorted(set(scale.pipeline_apps) | {scale.app})
    for app in apps:
        trip = build_triple(app, scale)
        for v in VARIANTS:
            refs[f"trace/{app}/{v}"] = _columnar.columnar_of(trip[v]).digest
            put(replay_key(app, v, None, "table1"),
                _replay.simulate(trip[v], MachineConfig.paper_testbed(app)))
        if app != scale.app:
            continue
        for v in VARIANTS:
            for bw in scale.ladder:
                for buses in ("table1", "unlimited"):
                    put(replay_key(app, v, bw, buses),
                        _replay.simulate(trip[v], platform(app, bw, buses)))
            for bw in scale.grid_bandwidths:
                put(replay_key(app, v, bw, "table1"),
                    _replay.simulate(trip[v], platform(app, bw, "table1")))
        horizon = refs[replay_key(app, "original", None, "table1")]["duration"]
        sag = _scenarios.build_scenario("bandwidth-sag", horizon, PERTURB_SEED)
        for v in VARIANTS:
            put(perturbed_key(app, v),
                _replay.simulate(trip[v], MachineConfig.paper_testbed(app), perturb=sag))
    return dict(sorted(refs.items()))
