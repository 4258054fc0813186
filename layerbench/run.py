"""Layered, paper-scale benchmark of the overlap-analysis pipeline.

Run from the repository root::

    python3 layerbench/run.py --workload cold-pipeline --seed 1 --seconds 10 --trace 0
    python3 layerbench/run.py references            # regenerate references.json
    python3 layerbench/run.py references --smoke    # ... references-smoke.json

One run starts fresh worker processes one after another, each importing
the program, doing the workload's set-up and then one timed pass (on
``engine-grid`` followed by warm passes; see README.md).  It stops once
at least three processes ran and their passes took ``--seconds`` in
total.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` alternates traced and untraced
processes and prints the per-layer metrics.  The last line of standard
output is one JSON object; the exit code is non-zero when any operation
failed or any output differed from its reference.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform as _platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import probe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".layerbench"

WORKLOAD_NAMES = ("cold-pipeline", "platform-sweep", "engine-grid", "observed-replay")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "warm_wall_s": "s", "peak_rss_mb": "MB"}
#: Fewest worker processes per run: ``setup_s`` is a median over them.
MIN_PROCESSES = 3
#: A run stops starting processes after this many seconds, so that it
#: ends well inside three minutes even on a loaded host.
SPAWN_DEADLINE_S = 120.0
PROCESS_TIMEOUT_S = 170.0


def references_path(scale: str) -> Path:
    return HERE / ("references.json" if scale == "full" else f"references-{scale}.json")


def fingerprint(seed: int | None) -> dict:
    """Host and build identity recorded in every result document."""
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or _platform.processor() or None,
        "python": _platform.python_version(),
        "numpy": numpy_version,
        "git_revision": rev,
        "seed": seed,
    }


# --------------------------------------------------------------------------- #
# One worker process: set-up, the timed pass, warm passes.
# --------------------------------------------------------------------------- #

def child_main(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads as W
    from repro import obs

    scale = W.SCALES[args.scale]
    refs = json.loads(references_path(args.scale).read_text())
    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    wl = W.WORKLOADS[args.workload](scale, args.seed, work_dir)
    checker = W.Checker(refs)

    tracer = run_ctx = None
    if args.traced:
        import layers
        tracer = layers.LayerTracer(work_dir)
        tracer.install()
        obs.enable()
        run_ctx = obs.RunContext(work_dir / "obs", command="layerbench", seed=args.seed)

    def phase(kind, fn):
        if tracer is not None:
            tracer.begin(kind)
        try:
            return fn()
        finally:
            if tracer is not None:
                tracer.end()

    ops_done: list = []
    passes: list[dict] = []

    def timed_pass(kind: str) -> None:
        rng = random.Random(f"order/{args.seed}/{args.index}/{len(passes)}")
        t0 = time.perf_counter()
        ops = phase(kind, lambda: wl.run_pass(rng))
        wall = time.perf_counter() - t0
        passes.append({
            "kind": kind, "wall": wall,
            "steps": {k: v for op in ops for k, v in op.steps.items()},
            "kernels": {k: v for op in ops for k, v in op.kernels.items()},
        })
        wl.check(ops, checker)
        ops_done.extend(ops)

    t0 = time.perf_counter()
    before_setup = wl.probe.seconds()
    setup_excluded = time.perf_counter() - t0
    phase("setup", wl.prepare)
    setup_end = time.perf_counter()
    setup_kernel = (before_setup + wl.probe.seconds()) / 2
    while True:
        timed_pass("pass")
        if not wl.repeatable or sum(p["wall"] for p in passes) >= args.pass_budget:
            break
    cache_bytes = wl.cache_bytes()
    if wl.warm_block_s is not None:
        t_block = time.perf_counter()
        while time.perf_counter() - t_block < wl.warm_block_s:
            timed_pass("warm")
    if tracer is not None:
        phase("baseline", wl.baseline)
    wl.close()

    report = {
        "index": args.index, "traced": bool(args.traced), "pid": os.getpid(),
        "setup_end": setup_end, "setup_excluded": setup_excluded,
        "setup_kernel": setup_kernel,
        "passes": passes,
        "attempted": len(ops_done),
        "failed": sum(1 for op in ops_done if op.error),
        "errors": [op.error for op in ops_done if op.error][:20],
        "rss_self_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rss_workers_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    if tracer is not None:
        obs.disable()
        spans = tracer.collect(layers.obs_spans(run_ctx))
        run_ctx.finalize()
        tracer.uninstall()
        layers.write_spans(spans, Path(args.spans_out))
        report["per_layer"] = layers.per_layer_metrics(spans, tracer.phases, cache_bytes)
    Path(args.report).write_text(json.dumps(report))
    return 0


# --------------------------------------------------------------------------- #
# The run: start worker processes, aggregate, print.
# --------------------------------------------------------------------------- #

def _median(values):
    return statistics.median(values) if values else 0.0


def pass_time(children: list[dict], kind: str, scaled: bool = True) -> float:
    """A pass's time as the sum over its steps of each step's median.

    Every pass of a kind runs the same steps (one app pipeline stage,
    one replay, one grid pass, ...), in a seeded order that changes from
    pass to pass.  Taking the median per step, across every process of
    the run, keeps one step's unlucky moment (a collector pause, a burst
    of contention from another tenant of the host) from moving the
    whole pass.  Each step time is scaled by the host-speed probe
    measured around it (see :mod:`probe`) unless ``scaled`` is false.
    """
    samples: dict[str, list[float]] = {}
    for c in children:
        for p in c["passes"]:
            if p["kind"] == kind:
                for step, seconds in p["steps"].items():
                    scale = probe.REFERENCE_S / p["kernels"][step] if scaled else 1.0
                    samples.setdefault(step, []).append(seconds * scale)
    return sum(statistics.median(v) for v in samples.values())


def run_main(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"layerbench: no program source under {SRC}", file=sys.stderr)
        return 2
    refs = references_path(args.scale)
    if not refs.is_file():
        print(f"layerbench: reference file {refs} is missing", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = WORK / "tmp" / f"{tag}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    t_run = time.perf_counter()
    children: list[dict] = []
    crashed: list[str] = []
    try:
        while True:
            k = len(children) + len(crashed)
            traced = bool(args.trace) and k % 2 == 0
            report = tmp / f"report-{k}.json"
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--child",
                "--workload", args.workload, "--seed", str(args.seed),
                "--scale", args.scale, "--index", str(k),
                "--traced", "1" if traced else "0",
                "--pass-budget", str(args.seconds / MIN_PROCESSES),
                "--work-dir", str(tmp / f"p{k}"),
                "--report", str(report),
                "--spans-out", str(WORK / "spans" / f"{tag}-p{k}.jsonl"),
            ]
            spawned = time.perf_counter()
            budget = max(10.0, PROCESS_TIMEOUT_S - (spawned - t_run))
            # Its own session, so that a timeout also stops the pool
            # workers the process started.
            proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, text=True,
                                    start_new_session=True)
            try:
                _, stderr = proc.communicate(timeout=budget)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                crashed.append(f"process {k}: timed out after {budget:.0f} s")
                break
            if proc.returncode != 0 or not report.is_file():
                crashed.append(f"process {k}: exit {proc.returncode}: "
                               f"{stderr.strip()[-2000:]}")
                break
            doc = json.loads(report.read_text())
            doc["setup_s"] = doc["setup_end"] - doc["setup_excluded"] - spawned
            children.append(doc)
            measured = sum(p["wall"] for c in children for p in c["passes"])
            enough = len(children) >= MIN_PROCESSES and measured >= args.seconds
            if enough or time.perf_counter() - t_run > SPAWN_DEADLINE_S:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if crashed and not children:
        # Nothing ran at all (the program does not import, the references
        # do not load, ...): no result to report.
        print("\n".join(crashed), file=sys.stderr)
        return 1

    attempted = sum(c["attempted"] for c in children) + len(crashed)
    failed = sum(c["failed"] for c in children) + len(crashed)
    errors = crashed + [e for c in children for e in c["errors"]]
    plain = [c for c in children if not c["traced"]]
    traced = [c for c in children if c["traced"]]

    if args.trace:
        per_layer = {}
        for name in traced[0]["per_layer"] if traced else ():
            per_layer[name] = _median([c["per_layer"][name] for c in traced])
        t_wall = pass_time(traced, "pass")
        u_wall = pass_time(plain, "pass")
        per_layer["bench.trace_overhead_s"] = t_wall - u_wall
        per_layer["bench.trace_overhead"] = (t_wall - u_wall) / u_wall if u_wall else 0.0
        import layers
        metrics = {n: {"value": per_layer.get(n, 0.0), "unit": u}
                   for n, u in layers.PER_LAYER_UNITS.items()}
    else:
        values = {
            "setup_s": _median([c["setup_s"] * probe.REFERENCE_S / c["setup_kernel"]
                                for c in plain]),
            "wall_s": pass_time(plain, "pass"),
            "warm_wall_s": pass_time(plain, "warm") or pass_time(plain, "pass"),
            "peak_rss_mb": _median([max(c["rss_self_mb"], c["rss_workers_mb"])
                                    for c in plain]),
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END_UNITS.items()}
        unscaled = {
            "setup_s": _median([c["setup_s"] for c in plain]),
            "wall_s": pass_time(plain, "pass", scaled=False),
            "warm_wall_s": (pass_time(plain, "warm", scaled=False)
                            or pass_time(plain, "pass", scaled=False)),
        }

    error_rate = failed / attempted if attempted else 1.0
    kernels = [k for c in children for p in c["passes"] for k in p["kernels"].values()]
    doc = {
        "benchmark": "layerbench", "workload": args.workload, "scale": args.scale,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "host": fingerprint(args.seed), "references": refs.name,
        "attempted": attempted, "failed": failed, "error_rate": error_rate,
        "errors": errors, "metrics": metrics,
        "unscaled_seconds": None if args.trace else unscaled,
        "host_speed": probe.REFERENCE_S / _median(kernels) if kernels else None,
        "processes": [{k: v for k, v in c.items() if k != "per_layer"} for c in children],
        "run_s": time.perf_counter() - _T_START,
    }
    out = WORK / "results" / f"{tag}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1))

    host = doc["host"]
    print(f"host: nproc={host['nproc']} cpu={host['cpu_model']!r} "
          f"python={host['python']} numpy={host['numpy']} "
          f"git={host['git_revision']} seed={args.seed}")
    print(f"{args.workload} ({args.scale}): {len(children)} process(es), "
          f"{attempted} operation(s), {failed} failed, error_rate={error_rate:.4g}")
    for e in errors[:10]:
        print(f"  FAILED {e}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    print(f"result document: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def references_main(argv) -> int:
    p = argparse.ArgumentParser(prog="layerbench references",
                                description="Regenerate the stored reference results.")
    p.add_argument("--smoke", action="store_true", help="the reduced smoke scale")
    args = p.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import workloads as W
    scale = W.SMOKE if args.smoke else W.FULL
    refs = W.generate_references(scale)
    out = references_path(scale.name)
    out.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"{len(refs)} reference(s) written to {out}")
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="total pass time to measure (at least three processes run)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_const", const="smoke", dest="scale",
                   default="full", help="8 ranks, one app per workload")
    # Internal: one worker process of a run.
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--scale", default="full", help=argparse.SUPPRESS)
    p.add_argument("--index", type=int, default=0, help=argparse.SUPPRESS)
    p.add_argument("--traced", type=int, default=0, help=argparse.SUPPRESS)
    p.add_argument("--pass-budget", type=float, default=0.0, help=argparse.SUPPRESS)
    p.add_argument("--work-dir", help=argparse.SUPPRESS)
    p.add_argument("--report", help=argparse.SUPPRESS)
    p.add_argument("--spans-out", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "references":
        return references_main(argv[1:])
    args = parse_args(argv)
    return child_main(args) if args.child else run_main(args)


if __name__ == "__main__":
    sys.exit(main())
