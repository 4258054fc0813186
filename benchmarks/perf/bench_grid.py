"""Grid dispatch benchmark: serial cold vs parallel cold vs warm.

The historical failure mode this benchmark guards is the *parallel
cold path*: an early engine re-traced and re-transformed the
application per grid point in every worker, so ``jobs=4`` on a cold
cache ran ~6x slower than plain serial replay.  Workers now take whole
``(experiment, variant)`` batches and trace, transform and replay each
variant once, so parallel cold must be *at most comparable* to serial
cold, and parallel warm must be a pure cache read.

Four measurements, written to ``BENCH_grid.json``:

* **serial cold** — ``jobs=1``, fresh cache: the reference path, same
  cache configuration as the parallel runs so only ``jobs`` differs;
* **parallel cold** — ``jobs=N``, fresh cache: trace, transform and
  replay in the pool, persist everything;
* **parallel warm** — same cache, second run: spec->digest index plus
  duration sidecars, no tracing and no simulation;
* **dispatch overhead** — how many worker batches the cold run sent.

Every run must produce bitwise-identical duration lists
(``durations_identical``) — the engine and codec change wall-clock
only, never results.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_grid.py \
        [--nranks 16] [--jobs 4] [--apps cg] [--repeats 3] [-o out.json]

Each timing is the best (minimum) over ``--repeats`` full passes —
wall-clock noise only ever adds time, so the minimum is the cleanest
estimate of the true cost on a shared machine.  Duration identity is
checked across *every* run of every pass.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))
from bench_history import append_history

from repro import __version__
from repro.experiments.parallel import ExperimentEngine, expand_grid
from repro.obs import get_registry

#: Bandwidth ladder swept per (app, variant) — mirrors bench_replay.
GRID_BANDWIDTHS = (None, 31.25, 62.5, 125.0, 250.0, 500.0)

#: Engine dispatch counters reported as overhead evidence.
DISPATCH_COUNTERS = ("engine.dispatch.batches",)


def run_grid(
    apps: list[str],
    nranks: int,
    jobs: int,
    cache_dir: str | None,
) -> tuple[list[float], float]:
    """One sweep over the grid; returns (durations, wall_seconds)."""
    points = expand_grid(
        apps, variants=("original", "real", "ideal"),
        bandwidths=GRID_BANDWIDTHS, nranks=nranks,
    )
    t0 = time.perf_counter()
    with ExperimentEngine(jobs=jobs, cache_dir=cache_dir) as engine:
        durations = engine.durations(points)
    return durations, time.perf_counter() - t0


def dispatch_overhead(before: dict, after: dict) -> dict:
    """Delta of the engine.dispatch.* counters across one run."""
    return {
        name.rsplit(".", 1)[1]:
            after["counters"].get(name, 0) - before["counters"].get(name, 0)
        for name in DISPATCH_COUNTERS
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nranks", type=int, default=16)
    ap.add_argument("-j", "--jobs", type=int, default=4)
    ap.add_argument("--apps", default="cg",
                    help="comma-separated pool subset")
    ap.add_argument("--repeats", type=int, default=3,
                    help="full passes; every timing reports the best "
                         "(min) to suppress machine noise")
    ap.add_argument("-o", "--output",
                    default=str(Path(__file__).parent / "BENCH_grid.json"))
    args = ap.parse_args(argv)
    apps = args.apps.split(",")
    reg = get_registry()

    identical = True
    serial_durations = None
    t_serial = t_cold = t_warm = math.inf
    overhead = None
    for rep in range(max(1, args.repeats)):
        print(f"pass {rep + 1}/{args.repeats}", flush=True)
        print("  grid, serial cold (jobs=1, fresh cache) ...", flush=True)
        with tempfile.TemporaryDirectory() as cache_dir:
            ds, ts = run_grid(apps, args.nranks, jobs=1,
                              cache_dir=cache_dir)
        print(f"    {ts:.2f} s")

        with tempfile.TemporaryDirectory() as cache_dir:
            print(f"  grid, parallel cold cache (jobs={args.jobs}) ...",
                  flush=True)
            snap_before = reg.snapshot()
            dc, tc = run_grid(apps, args.nranks, jobs=args.jobs,
                              cache_dir=cache_dir)
            oh = dispatch_overhead(snap_before, reg.snapshot())
            print(f"    {tc:.2f} s ({oh['batches']} batches)")

            print(f"  grid, parallel warm cache (jobs={args.jobs}) ...",
                  flush=True)
            dw, tw = run_grid(apps, args.nranks, jobs=args.jobs,
                              cache_dir=cache_dir)
            print(f"    {tw:.2f} s")

        if serial_durations is None:
            serial_durations = ds
        identical = identical and (serial_durations == ds == dc == dw)
        t_serial = min(t_serial, ts)
        if tc < t_cold:
            t_cold, overhead = tc, oh
        t_warm = min(t_warm, tw)
    cold_ratio = t_cold / t_serial
    speedup_warm = t_serial / t_warm
    print(f"durations identical across runs: {identical}")
    print(f"parallel cold / serial cold: {cold_ratio:.2f}x")
    print(f"speedup (serial cold -> jobs={args.jobs} warm): "
          f"{speedup_warm:.1f}x")

    doc = {
        "version": __version__,
        "python": platform.python_version(),
        "nranks": args.nranks,
        "jobs": args.jobs,
        "apps": apps,
        "repeats": max(1, args.repeats),
        "grid_points": len(serial_durations),
        "serial_cold_seconds": t_serial,
        "parallel_cold_seconds": t_cold,
        "parallel_warm_seconds": t_warm,
        "parallel_cold_over_serial_cold": cold_ratio,
        "speedup_parallel_warm": speedup_warm,
        "durations_identical": identical,
        "dispatch_overhead": overhead,
    }
    Path(args.output).write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.output}")
    hist = append_history(doc, bench="grid")
    print(f"appended history -> {hist}")

    if not identical:
        print("ERROR: parallel/warm runs diverged from the serial path",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
