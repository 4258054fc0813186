"""Rolling benchmark history: append BENCH_*.json runs to HISTORY.jsonl.

Each benchmark script writes its latest results to a ``BENCH_*.json``
snapshot that is committed and overwritten in place — good for "what
is the current number", useless for "when did this regress".  This
module keeps the longitudinal record: :func:`append_history` stamps a
benchmark document with the git revision and a UTC timestamp and
appends it as one line to ``benchmarks/perf/HISTORY.jsonl``, together
with a fingerprint of the host it ran on (:func:`host_fingerprint`:
CPU count and model, Python and numpy versions) — timings from two
different hosts are not comparable.

Used two ways::

    # from a bench script (they call this automatically):
    from bench_history import append_history
    append_history(doc, bench="replay")

    # standalone, to log an existing snapshot (``--note`` tags the
    # line, e.g. which tree a before/after pair measured):
    python tools/bench_history.py [--note TEXT] benchmarks/perf/BENCH_replay.json

Lines are self-contained JSON objects, so the history is greppable and
trivially loadable::

    import json, pathlib
    runs = [json.loads(ln) for ln in
            pathlib.Path("benchmarks/perf/HISTORY.jsonl").read_text().splitlines()]
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

__all__ = ["append_history", "git_sha", "host_fingerprint"]

#: Default history file, next to the BENCH_*.json snapshots.
HISTORY_PATH = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "perf"
    / "HISTORY.jsonl"
)


def git_sha(cwd: str | Path | None = None) -> str:
    """The current git revision, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd else None,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model() -> str:
    """The CPU model name (Linux ``/proc/cpuinfo``), else a best guess."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def host_fingerprint() -> dict:
    """What a timing depends on besides the code: CPUs and runtimes."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def append_history(
    doc: dict,
    bench: str,
    history_path: str | Path | None = None,
    note: str | None = None,
) -> Path:
    """Append one benchmark run to the history file; returns its path.

    ``doc`` is the full ``BENCH_*.json`` document; ``bench`` names the
    benchmark (``"replay"``, ``"grid"``, ...).  The line wraps the doc
    with provenance — git sha, UTC timestamp and the host fingerprint —
    so regressions can be bisected without relying on file mtimes, and
    only same-host lines are compared.  ``note`` is stored verbatim.
    """
    path = Path(history_path) if history_path is not None else HISTORY_PATH
    path.parent.mkdir(parents=True, exist_ok=True)
    line = {
        "bench": bench,
        "git_sha": git_sha(path.parent),
        "timestamp": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "host": host_fingerprint(),
        "results": doc,
    }
    if note is not None:
        line["note"] = note
    with path.open("a") as fh:
        fh.write(json.dumps(line, sort_keys=True) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    if not args or args[0] in ("-h", "--help"):
        print(__doc__, file=sys.stderr)
        return 0 if args else 2
    note = None
    if args[0] == "--note":
        if len(args) < 3:
            print(__doc__, file=sys.stderr)
            return 2
        note, args = args[1], args[2:]
    for snapshot in args:
        p = Path(snapshot)
        doc = json.loads(p.read_text())
        # BENCH_replay.json -> "replay"
        name = p.stem.replace("BENCH_", "").lower() or p.stem
        out = append_history(doc, bench=name, note=note)
        print(f"appended {p.name} ({name}) -> {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
