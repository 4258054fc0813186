"""The overlap transformation against its own pinned output.

The transform layer indexes each original trace once (matching, stream
context, regions, buffer lifecycle, wait index) and shares that index
between the real and the ideal schedule; chunk geometry is memoized and
chunk times are one ``reduceat`` per message.  None of that may change
what the transformation writes.  This suite pins it:

* **Trace identity** — every application skeleton at 16 ranks, in all
  three variants, plus CG under the chunk-count, byte-granularity and
  per-mechanism ablation configurations, must produce the columnar
  content digest, the Table I replay ``result_digest`` and the
  :class:`TransformStats` counters stored in
  ``tests/data/transform_digests.json``.
* **Chunk-time reduction** (hypothesis) — ``_segment_reduce`` matches
  the per-chunk ``np.nanmax``/``np.nanmin`` loop it replaced, bit for
  bit, on all-NaN chunks, signed zeros and up to 256 chunks.

Regenerate the fixture (only when the transformation is *meant* to
change its output) with::

    PYTHONPATH=src python -m tests.test_transform_identity --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import get_app
from repro.audit.certify import result_digest
from repro.core.chunking import _segment_reduce
from repro.core.transform import OverlapConfig, overlap_transform
from repro.dimemas.machine import MachineConfig
from repro.dimemas.replay import simulate
from repro.trace.columnar import columnar_of

FIXTURE = Path(__file__).parent / "data" / "transform_digests.json"
APPS = ("sweep3d", "pop", "alya", "specfem3d", "bt", "cg")
NRANKS = 16
STAT_FIELDS = ("messages_transformed", "chunks_created", "sends_advanced",
               "waits_postponed")

#: case name -> (app, OverlapConfig or None for the original trace).
CASES: dict[str, tuple[str, OverlapConfig | None]] = {}
for _app in APPS:
    CASES[f"{_app}/original"] = (_app, None)
    CASES[f"{_app}/real"] = (_app, OverlapConfig(chunks=4, schedule="real"))
    CASES[f"{_app}/ideal"] = (_app, OverlapConfig(chunks=4, schedule="ideal"))
for _name, _cfg in {
    "chunks=1": OverlapConfig(chunks=1),
    "chunks=8": OverlapConfig(chunks=8),
    "chunks=8,ideal": OverlapConfig(chunks=8, schedule="ideal"),
    "chunk_bytes=4096": OverlapConfig(chunks=16, chunk_bytes=4096),
    "advance_sends=off": OverlapConfig(advance_sends=False),
    "postpone_receptions=off": OverlapConfig(postpone_receptions=False),
    "double_buffering=off": OverlapConfig(double_buffering=False),
    "double_buffering=off,ideal": OverlapConfig(double_buffering=False,
                                                schedule="ideal"),
}.items():
    CASES[f"cg/real/{_name}"] = ("cg", _cfg)


def compute_case(originals: dict, name: str) -> dict:
    """The pinned observables of one case."""
    app, cfg = CASES[name]
    if app not in originals:
        originals[app] = get_app(app).trace(nranks=NRANKS).trace
    trace = originals[app]
    out: dict = {}
    if cfg is not None:
        trace, stats = overlap_transform(trace, cfg)
        out.update({f: getattr(stats, f) for f in STAT_FIELDS})
    out["trace_digest"] = columnar_of(trace).digest
    out["result_digest"] = result_digest(
        simulate(trace, MachineConfig.paper_testbed(app)))
    return out


@pytest.fixture(scope="module")
def originals():
    return {}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(pinned):
    assert sorted(pinned) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_transform_output_identical(originals, pinned, name):
    assert compute_case(originals, name) == pinned[name]


# --------------------------------------------------------------------------- #
# Chunk-time reduction against the loop it replaced.
# --------------------------------------------------------------------------- #

def _segment_reduce_loop(values, bounds, how):
    """The per-chunk loop ``_segment_reduce`` replaced (test oracle)."""
    out = np.full(len(bounds) - 1, np.nan)
    for c in range(len(bounds) - 1):
        seg = values[bounds[c]:bounds[c + 1]]
        if seg.size and not np.all(np.isnan(seg)):
            out[c] = np.nanmax(seg) if how == "max" else np.nanmin(seg)
    return out


_element = st.one_of(
    st.just(np.nan), st.just(0.0), st.just(-0.0),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def _segments(draw):
    nchunks = draw(st.integers(1, 256))
    lengths = draw(st.lists(st.integers(1, 6), min_size=nchunks,
                            max_size=nchunks))
    bounds = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    all_nan = draw(st.sets(st.integers(0, nchunks - 1), max_size=nchunks))
    values = np.array(draw(st.lists(_element, min_size=int(bounds[-1]),
                                    max_size=int(bounds[-1]))))
    for c in all_nan:
        values[bounds[c]:bounds[c + 1]] = np.nan
    return values, bounds


@given(seg=_segments(), how=st.sampled_from(["max", "min"]))
@settings(max_examples=300, deadline=None)
def test_segment_reduce_matches_loop(seg, how):
    values, bounds = seg
    got = _segment_reduce(values, bounds, how)
    want = _segment_reduce_loop(values, bounds, how)
    assert got.tobytes() == want.tobytes()


def _write_fixture() -> None:
    originals: dict = {}
    data = {name: compute_case(originals, name) for name in CASES}
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_transform_identity --write")
    _write_fixture()
