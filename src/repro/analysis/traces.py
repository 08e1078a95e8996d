"""Post-run analysis of traced jobs.

Run any job inside ``obs.observe(obs.Obs(trace=True))`` and feed
``job.tracer`` to the tools here (or stream a run to disk with
:class:`repro.obs.sinks.JsonlSink` and load it back with
:func:`load_jsonl` — the loaded tracer is analysed identically to an
in-memory one):

* :func:`message_stats` — size/latency distributions of everything that
  crossed the fabric (the raw material of the paper's Fig. 6 verticals);
* :func:`bandwidth_timeline` — achieved GB/s over time windows (how close
  a phase runs to its roofline, and when);
* :func:`rank_activity` — per-rank send/receive/sync counts and the
  communication skew across ranks;
* :func:`comm_matrix` — the rank-to-rank traffic matrix (spotting the
  hashtable's uniform spray vs the stencil's neighbor bands);
* :func:`ascii_timeline` — terminal rendering of a timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.sim.trace import Tracer
from repro.util.validation import check_count

__all__ = [
    "MessageStats",
    "message_stats",
    "bandwidth_timeline",
    "rank_activity",
    "comm_matrix",
    "ascii_timeline",
    "load_jsonl",
]


def load_jsonl(path: str | Path) -> Tracer:
    """Load a JSONL trace file (written by ``repro.obs.sinks.JsonlSink``)
    into a plain in-memory :class:`Tracer`.

    Every analysis function here consumes the result exactly as it would a
    live ``job.tracer``; blank lines are skipped.
    """
    from repro.obs.sinks import record_from_json

    tracer = Tracer()
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                tracer.sink.append(record_from_json(line))
    return tracer


@dataclass(frozen=True)
class MessageStats:
    """Distributional summary of the fabric traffic in one trace."""

    count: int
    total_bytes: float
    min_bytes: float
    mean_bytes: float
    p50_bytes: float
    max_bytes: float
    mean_wire_time: float  # seconds from injection start to arrival
    p95_wire_time: float

    def words_per_message(self, word: int = 8) -> float:
        return self.mean_bytes / word if self.count else float("nan")


def _transfers(tracer: Tracer) -> list:
    return tracer.filter(kind="net.transfer")


def message_stats(tracer: Tracer) -> MessageStats:
    """Summarise every fabric transfer recorded in the trace."""
    recs = _transfers(tracer)
    if not recs:
        raise ValueError("trace contains no fabric transfers")
    sizes = np.array([r.detail["nbytes"] for r in recs], dtype=float)
    wires = np.array(
        [r.detail["arrival"] - r.detail["start"] for r in recs], dtype=float
    )
    return MessageStats(
        count=len(recs),
        total_bytes=float(sizes.sum()),
        min_bytes=float(sizes.min()),
        mean_bytes=float(sizes.mean()),
        p50_bytes=float(np.percentile(sizes, 50)),
        max_bytes=float(sizes.max()),
        mean_wire_time=float(wires.mean()),
        p95_wire_time=float(np.percentile(wires, 95)),
    )


def bandwidth_timeline(
    tracer: Tracer, *, nbins: int = 20
) -> list[tuple[float, float]]:
    """Achieved fabric bandwidth per time window.

    Each transfer's bytes are attributed to the window containing its
    arrival.  Returns ``[(window_center_seconds, bytes_per_second), ...]``.
    """
    recs = _transfers(tracer)
    if not recs:
        raise ValueError("trace contains no fabric transfers")
    check_count("nbins", nbins)
    arrivals = np.array([r.detail["arrival"] for r in recs], dtype=float)
    sizes = np.array([r.detail["nbytes"] for r in recs], dtype=float)
    t_end = float(arrivals.max())
    if t_end <= 0:
        return [(0.0, 0.0)]
    edges = np.linspace(0.0, t_end, nbins + 1)
    width = edges[1] - edges[0]
    sums, _ = np.histogram(arrivals, bins=edges, weights=sizes)
    centers = (edges[:-1] + edges[1:]) / 2
    return [(float(c), float(s / width)) for c, s in zip(centers, sums)]


def rank_activity(tracer: Tracer) -> dict[int, dict[str, int]]:
    """Per-rank counts of sends, puts, arrivals and atomics.

    Communication skew — some ranks carrying most of the traffic — shows up
    directly; the SpTRSV diagonal owners vs pure update ranks is a classic
    example.
    """
    out: dict[int, dict[str, int]] = {}
    for rec in tracer:
        if rec.rank < 0:
            continue
        bucket = out.setdefault(
            rec.rank, {"send": 0, "put": 0, "put_signal": 0, "arrive": 0, "cas": 0}
        )
        if rec.kind in bucket:
            bucket[rec.kind] += 1
    return out


def comm_matrix(tracer: Tracer, nranks: int) -> np.ndarray:
    """Bytes moved rank-to-rank, from the send/put/put_signal records.

    ``matrix[src, dst]`` sums payload bytes.  Fabric-level records carry
    endpoint names rather than ranks, so this uses the runtime-level
    events, which know both parties.
    """
    check_count("nranks", nranks)
    m = np.zeros((nranks, nranks))
    for rec in tracer:
        if rec.kind == "send":
            m[rec.rank, rec.detail["dst"]] += rec.detail["nbytes"]
        elif rec.kind in ("put", "put_signal"):
            m[rec.rank, rec.detail["target"]] += rec.detail["nbytes"]
    return m


def ascii_timeline(
    timeline: list[tuple[float, float]], *, width: int = 60, label: str = "GB/s"
) -> str:
    """Render a bandwidth timeline as a horizontal bar chart."""
    if not timeline:
        raise ValueError("empty timeline")
    peak = max(v for _, v in timeline) or 1.0
    lines = [f"achieved {label} over time (peak {peak / 1e9:.2f} GB/s):"]
    for t, v in timeline:
        bar = "#" * int(round(v / peak * width))
        lines.append(f"  {t * 1e6:9.2f} us |{bar:<{width}}| {v / 1e9:7.2f}")
    return "\n".join(lines)
