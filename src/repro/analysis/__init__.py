"""Post-run analysis: trace statistics, timelines, DAG critical paths."""

from repro.analysis.critical_path import (
    DagProfile,
    analyze_dag,
    latency_lower_bound,
)
from repro.analysis.traces import (
    MessageStats,
    ascii_timeline,
    bandwidth_timeline,
    comm_matrix,
    load_jsonl,
    message_stats,
    rank_activity,
)

__all__ = [
    "DagProfile",
    "analyze_dag",
    "latency_lower_bound",
    "MessageStats",
    "ascii_timeline",
    "bandwidth_timeline",
    "comm_matrix",
    "load_jsonl",
    "message_stats",
    "rank_activity",
]
