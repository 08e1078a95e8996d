"""Ambient pass pipeline and report collection.

Two :class:`repro.scope.Scope` declarations.  The pipeline scope is
consulted by :func:`repro.ir.lower.run_program` at the moment a program
is lowered; its default is the empty pipeline — all passes off — so every
existing entry point stays byte-identical to the pre-IR runners unless a
caller opts in (``Session(passes=...)``, the ``repro ir explain`` CLI, or
an explicit ``ir.passes(...)`` block).  It is *carried*: the pipeline
changes simulated results, so sweep workers re-enter it and cache keys
name it.

:func:`collect` installs a report collector so callers can retrieve the
:class:`repro.ir.explain.IRReport` of every program lowered inside the
block — the CLI's ``repro ir explain <exp>`` is just an experiment run
inside ``passes(...)`` + ``collect()``.  Collectors are per process:
programs lowered in sweep workers are not reported back.
"""

from __future__ import annotations

from contextlib import AbstractContextManager

from repro.ir.pipeline import PassPipeline, build_pipeline
from repro.scope import Scope

__all__ = ["passes", "current_pipeline", "collect", "record_report"]

_PIPELINE = Scope("repro.ir.passes", PassPipeline(), carried=True)
_REPORTS = Scope("repro.ir.collect")


def current_pipeline() -> PassPipeline:
    """The innermost active pipeline (empty pipeline when no scope)."""
    return _PIPELINE.current()


def passes(pipeline=True) -> AbstractContextManager[PassPipeline]:
    """Install a pass pipeline for the duration of the block.

    ``pipeline`` may be a :class:`repro.ir.pipeline.PassPipeline`, ``True``
    (the default pipeline: coalesce, overlap, sync-elide), ``False`` /
    ``None`` (explicitly all-off), or a collection of built-in pass names
    (a set: order and repeats do not matter) — see
    :func:`repro.ir.pipeline.build_pipeline`.
    """
    return _PIPELINE.push(build_pipeline(pipeline))


def collect() -> AbstractContextManager[list]:
    """Collect the IRReport of every program lowered inside the block."""
    return _REPORTS.push([])


def record_report(report) -> None:
    """Hand a freshly built report to every active collector."""
    for sink in _REPORTS.active():
        sink.append(report)
