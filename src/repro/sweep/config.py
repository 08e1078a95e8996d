"""Ambient execution configuration for sweeps.

Experiment runners keep their zero-argument signatures (``run_fig03()``),
so parallelism and caching cannot be threaded through them; instead the
CLI (or a test) installs an :class:`ExecutionConfig` ambiently::

    from repro.sweep import ResultCache, execution

    with execution(jobs=4, cache=ResultCache(".repro-cache")):
        report = run_fig03()          # 4-way parallel, cached

Outside any ``execution()`` block the default is serial and uncached —
the zero-surprise library path (``pytest`` in a clean checkout touches no
cache directory and spawns no workers).

The config owns the process pool so consecutive sweeps in one block
(``repro run all --jobs N``) share workers instead of paying pool
start-up per experiment.  The config is a :class:`repro.scope.Scope`;
workers start from :func:`repro.scope.reset` — no forked-in ``Obs`` session
(tracer sinks must not be double-driven), no forked-in config holding the
parent's pool — and get the *carried* scopes with each submission
(``docs/SWEEPS.md``, "What crosses the process boundary").
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing, contextmanager
from dataclasses import dataclass, field

from repro import scope
from repro.sweep.cache import ResultCache
from repro.util.validation import check_count

__all__ = ["ExecutionConfig", "current_execution", "execution"]


@dataclass
class ExecutionConfig:
    """How sweeps execute: worker count, result cache, progress output."""

    jobs: int = 1
    cache: ResultCache | None = None
    progress: Callable[[str], None] | None = None
    _pool: ProcessPoolExecutor | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        check_count("jobs", self.jobs)

    def pool(self) -> ProcessPoolExecutor:
        """The shared process pool (created lazily on first parallel sweep)."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=scope.reset
            )
        return self._pool

    def reset_pool(self, *, wait: bool = False) -> None:
        """Discard the pool (broken or not); ``pool()`` recreates it.

        The executor calls this after a :class:`BrokenProcessPool`, so
        the next sweep in the same ``execution()`` block gets live workers.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=not wait)
            self._pool = None

    def close(self) -> None:
        self.reset_pool(wait=True)


_EXECUTION = scope.Scope("repro.sweep.execution", ExecutionConfig())


def current_execution() -> ExecutionConfig:
    """The innermost active config (serial/uncached default otherwise)."""
    return _EXECUTION.current()


@contextmanager
def execution(
    jobs: int = 1,
    cache: ResultCache | None = None,
    progress: Callable[[str], None] | None = None,
) -> Iterator[ExecutionConfig]:
    """Install an execution config for the duration of the block.

    The config's process pool (if any) is shut down on exit.
    """
    with _EXECUTION.push(ExecutionConfig(jobs, cache, progress)) as cfg, closing(cfg):
        yield cfg
