"""Content-addressed on-disk result cache for sweep points.

A point's cache key is the sha256 of everything that determines its
result:

* the repro package version;
* the sweep name and :attr:`~repro.sweep.spec.SweepSpec.version`;
* the runner's module-qualified name;
* the canonical JSON of the point parameters;
* when the point's ``machine`` parameter is a registry name, that
  machine model's LogGP/topology fingerprint
  (:func:`repro.machines.registry.machine_fingerprint`) — so
  recalibrating a machine invalidates exactly its points;
* every *carried* ambient scope that left its default
  (:func:`repro.scope.carried`: fault plan, pass pipeline, bulk switch),
  as its ``fingerprint()`` or, for a JSON scalar, itself.  Nothing ambient:
  no entry, and the key older versions wrote.  Every carried value has a
  canonical fingerprint (a pass pipeline is a set of built-in names), so
  every point has a key.

Entries are one JSON file each under ``<root>/<key[:2]>/<key>.json``
(git-friendly two-level fan-out).  Reads tolerate corrupt or truncated
files by treating them as misses; writes are atomic (tmp + rename) so a
killed parallel run never leaves a half-written entry behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from contextlib import suppress
from pathlib import Path
from typing import Any

from repro import scope
from repro._version import __version__
from repro.machines.registry import machine_fingerprint
from repro.sweep.spec import SweepPoint, SweepSpec, canonical_json

__all__ = ["ResultCache", "DEFAULT_CACHE_DIR"]

# Repo-local by convention (gitignored); the CLI resolves it against cwd.
DEFAULT_CACHE_DIR = ".repro-cache"


class ResultCache:
    """Content-addressed store of point results (see module docstring)."""

    def __init__(self, root: str | os.PathLike = DEFAULT_CACHE_DIR):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.write_errors = 0
        self._warned_write = False

    def key_for(self, spec: SweepSpec, point: SweepPoint) -> str:
        """The point's key under the current ambient state."""
        params = point.params_dict
        machine = params.get("machine")
        payload = {
            "repro": __version__,
            "sweep": spec.name,
            "sweep_version": spec.version,
            "runner": point.runner_id,
            "params": params,
            "machines": (
                {machine: machine_fingerprint(machine)}
                if isinstance(machine, str) else {}
            ),
        }
        ambient = {
            name: value.fingerprint() if hasattr(value, "fingerprint") else value
            for name, value in scope.carried().items()
        }
        if ambient:
            payload["ambient"] = ambient
        return hashlib.sha256(canonical_json(payload).encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict[str, Any] | None:
        """The cached value for ``key``, or None (counts a hit/miss)."""
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as f:
                value = json.load(f)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if not isinstance(value, dict):
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, key: str, value: dict[str, Any]) -> None:
        """Atomically store ``value`` (must be JSON-serialisable).

        Storage failures (read-only cache dir, full disk, ...) never
        abort the sweep: the error is counted, surfaced once as a
        ``RuntimeWarning`` (plus a ``sweep.cache.write_errors`` counter
        on any ambient obs session), and execution continues uncached.
        Serialisation bugs (``TypeError``) still raise — they are caller
        errors, not environment faults.
        """
        text = json.dumps(value, default=float)
        path = self._path(key)
        tmp = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                f.write(text)
            os.replace(tmp, path)
        except BaseException as exc:
            if tmp is not None:
                with suppress(OSError):
                    os.unlink(tmp)
            if not isinstance(exc, OSError):
                raise
            self._note_write_error(exc)

    def _note_write_error(self, exc: OSError) -> None:
        self.write_errors += 1
        from repro import obs

        session = obs.current()
        if session is not None:
            session.metrics.counter("sweep.cache.write_errors").inc()
        if not self._warned_write:
            self._warned_write = True
            warnings.warn(
                f"result cache write to {self.root} failed ({exc}); "
                "continuing uncached",
                RuntimeWarning,
                stacklevel=3,
            )

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "write_errors": self.write_errors,
        }
