"""The one ambient-scope mechanism.

Runners keep zero-argument signatures, so what a run happens under (obs
session, fault plan, pass pipeline, bulk-engine switch, report collectors,
sweep execution config) is installed ambiently.  Each is one :class:`Scope`,
declared by its owning module and named after the public context manager
that pushes it (``"repro.faults.inject"``).  A scope whose value determines
a simulated result is declared ``carried=True``: :mod:`repro.sweep` folds
:func:`carried` into its cache keys and ships it to its workers.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager

__all__ = ["Scope", "ambient", "carried", "entered", "reset"]

_SCOPES: dict[str, "Scope"] = {}


class Scope:
    """An innermost-wins stack of ambient values over a default."""

    def __init__(self, name: str, default=None, *, carried: bool = False):
        self.name, self.default, self.carried = name, default, carried
        self._values: list = []
        _SCOPES[name] = self

    def current(self):
        """The innermost pushed value, or the default."""
        return self._values[-1] if self._values else self.default

    def active(self) -> tuple:
        """Every pushed value, outer -> inner."""
        return tuple(self._values)

    @contextmanager
    def push(self, value):
        """Make ``value`` current for the block; yields it."""
        self._values.append(value)
        try:
            yield value
        finally:
            self._values.pop()


def ambient() -> dict:
    """``{scope name: current value}`` of every declared scope."""
    return {name: s.current() for name, s in _SCOPES.items()}


def carried() -> dict:
    """:func:`ambient`, kept to the carried scopes that left their default."""
    moved = (s for s in _SCOPES.values() if s.carried and s.current() != s.default)
    return {s.name: s.current() for s in moved}


@contextmanager
def entered(values: dict):
    """Re-enter :func:`carried` values shipped from another process."""
    with ExitStack() as stack:
        for name, value in values.items():
            stack.enter_context(_SCOPES[name].push(value))
        yield


def reset() -> None:
    """Drop every pushed value of every scope (a worker starts clean)."""
    for s in _SCOPES.values():
        s._values.clear()
