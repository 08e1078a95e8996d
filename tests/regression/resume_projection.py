"""Resume-order projection between two commits (a report, not a test).

``test_event_order.py`` hashes every resume of its scenarios, so any
change that merges two heap entries of one process moves the hashes.
This script says whether such a merge only dropped resumes it may drop:
a resume that follows a wake (the process was parked on an event or a
wait list) and sleeps a fixed charge at once.  Folding that charge into
the wake (``yield (wait_list, d)``) removes the resume and must leave
every other resume where it was, in the same order.

    PYTHONPATH=src python tests/regression/resume_projection.py log OUT.json
    python tests/regression/resume_projection.py compare BASE.json HEAD.json

``log`` runs the scenarios of ``test_event_order.py`` against whichever
``repro`` is on the path and writes each one's resumes as ``[now, name,
woken_then_slept]``.  ``compare`` prints one Markdown row per scenario —
base resumes, head resumes, the number dropped, and whether the head's
log is the base's with only woken-then-slept resumes removed — and exits
1 if any scenario is not.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def _logged(sim, name, generator, log, wakes):
    """Delegate to ``generator``, logging ``[now, name, woken_then_slept]``
    at every resume; ``wakes`` are the classes a process parks on."""
    send, throw = generator.send, generator.throw
    resume, arg, parked = send, None, None
    while True:
        entry = [sim.now, name, False]
        log.append(entry)
        try:
            target = resume(arg)
        except StopIteration as stop:
            return stop.value
        entry[2] = isinstance(target, float) and isinstance(parked, wakes)
        parked = target
        try:
            resume, arg = send, (yield target)
        except BaseException as exc:  # interrupt / failed event: forward it
            resume, arg = throw, exc


def log_scenarios() -> dict[str, list]:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from test_event_order import SCENARIOS

    from repro.sim import Event, Simulator, WaitList

    real = Simulator.process
    logs: dict[str, list] = {}

    def process(self, generator, name=None):
        name = name or getattr(generator, "__name__", "process")
        return real(self, _logged(self, name, generator, log, (Event, WaitList)), name=name)

    Simulator.process = process
    try:
        for scenario, run in SCENARIOS.items():
            log = logs[scenario] = []
            run()
    finally:
        Simulator.process = real
    return logs


def dropped(base: list, head: list) -> int | None:
    """How many woken-then-slept resumes of ``base`` are missing from
    ``head``, if ``head`` is ``base`` without them; else None."""
    j = n = 0
    for now, name, woken_then_slept in base:
        if j < len(head) and head[j][0] == now and head[j][1] == name:
            j += 1
        elif woken_then_slept:
            n += 1
        else:
            return None
    return n if j == len(head) else None


def compare(base: dict, head: dict) -> bool:
    print("| scenario | base resumes | head resumes | dropped | projection equal |")
    print("|---|---:|---:|---:|---|")
    equal = 0
    for scenario in head:
        b, h = base.get(scenario), head[scenario]
        n = None if b is None else dropped(b, h)
        equal += n is not None
        print(f"| {scenario} | {'-' if b is None else len(b)} | {len(h)} | "
              f"{'-' if n is None else n} | {'yes' if n is not None else 'NO'} |")
    print(f"\nprojection equal on {equal}/{len(head)} scenarios")
    return equal == len(head)


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "log":
        Path(argv[1]).write_text(json.dumps(log_scenarios()))
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        base, head = (json.loads(Path(p).read_text()) for p in argv[1:])
        return 0 if compare(base, head) else 1
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
