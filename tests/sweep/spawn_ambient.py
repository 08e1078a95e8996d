"""Ambient state must survive a process pool and a warm cache.

Run as a script (tier-1 runs it in a subprocess, CI's replay-parity job
runs it cold and then warm against one cache directory)::

    python tests/sweep/spawn_ambient.py [--faults] [--cache-dir DIR]

Under the ``spawn`` start method a worker inherits nothing, so rows match
the serial run only if the carried scopes were shipped with the work.
"""

from __future__ import annotations

import argparse
import multiprocessing


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--faults", action="store_true")
    parser.add_argument("--cache-dir", default=None)
    args = parser.parse_args()
    multiprocessing.set_start_method("spawn")

    import repro
    from repro.faults import FaultPlan

    if args.faults:
        name, kwargs = "fig03", {"machines": ("perlmutter-cpu",), "iters": 1}
        state = {"faults": FaultPlan.uniform(loss=0.05, seed=1)}
    else:
        name, kwargs, state = "fig05", {}, {"passes": True}

    def rows(**session):
        with repro.Session(**session):
            return repro.run_experiment(name, **kwargs).rows

    plain, serial = rows(), rows(**state)
    pooled = rows(**state, jobs=2, cache=args.cache_dir)
    assert pooled == serial, "pool/cache rows differ from the serial uncached run"
    assert pooled != plain, "ambient state was dropped on the way to the rows"
    print(f"ok {name}: {len(pooled)} rows under {sorted(state)} match serial")


if __name__ == "__main__":
    main()
