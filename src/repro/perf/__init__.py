"""repro.perf — the vectorized bulk-transfer engine.

Evaluates homogeneous message batches (flood rounds, hashtable epochs,
CAS streams) in one pass instead of per-message event dispatch, while
staying byte-identical to the scalar path.  See :mod:`repro.perf.engine`
for the exactness argument and :mod:`repro.perf.config` for the on/off
switch.

Public surface::

    perf.enabled()            # is the engine globally on?
    perf.vectorized(False)    # context manager: force off (or on)
    perf.bulk_enabled(job)    # may batches on this job take the bulk path?
    perf.bulk_verdict(job)    # the same, counted once per batch under obs
"""

from repro.perf.config import bulk_enabled, bulk_verdict, enabled, vectorized

__all__ = ["enabled", "vectorized", "bulk_enabled", "bulk_verdict"]
