"""Reference clock: host seconds scaled to a host of fixed speed.

The sandbox this benchmark runs on is a small VM on a shared host.  Its
speed drifts by 20-60% over anything from 100 ms to minutes, CPU time
inflates with wall time, and no statistic of raw wall-clock (median, minimum,
low quantile, over 10 s or over 60 s) repeats to better than 15-30% from one
run to the next.  What does repeat is the *ratio* between the workload and a
fixed piece of similar work done at the same moment.

``RefClock`` therefore interrupts the timed region every ``INTERVAL_S`` of
work (``SIGALRM`` from a one-shot ``ITIMER_REAL``, re-armed by the handler)
and runs a fixed calibration kernel, timing it.  The kernel is a miniature
of what the simulator does — method calls on small objects, float compares
and adds, a tuple heap — because a kernel of that character slows down with
the workloads (a cache-resident integer loop under-tracks them, a
pointer-chasing one does not track them at all).  Each stretch of work
between two calibrations is then divided by the local slowdown: the mean
cost of the calibrations within about 0.2 s of it, over ``REFERENCE_S``.
The result is the time the work would have taken on a host where the
calibration always takes ``REFERENCE_S``, which is this sandbox at its
quietest.  Calibration time itself is excluded.

The kernel lives here, in the benchmark, so no change to the program can
move it.  It works on any opaque body (nothing has to be sliced), costs
about 15% more wall-clock, and is never active during the traced rep.
"""

from __future__ import annotations

import bisect
import heapq
import signal
import time

# Work between the end of one calibration and the start of the next.
INTERVAL_S = 0.005
# One calibration on the sizing sandbox (2 x Xeon 2.1 GHz, Python 3.11) at its
# quietest: the minimum over ~50 000 calibrations.  A constant: it only fixes
# the unit, every ratio between two commits is independent of it.
REFERENCE_S = 0.00074
_CALIBRATION_STEPS = 1500
# Calibrations on either side over which the local slowdown is averaged
# (about +-0.2 s): wide enough to weigh stolen time slices, narrow enough to
# follow the drift.  Tuned offline on recorded runs of six workloads.
_WINDOW = 32


class _Port:
    """The calibration kernel's stand-in for a link port."""

    __slots__ = ("free", "latency", "busy")

    def __init__(self):
        self.free = 0.0
        self.latency = 1e-6
        self.busy = 0.0

    def reserve(self, t: float, duration: float) -> float:
        start = t if t > self.free else self.free
        self.free = start + duration
        self.busy += duration
        return start + duration + self.latency


class RefClock:
    """Context manager; while active, calibrations interleave with the work."""

    def __init__(self):
        # perf_counter at the start and end of each calibration.
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._cpu: list[float] = []  # CPU seconds of each calibration
        self._ports = [_Port() for _ in range(64)]
        self._heap = [(1e-9 * i, -i) for i in range(64)]  # a valid heap: sorted
        self._previous_handler = None
        self._active = False

    def _calibrate(self) -> None:
        # One push and one pop per step: the heap keeps its size, so the
        # kernel leaves no garbage behind for the workload's collector.
        ports, heap, push, pop = self._ports, self._heap, heapq.heappush, heapq.heappop
        t = heap[0][0]
        for i in range(_CALIBRATION_STEPS):
            push(heap, (ports[i & 63].reserve(t, 1e-7 * (i & 7)), i))
            t, _ = pop(heap)

    def sample(self) -> None:
        cpu0, t0 = time.process_time(), time.perf_counter()
        self._calibrate()
        t1, cpu1 = time.perf_counter(), time.process_time()
        self.starts.append(t0)
        self.ends.append(t1)
        self._cpu.append(cpu1 - cpu0)

    def _on_alarm(self, signum, frame) -> None:
        self.sample()
        # An alarm raised just before __exit__ disarms the timer is handled
        # just after: re-arming then would fire into the restored (default,
        # fatal) handler.
        if self._active:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __enter__(self) -> "RefClock":
        self.sample()  # so that every interval has a nearest calibration
        self._active = True
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def split(self, begin: float, end: float) -> tuple[float, float, float]:
        """For the ``perf_counter`` interval ``[begin, end]`` of the main
        program: the reference seconds and the raw seconds of the work in it,
        both without the calibrations that interrupted it, and the CPU
        seconds those calibrations took (to subtract from ``process_time``)."""
        starts, ends = self.starts, self.ends
        lo = bisect.bisect_left(starts, begin)
        hi = bisect.bisect_right(starts, end)  # calibrations lo .. hi-1 lie inside
        if lo == hi:  # none inside: scale by the ones around
            near = min(max(lo - 1, 0), len(starts) - 1)
            raw = end - begin
            return raw * REFERENCE_S / self._local_cost(near, near + 1)[0], raw, 0.0
        cost = self._local_cost(lo, hi)
        raw = starts[lo] - begin
        ref = raw / cost[0]
        for k in range(hi - lo - 1):
            stretch = starts[lo + k + 1] - ends[lo + k]
            raw += stretch
            ref += stretch / (0.5 * (cost[k] + cost[k + 1]))
        tail = end - ends[hi - 1]
        raw += tail
        ref += tail / cost[-1]
        return ref * REFERENCE_S, raw, sum(self._cpu[lo:hi])

    def _local_cost(self, lo: int, hi: int) -> list[float]:
        """Arithmetic mean cost of the calibrations within ``_WINDOW`` of each
        of the calibrations ``lo .. hi-1``.  The mean, not the median: when the
        host steals whole time slices a stretch of work always spans the same
        5 ms of wall-clock, so the theft is visible only as rare, very long
        calibrations, and only their mean gives it its weight."""
        n = len(self.starts)
        total = [0.0]
        for i in range(max(lo - _WINDOW, 0), min(hi + _WINDOW, n)):
            total.append(total[-1] + self.ends[i] - self.starts[i])
        base = max(lo - _WINDOW, 0)
        out = []
        for i in range(lo, hi):
            a, b = max(i - _WINDOW, 0) - base, min(i + _WINDOW + 1, n) - base
            out.append((total[b] - total[a]) / (b - a))
        return out
