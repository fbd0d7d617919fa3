"""Host-speed reference: times reported at a fixed nominal host speed.

The benchmark runs on shared cores whose speed for this program drifts by
+-25% in phases of tens of seconds; CPU time drifts with it (there is no
steal to subtract).  Raw wall times inherit that drift, so two sets of
runs of the same code disagree by more than any useful bound.  The
benchmark therefore runs a fixed reference :func:`kernel` every
:data:`INTERVAL_S` of wall time while it measures, cuts those runs out of
the program's time, and scales each stretch of the program's time by
``NOMINAL_S / (median kernel time around it)``.  A reported second is a
second on a host where the kernel takes :data:`NOMINAL_S`.

The kernel is a frozen miniature of the simulator's inner loop (a heap of
timestamped packet events, per-flow state updates, random reads across a
large object table, an appended log), because its slowdown under
contention must track the program's: a tight arithmetic loop slows about
twice as much as the program and over-corrects.  The kernel is benchmark
code, so a change to the program moves the program's time and not the
kernel's.  It leaves no garbage for the collector to scan later.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import signal
import statistics
import time
from typing import List, Tuple

#: kernel wall time on the nominal host (a typical shared 2-core cloud VM).
NOMINAL_S = 0.015
#: wall time between kernel samples.
INTERVAL_S = 0.1
#: samples this close to a stretch's ends also describe its speed.
MARGIN_S = 0.2


class _Flow:
    __slots__ = ("rate", "seq", "acked", "rtt")

    def __init__(self, rtt: float) -> None:
        self.rate = 1.0
        self.seq = 0
        self.acked = 0
        self.rtt = rtt


class _Packet:
    __slots__ = ("flow", "seq", "size", "sent")

    def __init__(self, flow: _Flow, seq: int, size: int, sent: float) -> None:
        self.flow = flow
        self.seq = seq
        self.size = size
        self.sent = sent


class _Cell:
    __slots__ = ("count", "value")

    def __init__(self, i: int) -> None:
        self.count = i
        self.value = float(i)


#: a table larger than the caches, read at scattered indices.
_TABLE = [_Cell(i) for i in range(200_000)]


def kernel(steps: int = 8000) -> float:
    """One reference sample's worth of simulator-like work."""
    enabled = gc.isenabled()
    gc.disable()  # its objects die with it; never collect the program's heap
    try:
        heap: list = []
        flows = [_Flow(0.08 + 0.0025 * i) for i in range(16)]
        log: List[float] = []
        table = _TABLE
        size = len(table)
        now = total = 0.0
        for i in range(steps):
            flow = flows[i & 15]
            now += 1e-4
            heapq.heappush(heap, (now + flow.rtt, i, _Packet(flow, flow.seq, 1000, now)))
            flow.seq += 1
            if len(heap) > 200:
                due, _, packet = heapq.heappop(heap)
                owner = packet.flow
                owner.acked += 1
                owner.rate = 0.9 * owner.rate + 0.1 * packet.size / (due - packet.sent + 1e-3)
            cell = table[(i * 7919 + 13) % size]
            cell.count += 1
            total += cell.value
            log.append(now)
        return total
    finally:
        if enabled:
            gc.enable()


class SpeedLog:
    """Reference-kernel samples over a run, and the scaling they imply.

    Between :meth:`start` and :meth:`stop` a SIGALRM interval timer runs
    the kernel every :data:`INTERVAL_S` of wall time, wherever the program
    is -- inside a long cell as much as between two short ones -- so the
    samples cover the run evenly.  A handler runs only between bytecodes
    of the main thread, and the kernel shares no state with the program.
    """

    def __init__(self) -> None:
        self.times: List[float] = []
        self.samples: List[float] = []
        #: (start, end) of every kernel run, in order.
        self.windows: List[Tuple[float, float]] = []
        self._previous = None

    def sample(self) -> None:
        started = time.perf_counter()
        kernel()
        ended = time.perf_counter()
        self.times.append((started + ended) / 2)
        self.samples.append(ended - started)
        self.windows.append((started, ended))

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S / median kernel time around ``[start, end]``."""
        lo = bisect.bisect_left(self.times, start - MARGIN_S)
        hi = bisect.bisect_right(self.times, end + MARGIN_S)
        near = self.samples[lo:hi]
        if not near:
            middle = (start + end) / 2
            nearest = min(range(len(self.times)), key=lambda i: abs(self.times[i] - middle))
            near = [self.samples[nearest]]
        return NOMINAL_S / statistics.median(near)

    def measure(self, start: float, end: float) -> Tuple[float, float]:
        """(program seconds, scaled seconds) of ``[start, end]``.

        Kernel runs inside the interval are cut out; each stretch between
        them is scaled by the samples around it.
        """
        raw = scaled = 0.0
        cursor = start
        index = bisect.bisect_left(self.windows, (start, start))
        while cursor < end:
            if index < len(self.windows) and self.windows[index][0] < end:
                run_start, run_end = self.windows[index]
                index += 1
            else:
                run_start = run_end = end
            if run_start > cursor:
                raw += run_start - cursor
                scaled += (run_start - cursor) * self.scale(cursor, run_start)
            cursor = max(cursor, run_end)
        return raw, scaled
