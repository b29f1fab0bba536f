"""Host-speed probe: a fixed memory-bound loop timed next to every point.

The shared 2-vCPU host this benchmark was tuned on changes speed by up to
2x within tens of seconds, with its neighbours' load, and the simulator's
CPU time moves with it.  Over the minutes that ten runs take, that drift
swamps any estimator of raw host time: raw `wall_s` spread (interquartile
range / median over runs) from 0.03 in a calm hour to 0.3 in a noisy one.

The probe times a loop of 16,384 reads, one from each of 16,384 cache
lines of an 8 MiB table, in a fixed random order.  Like the simulator's
heap, the table is larger than the core's own cache, so both are read
from the cache and memory the host's tenants share, and the probe's time
rises and falls with the simulator's.  The probe runs just before and
just after every point, and every TICK_S seconds during it, from a timer
signal; the time spent in those ticks is taken out of the point's time.
Each point's time is divided by the mean of its probe times.  A
pure-Python loop that stays in the core's cache, or one probe median per
run instead of per point, tracked the drift worse.

A time is *normalised* to the probe's reference time: ``raw * REFERENCE_S
/ probe``.  It reads as seconds on a host where the probe takes
REFERENCE_S.  A change to the program moves it as it moves raw time: the
probe runs none of the program's code.
"""

from __future__ import annotations

import array
import contextlib
import gc
import random
import signal
import time
from dataclasses import dataclass, field
from typing import Iterator, List

#: Items (int64) in the table the probe reads from: 8 MiB.
TABLE_ITEMS = 1 << 20
#: Items per 64-byte cache line.
LINE_ITEMS = 8
#: Reads per probe: one eighth of the table's lines.
READS = TABLE_ITEMS // LINE_ITEMS // 8
#: Probe time the normalised times are expressed at: a round figure within
#: the probe's run medians on the 2-vCPU host the benchmark was tuned on
#: (2.3-3.6 ms, calm to busy hours).
REFERENCE_S = 0.003
#: Seconds between probes while a point runs.
TICK_S = 0.2


@dataclass
class Ticks:
    """Probes taken while a point ran, and the time they took."""

    probe_s: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0


class HostSpeedProbe:
    """Times a fixed loop of random table reads; see the module docstring."""

    def __init__(self) -> None:
        lines = list(range(0, TABLE_ITEMS, LINE_ITEMS))
        random.Random(0).shuffle(lines)
        self.table = array.array("q", range(TABLE_ITEMS))
        #: The table's lines in a fixed random order.  Each probe reads the
        #: next READS of them, so no probe reads a line the probe just
        #: before it left in the core's own cache: a probe right after
        #: another one is not faster than a probe right after a point.
        self.indices = array.array("l", lines)
        self._next = 0

    @property
    def nbytes(self) -> int:
        """Bytes the probe keeps resident for the whole run."""
        return (self.table.itemsize * len(self.table)
                + self.indices.itemsize * len(self.indices))

    def measure(self) -> float:
        """Seconds the loop takes now, with the garbage collector held off."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            indices = self.indices[self._next:self._next + READS]
            self._next = (self._next + READS) % len(self.indices)
            table, total = self.table, 0
            start = time.perf_counter()
            for index in indices:
                total += table[index]
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    @contextlib.contextmanager
    def ticking(self) -> Iterator[Ticks]:
        """Probe every TICK_S seconds of wall time while the block runs."""
        ticks = Ticks()

        def tick(signum, frame):
            wall, cpu = time.perf_counter(), time.process_time()
            ticks.probe_s.append(self.measure())
            ticks.wall_s += time.perf_counter() - wall
            ticks.cpu_s += time.process_time() - cpu

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield ticks
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def normalised(raw_s: float, probe_s: float) -> float:
    """*raw_s* expressed at the reference speed, given the probe time then."""
    return raw_s * REFERENCE_S / probe_s
