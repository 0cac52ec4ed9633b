"""Host-speed calibration: what makes the timings repeat on a shared box.

On the 2-vCPU sandbox this benchmark was sized on, the same repetition
took 4.2 to 7.0 s within ten minutes (quartile spread 9–18 % of the
median): neighbours on the host slow the CPU for anything from 50 ms to
minutes, CPU time moves with wall time, and no number of repetitions
averages a slow drift away.  So the benchmark measures the host while
it measures the program: the simulation is advanced in short slices
and after each one a fixed pure-Python load — :meth:`Calibrator.slice`,
a few milliseconds — is timed.  A timing is then reported as

    calibrated_s = raw_s × (REFERENCE_SLICE_S × slices / calibration_s)

i.e. the seconds the work would have taken had the host run the
calibration load at its reference speed throughout.  Paired on the
same noisy minutes, one ``web_zdr`` repetition's quartile spread fell
from 6.0 / 8.3 / 28.9 % raw to 2.4 / 2.5 / 3.7 % calibrated; over ten
driver runs on ten seeds it fell from 14–19 % to 2–5 %.

The load imports nothing from ``src/``: an optimisation of the program
cannot speed it up, so a gain shows as fewer calibrated seconds.  It is
the program's kind of work on purpose — a heap of generator-driven
processes, dict counters, floats — and as memory-bound (20,000
processes, 22 MB, run cache-cold after every simulation slice): a
2,000-process load that fits the cache tracked the host half as well,
and a load sampled every 1.0 instead of 0.25 sim seconds half as well
again.  Raw seconds are kept beside every calibrated value in the run
record.
"""

from __future__ import annotations

import heapq
import time

#: Seconds one :meth:`Calibrator.slice` took on the sizing box at its
#: quietest.  It only sets the scale (calibrated seconds ≈ real seconds
#: on a quiet host of that speed); comparisons never depend on it.
REFERENCE_SLICE_S = 0.0075

_PROCESSES = 20000
_EVENTS_PER_SLICE = 2500


class Calibrator:
    """A fixed, deterministic pure-Python load, run a slice at a time."""

    def __init__(self):
        self._counters: dict = {}
        self._heap: list = []
        for pid in range(_PROCESSES):
            process = self._process(pid)
            heapq.heappush(self._heap, (next(process), pid, process))
        self._eid = _PROCESSES

    def _process(self, pid: int):
        counters = self._counters
        key = ("p", pid % 97)
        # Eight distinct floats from the start: every later store frees
        # one and allocates one, so the load's memory is all allocated
        # at construction (rep.py takes it off peak_rss_mb).
        recent = [float(pid + slot) for slot in range(8)]
        step = 0
        while True:
            step += 1
            delay = ((pid * 2654435761 + step * 40503) % 1000) / 1000.0 + 0.001
            counters[key] = counters.get(key, 0) + 1
            recent[step % 8] = delay
            yield delay

    def slice(self) -> float:
        """Run one slice of the load; returns the seconds it took."""
        heap = self._heap
        eid = self._eid
        pop, push = heapq.heappop, heapq.heappush
        started = time.perf_counter()
        for _ in range(_EVENTS_PER_SLICE):
            now, _, process = pop(heap)
            eid += 1
            push(heap, (now + process.send(None), eid, process))
        self._eid = eid
        return time.perf_counter() - started


def calibrated(raw_s: float, calibration_s: float, slices: int) -> float:
    """``raw_s`` at the reference host speed (see the module docstring)."""
    return raw_s * REFERENCE_SLICE_S * slices / calibration_s
