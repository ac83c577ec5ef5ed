"""Core-speed probe: wall time in reference seconds.

The speed of a core on a shared virtual machine drifts with contention
from other tenants; 20 s throughput measurements of the same code have
spread by 35 % between runs.  A fixed probe kernel measures how fast the
machine is while an interval is measured; dividing the interval's wall
time by the probe duration, times :data:`REFERENCE_PROBE_S`, converts it
to *reference seconds*: the time the interval would have taken on a
machine that runs the probe in :data:`REFERENCE_PROBE_S`.

The probe has to run on the cores the program runs on, while it runs:
the two vCPUs' speeds drift apart and back within seconds, so bursts of
probes before and after a campaign say little about the campaign itself.
A :class:`Monitor` process runs one probe every
:data:`MONITOR_INTERVAL_S` throughout every campaign instead, and a
campaign's reading is the median of its probes.  The caller decides
which cores the monitor probes (it inherits the caller's affinity): one
vCPU shared with a campaign in one process, every vCPU for a pool
campaign.  Once the monitor is forked the caller lowers the program's
priority, so each probe preempts the program on the core the monitor
wakes on and runs uninterrupted: how many threads or processes the
program keeps busy hardly changes the median, and such a change moves
reference seconds about as it moves wall seconds.  The program's cache
footprint does reach the probe, which runs on caches the program left.
The monitor takes about 2 % of the cores it probes.  :func:`probe_burst` times set-up, which runs
before the monitor starts.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time

import numpy as np

#: Seconds of one probe burst.
BURST_S = 0.08
#: Seconds the monitor sleeps between two probes.
MONITOR_INTERVAL_S = 0.02
#: Probe duration that defines one reference second (about the median
#: burst duration on the two-vCPU Xeon VM the benchmark was built on).
REFERENCE_PROBE_S = 2.0e-4

_VECTOR = np.arange(64.0)
_MATRIX = (np.random.default_rng(0).random((40, 40)) + 40.0 * np.eye(40))
_RHS = np.ones(40)


def probe_kernel() -> float:
    """A fixed mix of small numpy operations, a dense solve and a Python
    loop — the instruction mix of a campaign — timed."""
    start = time.monotonic()
    total = 0.0
    for step in range(10):
        total += float((_VECTOR * 1.0001 + step).sum())
        np.linalg.solve(_MATRIX, _RHS)
    for step in range(150):
        total += step * step
    return time.monotonic() - start


def probe_burst() -> float:
    """Median probe duration [s] over :data:`BURST_S` of back-to-back
    probes."""
    end = time.monotonic() + BURST_S
    durations = [probe_kernel()]
    while time.monotonic() < end:
        durations.append(probe_kernel())
    return statistics.median(durations)


def _monitor(connection) -> None:
    durations: list[float] = []
    while True:
        if not connection.poll(MONITOR_INTERVAL_S):
            durations.append(probe_kernel())
            continue
        try:
            message = connection.recv()
        except EOFError:
            return
        if message != "collect":
            return
        connection.send(durations)
        durations = []


class Monitor:
    """Probe readings of campaigns: a forked process runs one probe every
    :data:`MONITOR_INTERVAL_S` while the campaigns run, on the cores the
    forking process may use."""

    def __init__(self):
        context = multiprocessing.get_context("fork")
        self._connection, child = context.Pipe()
        self._process = context.Process(target=_monitor, args=(child,),
                                        daemon=True)
        self._process.start()
        child.close()

    def _collect(self) -> list[float]:
        self._connection.send("collect")
        return self._connection.recv()

    def start(self) -> None:
        """Drop the probes taken before the campaign that starts now."""
        self._collect()

    def reading(self) -> float:
        """Median probe duration [s] since :meth:`start`."""
        return statistics.median(self._collect())

    def stop(self) -> None:
        """Stop the monitor process and wait for it to end."""
        try:
            self._connection.send("stop")
        except OSError:
            pass
        self._process.join(timeout=10)
        if self._process.is_alive():
            self._process.kill()
            self._process.join()
        self._connection.close()


def reference_seconds(wall: float, speed: float) -> float:
    """``wall`` seconds measured at probe duration ``speed``, in reference
    seconds."""
    return wall * REFERENCE_PROBE_S / speed
