"""How fast the CPU is running while a pass is measured.

The benchmark shares a few cores of a busy host, and the speed those
cores give one process swings by a factor of two from minute to
minute, with no steal time reported to the guest.  Raw times then
measure the neighbours rather than the program.  So every timed pass
also times a fixed pure-Python loop, many times while the pass runs,
and the gated metrics are scaled to a reference speed::

    scaled = measured * REFERENCE_LOOP_S / mean(loop times)

On a host that runs the loop in ``REFERENCE_LOOP_S`` (about an idle
2-vCPU host of the machine the benchmark was defined on), scaled and
measured times agree.  The loop is the benchmark's own code, so no
change to the program can move it.

Only the standard library is used.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Iterations of the probe loop.
LOOP_ITERATIONS = 60_000

#: Seconds the probe loop takes at the reference speed.
REFERENCE_LOOP_S = 0.002


def spin(iterations: int = LOOP_ITERATIONS) -> int:
    """The probe loop: fixed pure-Python integer work."""
    total = 0
    for i in range(iterations):
        total += i * i
    return total


class Probe:
    """Loop timings taken while a pass runs, and the time they took."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.taken_s = 0.0

    def sample(self, *_args) -> None:
        """Time the loop once."""
        began = time.perf_counter()
        spin()
        took = time.perf_counter() - began
        self.samples.append(took)
        self.taken_s += took

    def burst(self) -> None:
        """Time the loop ten times, 5 ms apart."""
        for _ in range(10):
            self.sample()
            time.sleep(0.005)

    @property
    def loop_s(self) -> float | None:
        """Mean loop time (the speed of the pass); None if no samples."""
        return statistics.fmean(self.samples) if self.samples else None


class SignalProbe(Probe):
    """Samples the loop on this process's own thread.

    Every ``period`` seconds of process CPU time (``ITIMER_PROF``) the
    handler times the loop once, so the samples spread over the pass
    in proportion to its work.  Subtract ``taken_s`` from the pass's
    wall and CPU time.
    """

    def __init__(self, period: float = 0.1, enabled: bool = True) -> None:
        super().__init__()
        self.period = period
        self.enabled = enabled
        self._previous = None

    def __enter__(self) -> "SignalProbe":
        if self.enabled:
            self._previous = signal.signal(signal.SIGPROF, self.sample)
            signal.setitimer(signal.ITIMER_PROF, self.period, self.period)
        return self

    def __exit__(self, *_exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, self._previous)


def scale(measured: float, loop_s: float) -> float:
    """*measured* seconds at the reference speed."""
    return measured * REFERENCE_LOOP_S / loop_s
