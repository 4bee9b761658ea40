"""Durations corrected for the drifting speed of a shared CPU.

On a shared 2-core host the speed of a core drifts by a fifth and more over
tens of seconds, so raw durations of the same work spread too widely to
compare two versions of the program. `SpeedClock` times a fixed integer loop
(the reference) when it starts, every PROBE_PERIOD_S seconds from a SIGALRM
handler in the measured thread, and when it stops. Its `seconds` are the
measured duration, without the probes, rescaled to the speed at which the
reference takes REFERENCE_S: duration x REFERENCE_S / (median reference time
during the measurement). `raw_s` keeps the duration as measured.

The loop slows somewhat more than patvar does when the host gets busy
(0.75-0.9 of its slowdown showed in patvar's), so the correction slightly
overshoots; it still cut the spread of patvar's round times by a third to
a half here.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_PERIOD_S = 0.5
REFERENCE_S = 0.01  # the reference's duration on an idle core of the host it was tuned on


def reference_work() -> int:
    total = 0
    for i in range(130_000):
        total += i * i % 7
    return total


class SpeedClock:
    """Context manager timing its body; see the module docstring."""

    def __init__(self):
        self._probes: list[float] = []
        self._previous = None
        self.seconds = self.raw_s = 0.0

    def _probe(self, *_signal_args) -> None:
        start = time.perf_counter()
        reference_work()
        self._probes.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedClock":
        self._probes = []
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self.raw_s = elapsed - sum(self._probes[1:])
        self._probe()
        self.seconds = self.raw_s * REFERENCE_S / statistics.median(self._probes)


class RawClock:
    """SpeedClock's interface without probes, for traced runs."""

    def __enter__(self) -> "RawClock":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = self.raw_s = time.perf_counter() - self._start
