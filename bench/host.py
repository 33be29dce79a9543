"""Host-speed sampling, so that timings can be scaled to a fixed host speed.

On a shared VM the same pass takes 15 s in one minute and 23 s in the next:
the speed of the host moves by 20% or more, on time scales from a second to
minutes, and process CPU time moves with it.  ``HostSampler`` runs a fixed
reference loop from a SIGALRM timer every ``PERIOD_S`` while a timed section
runs.  The mean duration of those samples is the host's speed over the same
interval, and a time multiplied by ``REF_NOMINAL_S / mean`` is the time it
would have taken on a host where the loop takes ``REF_NOMINAL_S``.  The
samplers' own time is measured and kept out of the timed sections.
"""

from __future__ import annotations

import signal
import statistics
import time

#: reference-loop duration that defines the nominal host speed
REF_NOMINAL_S = 0.002

#: wall-clock interval between reference samples
PERIOD_S = 0.05


def reference():
    """Wall time of a fixed pure-Python loop of dict and integer work.

    It imports nothing, so it can also run before the program is imported.
    """
    t0 = time.perf_counter()
    table = {}
    for i in range(10000):
        table[i % 97] = table.get(i % 89, 0) + i * i
    return time.perf_counter() - t0


class HostSampler:
    """Reference samples taken on a timer between ``start`` and ``stop``."""

    def __init__(self):
        self.samples = []
        self.wall = 0.0  # time spent in the sampler itself
        self.cpu = 0.0

    def _sample(self, signum, frame):
        w0, c0 = time.perf_counter(), time.process_time()
        self.samples.append(reference())
        self.wall += time.perf_counter() - w0
        self.cpu += time.process_time() - c0

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self):
        """REF_NOMINAL_S over the mean sample; one sample is taken if none was."""
        if not self.samples:
            self._sample(None, None)
        return REF_NOMINAL_S / statistics.fmean(self.samples)
