"""The machine's speed while a round runs, and job times adjusted for it.

On a shared host the same pure-Python code runs up to twice as slow in some
phases as in others, and a phase can last as long as a whole run. To
keep that out of the end-to-end metrics, an untraced round samples the speed
all the time it runs: every ``EVERY_S`` seconds a SIGALRM handler, in the
round's only thread, times ``probe_work``, a fixed piece of pure-Python work
that never changes. A job's adjusted time is its wall time with the probes
taken out and each stretch of it scaled by ``REF_S`` over the probe's
duration near that stretch, so it reads the seconds the job would take at
the speed at which ``probe_work`` takes ``REF_S``. The probe is benchmark
code, so a change to the program moves the adjusted times as much as the raw
ones. Set-up, which runs before the first probe, is scaled by the probes
that follow it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

EVERY_S = 0.005  # one probe per 5 ms of wall time
REF_S = 50e-6  # the reference duration of one probe
WINDOW = 12  # a probe's duration is smoothed over its 2 * WINDOW + 1 neighbours

clock = time.perf_counter


def probe_work() -> int:
    """A fixed piece of pure-Python work, about 50 us: dict, tuple and int operations."""
    table = {}
    x = 0
    for i in range(150):
        k = (i * 7) % 61
        table[k] = table.get(k, 0) + 1
        x += len((k, i, x & 255))
    return x


class SpeedProbe:
    """Times probe_work every EVERY_S seconds from a SIGALRM handler."""

    def __init__(self):
        self.samples = []  # [start, duration]

    def _handler(self, signum, frame):
        t0 = clock()
        probe_work()
        self.samples.append([t0, clock() - t0])

    def start(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def adjusted_setup(raw_s, probes):
    """Set-up time at the reference speed, by the probes that follow it.

    Set-up runs before any probe, so the speed is taken from the first
    2 * WINDOW + 1 probes of the round, which start right after it.
    """
    return raw_s * REF_S / statistics.median(p[1] for p in probes[:2 * WINDOW + 1])


def adjusted_job_times(job_spans, probes):
    """Each job's time with the probes taken out, at the reference speed.

    job_spans are the [start, end] of the jobs and probes the [start,
    duration] of the probes, on one clock. Each stretch of a job between two
    probes is scaled by REF_S over the smoothed duration of the probe that
    ends it (or the next probe after the job, or the last one).
    """
    if not probes:
        raise ValueError("no probe ran during the round")
    starts = [p[0] for p in probes]
    durations = [p[1] for p in probes]
    smooth = [statistics.median(durations[max(0, k - WINDOW):k + WINDOW + 1])
              for k in range(len(durations))]
    last = len(probes) - 1
    out = []
    for a, b in job_spans:
        i, j = bisect.bisect_left(starts, a), bisect.bisect_left(starts, b)
        total, begin = 0.0, a
        for k in range(i, j):
            total += (starts[k] - begin) * REF_S / smooth[k]
            begin = starts[k] + durations[k]
        out.append(total + max(0.0, b - begin) * REF_S / smooth[min(j, last)])
    return out
