"""How fast the host runs Python right now, so that timings can be given in
reference seconds.

The benchmark runs on shared machines whose speed for the same Python code
changes by up to 1.9x from one minute to the next, while CPU time tracks
wall time and no time is stolen: neighbours slow the core down without
taking it away.  Raw seconds then spread by half from run to run.  So every
pass samples a fixed calibration loop, and timings are divided by the
slowdown factor

    factor = median calibration time / REFERENCE_S

The loop is written here, not in groupgen, so a change to the program never
changes the yardstick.  It does what the program's hot paths do: composes
permutations stored as tuples and hashes them into a set.

The factor is a model, not a law: it assumes the program slows down as much
as the loop does.  On a 2-core Intel Xeon, over 23 to 133 passes of each
workload spanning a 1.8x swing in the loop's time, the slope of log pass
time on log loop time was 0.89 to 1.08; 1.0 is what the factor assumes.
(Fits over calmer stretches gave lower slopes, down to 0.5, as a fit on a
noisy regressor does when the regressor varies little.)  The residual follows the host's load, not the program: a workload
whose slope is off by 0.1 is biased by 1.8 ** 0.1 - 1, about 6%, between an
idle and a busy minute.  A change to the program that alters how it slows
down under contention (more memory traffic, say) changes its slope, and the
factor does not see that.  The sampler also runs inside the measured
process (see ``Sampler``).
"""

import gc
import signal
import statistics
import time

# The loop's time on an unloaded 2-core Intel Xeon at 2.0 GHz.
REFERENCE_S = 0.0052
# How often a pass samples the loop; each sample takes about 5 ms.
INTERVAL_S = 0.1
# The fewest samples a factor for a stretch of work is taken from.
LOCAL_SAMPLES = 9

_A = tuple((7 * i + 3) % 64 for i in range(64))
_B = tuple((13 * i + 5) % 64 for i in range(64))


def calibrate():
    """Seconds one run of the calibration loop takes now."""
    t = time.perf_counter()
    seen = set()
    x = _A
    for i in range(600):
        x = tuple(map(_B.__getitem__, x))
        seen.add(tuple(map(x.__getitem__, _A)) + (i,))
    return time.perf_counter() - t


def factor(samples):
    return statistics.median(samples) / REFERENCE_S


def local_factor(times, samples, start, end):
    """The factor for work done from ``start`` to ``end``: from the samples
    taken meanwhile, or from the LOCAL_SAMPLES taken nearest its middle when
    there were fewer.  The host's speed drifts within a pass (the median
    loop time of one second differs from the next second's by 9% at the
    median), so a short item is judged by its own neighbourhood rather than
    by the whole pass."""
    inside = [s for t, s in zip(times, samples) if start <= t <= end]
    if len(inside) < LOCAL_SAMPLES:
        mid = (start + end) / 2
        near = sorted(zip(times, samples), key=lambda ts: abs(ts[0] - mid))
        inside = [s for _, s in near[:LOCAL_SAMPLES]]
    return factor(inside)


class Sampler:
    """Runs the loop every INTERVAL_S seconds from a SIGALRM handler while
    it is active, and once on entry and on exit.  ``times`` holds the
    middle of every sample.  ``spent`` is the time the handler took, to be
    taken off the work it interrupted, and ``intervals`` says when it ran,
    so that a trace can take it off the innermost span around it.

    The samples must come from the measured process: samples taken by
    another process at the same time, on the other core, explain a tenth of
    the variance of the pass times, against about 0.6 here.  The handler
    keeps the collector off while it runs and frees what it allocated, so
    it does not move the program's garbage collections; what it cannot undo
    is the cache lines its 60 kB of tuples evict, a cost of the order of
    0.1% of the interval.
    """

    def __init__(self):
        self.samples = []
        self.times = []
        self.intervals = []
        self.spent = 0.0
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        t = time.perf_counter()
        self.samples.append(calibrate())
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.times.append((t + end) / 2)
        self.intervals.append((t, end))
        self.spent += end - t
        self._busy = False

    def _sample(self):
        t = time.perf_counter()
        self.samples.append(calibrate())
        self.times.append((t + time.perf_counter()) / 2)

    def __enter__(self):
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()
        return False
