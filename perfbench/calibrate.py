"""Machine-speed calibration: scale operation times to a reference speed.

On a shared virtual machine the CPU's speed follows the neighbours' load: the
same point query took 0.14 ms or 0.24 ms at the median in runs a minute
apart, and within one run its two-second medians moved by ±25%, with the
process on the CPU all along (CPU time over wall time 0.99). The slowdown
hits every kind of operation alike, so it is measured directly: while the
timed loop runs, a fixed kernel, written here and independent of trimiga,
is timed every PERIOD_S in the same thread (see Speedometer), and each
operation's time is scaled by REFERENCE_MS over the kernel's time around
it. The kernel does what the program's inner loops do, Cox-de Boor
recursion in Python over small numpy arrays. A change to trimiga cannot
change the kernel, so a slower program still reads slower; only the
machine's drift cancels.

A sampler in a second process, on the other vCPU, was tried and dropped: it
followed the program's speed less closely (over five runs of the point
queries the p50 spread by 0.077 against 0.03), as each vCPU is slowed by
its own neighbours.
"""

import signal
import statistics
from time import perf_counter

import numpy as np

#: the kernel's median time, in ms, on the reference machine of README.md
#: at its fastest; a scaled time is the time that machine would have taken
REFERENCE_MS = 0.85

#: time between samples, and kernel runs per sample (their median is kept);
#: the samples take about 2% of the run
PERIOD_S = 0.25
KERNELS = 5

_KNOTS = np.array([0.0, 0.0, 0.0, 0.0, 0.2, 0.45, 0.7, 1.0, 1.0, 1.0, 1.0])
_COEFS = np.linspace(0.5, 2.0, 7)


def kernel():
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    p, U = 3, _KNOTS
    total = 0.0
    for i in range(80):
        u = (i + 0.5) / 80.0
        span = int(np.searchsorted(U, u, side="right")) - 1
        ndu = np.empty((p + 1, p + 1))
        left = np.empty(p + 1)
        right = np.empty(p + 1)
        ndu[0, 0] = 1.0
        for j in range(1, p + 1):
            left[j] = u - U[span + 1 - j]
            right[j] = U[span + j] - u
            saved = 0.0
            for r in range(j):
                ndu[j, r] = right[r + 1] + left[j - r]
                temp = ndu[r, j - 1] / ndu[j, r]
                ndu[r, j] = saved + right[r + 1] * temp
                saved = left[j - r] * temp
            ndu[j, j] = saved
        total += float(np.dot(ndu[:, p], _COEFS[span - p:span + 1]))
    return total


def sample():
    """Median time in ms of KERNELS kernel runs."""
    times = []
    for _ in range(KERNELS):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


class Speedometer:
    """Calibration samples taken by a timer signal during a `with` block.

    Every PERIOD_S of wall time SIGALRM interrupts the program, between two
    bytecodes of the main thread, and its handler takes a sample, so the
    kernel runs on the same CPU as the program, and also inside an
    operation that lasts many seconds (a C call, such as a dense solve,
    delays the sample until it returns). A sample is also taken on entry
    and on exit. `times`, `ms` and `spent` hold each sample's start, its
    kernel time and its own length.
    """

    def __enter__(self):
        kernel()  # warm up
        self.times, self.ms, self.spent = [], [], []
        self._sample()
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._handler)
        self._sample()
        return False

    def _sample(self, *_):
        t0 = perf_counter()
        self.ms.append(sample())
        self.times.append(t0)
        self.spent.append(perf_counter() - t0)

    def scale(self, starts, latencies):
        """Operation times at the reference speed, and their scale factors.

        A scaled clock runs, between two samples, at REFERENCE_MS over the
        mean of their kernel times, and stands still while a sample runs.
        An operation's scaled time is the scaled clock's advance over it, so
        an operation that spans many samples is scaled piece by piece.
        """
        t = np.asarray(self.times)
        ms = np.asarray(self.ms)
        resume = t + np.asarray(self.spent)
        rate = REFERENCE_MS / (0.5 * (ms[:-1] + ms[1:]))  # from resume[i] to t[i + 1]
        clock = np.concatenate([[0.0], np.cumsum(rate * (t[1:] - resume[:-1]))])

        def scaled_clock(x):
            i = np.clip(np.searchsorted(t, x, side="right") - 1, 0, len(rate) - 1)
            return clock[i] + rate[i] * np.maximum(x - resume[i], 0.0)

        starts = np.asarray(starts)
        latencies = np.asarray(latencies)
        scaled = scaled_clock(starts + latencies) - scaled_clock(starts)
        spent = np.concatenate([[0.0], np.cumsum(self.spent)])
        own = latencies - (spent[np.searchsorted(t, starts + latencies)]
                           - spent[np.searchsorted(t, starts)])
        return scaled, scaled / own
