"""Speed-normalized timing: reference kernels sampled between slices of the work.

The CPU speed of a shared machine changes by up to 1.7x every few seconds, so a
raw time says as much about the machine as about the code.  ``Clock`` samples
fixed reference kernels, which import nothing from radialqc, every
``INTERVAL_S`` seconds from a SIGALRM handler.  The handler runs between two
bytecodes of the measured code, so the samples follow the drift inside a long
call (one ``run_verification()`` takes seconds).  Each timed interval is split
at the samples; every piece is scaled by ``R0 / R``, where ``R`` is the
reference time measured around that piece, and the handler's own time is left
out.  The sum is the interval's length at reference speed.

There are two kernels, one per kind of work; each timed operation is
normalized by one of them:

  * ``array``  the branch lookup of a piecewise-affine map on 2^15 log2 radii:
               floor, casts, a six-probe window of parity-split breakpoint
               formulas and the affine branch, all bulk numpy passes of the
               size the array workload uses.  It also normalizes
               ``run_verification()``, whose all-pairs passes and bisection it
               followed as closely as any mix of the two kernels;
  * ``python`` interpreter-bound work: generator sums with integer arithmetic
               and set updates, then float formatting into CSV lines.  It
               normalizes one-point queries and CLI commands.  Across
               processes it followed one-point ``eval_log`` calls and
               ``ivt_sample`` to 1-2% (median ratio over 10 s), where a kernel
               of many numpy calls on 0-d arrays followed them only to 3-5%.

Set-up time is normalized in its own interpreter by ``setup_probe.py``.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

#: seconds between reference samples inside a timed region.
INTERVAL_S = 0.25

#: reference time of each kernel, in seconds, that normalized figures are
#: scaled to (about the fast-state median on a 2-vCPU Xeon virtual machine).
#: ``module_exec`` is the set-up reference of ``setup_probe.py``.
R0 = {"array": 0.0090, "python": 0.00097, "module_exec": 0.00064}

_RADII = -np.exp2(np.random.default_rng(0).uniform(-10.0, 20.0, 1 << 15))


def _parity_breakpoint(K, n):
    m_odd = (n + 1) // 2
    m_even = n // 2
    return np.where(n % 2 == 1, -((m_odd - 1) * K + m_odd / K), -(m_even * K + m_even / K))


def _array_kernel():
    K, x = 2.0, _RADII
    m = np.floor(-x / (K + 1.0 / K)).astype(np.int64)
    lo = np.maximum(2 * m - 1, 1)
    n = np.full(x.shape, -1, dtype=np.int64)
    for off in range(6):
        cand = lo + off
        hit = (n < 0) & (_parity_breakpoint(K, cand) <= x) & (x <= _parity_breakpoint(K, cand - 1))
        n = np.where(hit, cand, n)
    odd = n % 2 == 1
    return np.where(odd, (n // 2) * (K * K - 1.0), (n // 2) * (1.0 / (K * K) - 1.0)) + np.where(
        odd, K, 1.0 / K) * x


def _python_kernel():
    total = 0
    for m in range(1, 90):
        exps = set()
        for n0 in (1, 2):
            net = sum(1 if (n0 + i) % 2 == 1 else -1 for i in range(m))
            exps.add(2.0 ** (2 * net))
        total += len(exps)
    lines = []
    for i in range(300):
        lines.append(",".join("%.17g" % float(v) for v in (i, 0.1 * i, -0.37 * i)) + "\r\n")
    return total, "".join(lines)


KERNELS = {"array": _array_kernel, "python": _python_kernel}


class Clock:
    """Samples of the reference kernels ``kinds`` over a run, and the split of
    timed intervals at them."""

    def __init__(self, kinds):
        self.starts = []  # perf_counter at the start of each sample
        self.ends = []  # perf_counter at the end of each sample
        self.refs = {kind: [] for kind in kinds}
        self._previous_handler = None

    def sample(self, *_signal_args):
        # a timer signal that falls due during a sample waits until it ends
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            start = time.perf_counter()
            for kind, refs in self.refs.items():
                t0 = time.perf_counter()
                KERNELS[kind]()
                refs.append(time.perf_counter() - t0)
            self.starts.append(start)
            self.ends.append(time.perf_counter())
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    def __enter__(self):
        self.sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self.sample()
        return False

    def _segment_factor(self, kind, k):
        """R0 / R for the gap after sample k, with R the median of samples k-1..k+2."""
        return R0[kind] / statistics.median(self.refs[kind][max(k - 1, 0) : k + 3])

    def split(self, t0, t1, kind):
        """(raw, normalized) seconds of work in [t0, t1], sample time left out,
        normalized by the kernel ``kind``.

        [t0, t1] must lie between the first and the last sample.
        """
        raw = 0.0
        norm = 0.0
        k = max(bisect.bisect_right(self.ends, t0) - 1, 0)
        while k + 1 < len(self.starts) and self.ends[k] < t1:
            lo = max(t0, self.ends[k])
            hi = min(t1, self.starts[k + 1])
            if hi > lo:
                raw += hi - lo
                norm += (hi - lo) * self._segment_factor(kind, k)
            k += 1
        return raw, norm

    def median_ref(self, kind):
        return statistics.median(self.refs[kind])
