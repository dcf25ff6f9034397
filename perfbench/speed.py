"""Host-speed probe for timing on a shared, noisy CPU.

On the 2-vCPU host this benchmark was built on, each vCPU's speed flips
between levels up to 2x apart for seconds to minutes at a time (other
tenants), so raw timings of the same work differ by 20-40% between runs.
The probe times a fixed kernel of the same kind of work the library does
(``mpmath.libmp`` arithmetic at 320 bits plus exact ``Fraction``
arithmetic, neither of which the library can change) and rescales a
measured time to the speed at which the kernel takes ``KERNEL_REF_S``:

    t_ref = t_raw * mean(KERNEL_REF_S / k_i)

where the k_i are kernel durations sampled evenly in wall time while
``t_raw`` was measured.  Work done at speed proportional to 1/k(t) over
the interval is thus expressed in reference seconds.  A set-up interval,
too short to sample, is rescaled by the median of five kernel runs
timed right after it.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

from mpmath.libmp import from_rational, mpf_atan, mpf_div, mpf_mul

KERNEL_REF_S = 5e-4
SAMPLE_PERIOD_S = 0.05

_PREC = 320
_X = from_rational(7, 13, _PREC, "n")
_Y = from_rational(29, 3, _PREC, "n")
_P, _Q = Fraction(123456789123, 987654321), Fraction(31, 17)


def kernel_s() -> float:
    """Duration of one fixed unit of libmp and Fraction work."""
    t0 = time.perf_counter()
    for _ in range(20):
        a = mpf_atan(_X, _PREC, "n")
        mpf_div(mpf_mul(a, _Y, _PREC, "n"), _X, _PREC, "n")
        _P * _Q + Fraction(5, 7)
    return time.perf_counter() - t0


def rescale(t_raw: float, samples: list[float]) -> float:
    """``t_raw`` in reference seconds, given kernel durations sampled
    evenly in wall time over the same interval."""
    return t_raw * sum(KERNEL_REF_S / k for k in samples) / len(samples)


class Sampler:
    """Times the kernel every ``SAMPLE_PERIOD_S`` of wall time (SIGALRM)
    while active.  ``samples`` holds the durations and ``busy_s`` their
    sum, to be taken off the interval that was measured around them."""

    def __init__(self):
        self.samples: list[float] = []
        self.busy_s = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(kernel_s())
        self.busy_s += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:        # interval shorter than one period
            self.samples.append(kernel_s())
        return False
