"""Machine-speed calibration for the end-to-end timings.

On a shared virtual machine the host's speed moves in steps that last
seconds to minutes: the same pure-Python operation was seen to take up to
1.7 times as long in some minutes as in others, with the process's CPU
time rising just as much as its wall time.  Raw seconds from two runs of
the same code then differ by more than any useful regression bound.

A fixed calibration kernel, which does not call arrowq, tracks those
steps.  While a workload runs, ``SpeedSampler`` runs the kernel from a
SIGPROF handler every ``INTERVAL_S`` of process CPU time, records how long
it took, and keeps the total so that it can be taken out of the operation
times.  Each operation's time is then rescaled to the reference speed:

    seconds at reference speed = measured seconds * REFERENCE_S / kernel seconds

where ``kernel seconds`` is the mean kernel time around the operation.
A faster or slower program changes the operation's time but not the
kernel's, so it shows in full; a slower minute of the machine slows both.
The kernel is written in the style of arrowq's own code, which it was
seen to track best: small loops over tuples of rankings, and small numpy
products for a two-qubit state.  A tight arithmetic loop tracked it
worse, slowing about half as much as arrowq in the machine's slow steps.
Its time was seen to jump by half within a second, so each operation is
rescaled by the samples nearest to it, not by a mean over the run.  The
set-up probes sample a kernel that needs no numpy, since importing numpy
is part of the set-up they time.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from itertools import permutations, product
from time import perf_counter

# Kernel seconds at the reference speed: about what each kernel takes on a
# quiet two-vCPU virtual machine with Python 3.11.  Only the ratio between
# two runs matters, so these constants never need to change.
REFERENCE_S = 0.002
INTERPRETER_REFERENCE_S = 0.001
INTERVAL_S = 0.025
WINDOW_S = 0.06  # kernel samples this close to an operation rescale it
MIN_SAMPLES = 5

_ORDERS = list(permutations(range(3)))
_PROFILES = list(product(_ORDERS, repeat=2))
_PAIRS = [(a, b) for a in range(3) for b in range(a + 1, 3)]


def _majority_order(profile):
    """Pairwise majority over a two-voter profile, ties to the lower
    alternative; None on a cycle."""
    wins = [0, 0, 0]
    for a, b in _PAIRS:
        votes = sum(ballot.index(a) < ballot.index(b) for ballot in profile)
        wins[a if 2 * votes >= len(profile) else b] += 1
    if sorted(wins) != [0, 1, 2]:
        return None
    return tuple(sorted(range(3), key=lambda x: -wins[x]))


def interpreter_kernel() -> int:
    """Tuples, lists, small loops and calls, in the style of arrowq's
    social-choice code.  Needs no numpy, so it can time a process that
    has not imported it."""
    cycles = 0
    for _ in range(6):
        for profile in _PROFILES:
            cycles += _majority_order(profile) is None
    return cycles


def full_kernel():
    """The interpreter kernel plus the correlation matrix and its spectrum
    for a two-qubit state, in the style of arrowq's Bell code.  Imports
    numpy on first use."""
    import numpy as np

    pauli = (
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    )
    psi = np.array([0.5, 0.5j, -0.5, 0.5], dtype=complex)

    def kernel() -> float:
        x = float(interpreter_kernel())
        for _ in range(4):
            t = np.array([[np.real(np.vdot(psi, np.kron(a, b) @ psi)) for b in pauli]
                          for a in pauli])
            x += float(np.linalg.eigvalsh(t.T @ t)[-1])
        return x

    return kernel


class SpeedSampler:
    """Runs a kernel every ``interval_s`` of CPU time while active.

    ``spent`` is the total time spent in the kernel, which callers subtract
    from the operations it interrupted; ``scale`` gives the factor that
    rescales a measured interval to the reference speed.
    """

    def __init__(self, kernel, reference_s: float, interval_s: float = INTERVAL_S):
        self.kernel = kernel
        self.reference_s = reference_s
        self.interval_s = interval_s
        self.midpoints: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0
        self._busy = False

    def sample(self):
        """Run the kernel once and record its time."""
        t0 = perf_counter()
        try:
            self.kernel()
        finally:
            # A deadline can interrupt the kernel: its time is still taken
            # out of the operation, but the partial sample is dropped.
            t1 = perf_counter()
            self.spent += t1 - t0
        self.midpoints.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)

    def _on_prof(self, signum, frame):
        # The timer counts the CPU time of every thread, so it can fire
        # again while the kernel runs; a nested sample would count twice.
        if self._busy:
            return
        self._busy = True
        try:
            self.sample()
        finally:
            self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGPROF, self._on_prof)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
        return False

    def scale(self, t0: float, t1: float) -> float:
        """The reference time over the mean kernel time in and around
        [t0, t1]: every sample within WINDOW_S of the interval, and at
        least the MIN_SAMPLES nearest to its middle."""
        times = self.midpoints
        if not times:
            raise RuntimeError("no calibration samples were taken")
        lo = bisect_left(times, t0 - WINDOW_S)
        hi = bisect_right(times, t1 + WINDOW_S)
        while hi - lo < min(MIN_SAMPLES, len(times)):
            mid = (t0 + t1) / 2
            if hi < len(times) and (lo == 0 or times[hi] - mid < mid - times[lo - 1]):
                hi += 1
            else:
                lo -= 1
        return self.reference_s / statistics.fmean(self.durations[lo:hi])
