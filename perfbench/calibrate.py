"""Machine-speed calibration for timings taken on a shared, noisy host.

On a host whose cores are shared with other tenants the same solve can run
20-40% slower for tens of seconds at a time, which swamps any change in the
program.  The benchmark therefore times a fixed pure-Python kernel of its own
(a small greedy max-coverage over chunk-table bitmasks, the same kind of
work as the package's hot loops, but none of its code) between operations,
about once per CAL_EVERY_S of operation time, and reports every timing in
reference seconds:

    reference seconds = wall seconds * KERNEL_REF_S / median kernel time

that is, seconds on a machine where one kernel call takes KERNEL_REF_S.
Because the kernel shares no code with the package, a change to the package
moves the reported timings and leaves the kernel alone.
"""

from __future__ import annotations

import random
import statistics
import time

# about one kernel call on the 2-core x86-64 VM (Python 3.11.7) where the
# baseline in trajectory.json was measured, so reference and wall seconds
# agree there when the host is quiet
KERNEL_REF_S = 0.0012
CAL_EVERY_S = 0.025

_rng = random.Random(20261017)
_MASKS = [_rng.getrandbits(256) for _ in range(48)]
_TABLE = [_rng.randrange(100) for _ in range(256)]


def kernel() -> int:
    rem = (1 << 256) - 1
    total = 0
    for _ in range(8):
        best, best_g = -1, -1
        for v, mask in enumerate(_MASKS):
            x = mask & rem
            g = 0
            while x:
                g += _TABLE[x & 0xFF]
                x >>= 8
            if g > best_g:
                best, best_g = v, g
        rem &= ~_MASKS[best]
        total += best_g
    return total


class Calibration:
    """Kernel timings spread over a phase of the run."""

    def __init__(self):
        self.samples = []
        self._since = 0.0

    def sample(self):
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def tick(self, op_seconds):
        """Account for one operation: one kernel sample per CAL_EVERY_S of
        operation time, so samples weigh the run as its operations do."""
        self._since += op_seconds
        while self._since >= CAL_EVERY_S:
            self._since -= CAL_EVERY_S
            self.sample()

    def take_factor(self):
        """Factor turning wall seconds into reference seconds, from the
        median of the samples taken since the last call, so that one sample
        hit by a preemption does not move the factor; the samples are then
        dropped."""
        if not self.samples:
            self.sample()
        factor = KERNEL_REF_S / statistics.median(self.samples)
        self.samples = []
        return factor
