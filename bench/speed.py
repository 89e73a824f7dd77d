"""Machine-speed probe: times fixed reference work on an interval timer.

On a shared machine the same code runs about 1.5 times slower for
stretches of seconds to minutes while a neighbour is busy, and the two
CPUs switch between a fast and a slow state together. Every time the
benchmark reports is therefore rescaled to the reference speed: a raw
duration is multiplied by REFERENCE_NS over the reference work's
duration measured around the same moment. The reference work never
calls attestlab, so a change to the program cannot move it.

The work runs in a SIGALRM handler, between bytecodes of whatever the
program is doing. `now()` is a clock that stops while the handler runs,
so the probe's own time never enters a measured duration.
"""

from __future__ import annotations

import bisect
import hashlib
import hmac
import signal
import time
from itertools import accumulate

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

INTERVAL_S = 0.1
# samples beyond each end of an interval that enter its speed estimate
NEIGHBOURS = 3
# the reference work's duration on the reference machine in its fast
# state; rescaled times are in seconds of that machine
REFERENCE_NS = 1_100_000

_KEY, _MSG = bytes(range(16)), bytes(range(96))
_WALK = np.random.default_rng(0).integers(-1, 2, size=(34, 16))
_ROW = np.arange(512, dtype=np.uint8)


def reference_work() -> int:
    """Fixed work in the program's mix, none of it attestlab's code.

    Interpreter-bound arithmetic with a list and a dict, small NumPy
    operations, and HMAC-SHA256 plus AES-CBC on short messages. A mix
    tracks the program's slowdown better than any one part: over 6 s
    windows it left 2.6 % variation in handshake time, against 4.5 %
    for the interpreter loop alone and 14 % unscaled.
    """
    acc, table, seen = 0, [], {}
    for i in range(400):
        acc = (acc * 31 + i) % 1_000_003
        table.append(acc & 0xFF)
        seen[acc & 0x3FF] = i
    cur = np.zeros(16, dtype=np.int64)
    for step in _WALK:
        cur = np.clip(cur + step, 0, 255)
    for _ in range(8):
        acc += int(_ROW.reshape(-1, 4).mean(axis=1).sum())
    for _ in range(12):
        acc ^= hmac.new(_KEY, _MSG, hashlib.sha256).digest()[0]
        enc = Cipher(algorithms.AES(_KEY), modes.CBC(_KEY)).encryptor()
        acc ^= (enc.update(_MSG) + enc.finalize())[0]
    return acc + len(seen) + sum(table[::97]) + int(cur.sum())


class SpeedProbe:
    """Samples the reference work every INTERVAL_S while started."""

    def __init__(self):
        self.times: list[int] = []    # sample start, on the now() clock
        self.costs: list[int] = []    # reference work duration, ns
        self._paused = 0
        self._previous = None

    def now(self) -> int:
        """perf_counter_ns minus the time spent inside the probe."""
        while True:
            paused = self._paused
            t = time.perf_counter_ns()
            if paused == self._paused:
                return t - paused

    def sample(self, *_):
        t0 = time.perf_counter_ns()
        reference_work()
        cost = time.perf_counter_ns() - t0
        self.times.append(t0 - self._paused)
        self.costs.append(cost)
        self._paused += time.perf_counter_ns() - t0

    def start(self) -> None:
        """Start sampling; the first samples are taken at once.

        The first call runs cold and is discarded; the next three give the
        speed estimate for whatever is timed right after start().
        """
        reference_work()
        for _ in range(NEIGHBOURS):
            self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def scaler(self):
        """factor(t0, t1): REFERENCE_NS over the mean work cost in [t0, t1].

        The mean covers the samples inside the interval plus the nearest
        NEIGHBOURS on each side, so a sub-millisecond interval gets a
        speed estimate from about 0.6 s around it.
        """
        n = len(self.costs)     # a sample may land while this runs
        times = self.times[:n]
        prefix = [0] + list(accumulate(self.costs[:n]))
        last = n - 1

        def factor(t0: int, t1: int) -> float:
            lo = max(0, bisect.bisect_left(times, t0) - NEIGHBOURS)
            hi = min(last, bisect.bisect_right(times, t1) + NEIGHBOURS - 1)
            mean = (prefix[hi + 1] - prefix[lo]) / (hi + 1 - lo)
            return REFERENCE_NS / mean

        return factor
