"""Host time scaled to a fixed host speed, by a reference run in between.

The shared host this benchmark was built on runs the same Python code
1.1 to 1.8 times slower than its best, in phases of a second to minutes,
and CPU time tracks wall time, so neither a minimum nor a median over a
run says the same thing from one run to the next. `RefClock` measures a
block of code with a small reference computation (sha256 and dict work,
like posn's own) run every INTERVAL_S from a SIGALRM handler. Each
stretch of the block between two reference runs is scaled by how much
slower than REF_S the next reference run was, so a stretch that ran
while the host was slow counts for what it would have taken at the
reference speed:

    scaled = sum(stretch * REF_S / reference_time)

`raw_s` keeps the plain host seconds of the block, without the
reference runs, and `slowdown` the mean reference time over REF_S.
The reference runs add about 3% to the block's wall time; they are
not counted in either figure. Only one RefClock may run at a time, in
the main thread.
"""

from __future__ import annotations

import hashlib
import signal
import time

# how often the reference runs, in host seconds
INTERVAL_S = 0.002
# the reference's time on an idle core of the 2.1 GHz Xeon the
# benchmark was built on; it only sets the scale of the scaled seconds
REF_S = 50e-6

_sha256 = hashlib.sha256
_BLOCK = b"x" * 64


def reference() -> int:
    """A fixed piece of work: 60 small hashes kept in a dict, then read."""
    table = {}
    for i in range(60):
        table[(i, i & 7)] = _sha256(_BLOCK + i.to_bytes(2, "little")).digest()
    total = 0
    for key, digest in table.items():
        total += digest[0] + key[0]
    return total


class RefClock:
    """Context manager: `with RefClock() as rc: ...`, then read
    `rc.scaled_s`, `rc.raw_s` and `rc.slowdown`."""

    def __init__(self):
        self.scaled_s = 0.0
        self.raw_s = 0.0
        self._ref_s = 0.0
        self._refs = 0
        self._mark = 0.0
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        clock = time.perf_counter
        start = clock()
        reference()
        end = clock()
        ref = end - start
        stretch = start - self._mark
        self.raw_s += stretch
        self.scaled_s += stretch * REF_S / ref
        self._ref_s += ref
        self._refs += 1
        self._mark = end
        self._busy = False

    def __enter__(self) -> "RefClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        # a tick already on its way finds the clock busy and returns
        self._busy = True
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        # the stretch after the last reference run has no reference of
        # its own: time one now
        start = time.perf_counter()
        reference()
        ref = time.perf_counter() - start
        stretch = end - self._mark
        self.raw_s += stretch
        self.scaled_s += stretch * REF_S / ref
        self._ref_s += ref
        self._refs += 1
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def slowdown(self) -> float:
        return self._ref_s / self._refs / REF_S if self._refs else 0.0
