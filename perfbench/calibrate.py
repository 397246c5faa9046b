"""Machine-speed calibration for wall-clock figures on a shared host.

On a shared virtual machine the speed of a core moves by 20-60% from one
second to the next and from one minute to the next (other guests on the
same host), so two runs of the same code can differ by more than any
change worth measuring. The lost speed shows up neither as steal nor as
lost CPU time: the guest's core simply executes fewer instructions per
wall second.

The benchmark therefore runs a fixed calibration kernel, a few hundred
microseconds of interpreter and numpy work that never touches the
program, just before every operation and from a ``SIGALRM`` handler
every ``INTERVAL_S`` of wall time while it measures (:class:`Sampler`);
the first tracks the machine at the scale of short operations, the second
inside long ones. An operation's time is its wall
time minus the kernels that ran inside it, scaled by
``REFERENCE_KERNEL_MS / local kernel time``, where the local kernel time
is the median of the kernels that ran during the operation and the
``EDGE`` on each side of it. The scaled time is the wall time the
operation would have taken on a machine that runs the kernel in
``REFERENCE_KERNEL_MS``: a change to the program moves it as it moves
wall time, while a slow second of the host slows operation and kernel
together and cancels. The unscaled wall figures are printed beside the
scaled ones in the report.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# Wall ms the kernel takes at the reference speed. Any fixed value would
# do; this is roughly its median time next to the program on a 2-vCPU
# x86-64 VM under CPython 3.11 (0.3-0.5 ms; 0.2 ms in a tight loop, as the
# program leaves the caches cold), so scaled figures stay close to wall
# figures there.
REFERENCE_KERNEL_MS = 0.45

# Wall seconds between kernels, and the kernels on each side of an
# operation that join those inside it in setting its speed.
INTERVAL_S = 0.01
EDGE = 3

_WORDS = tuple(f"col_{i:03d}" for i in range(64))
_VECTOR = np.arange(4096, dtype=np.int64)


def kernel() -> int:
    """Fixed work in the mix the program does: calls, dict and string
    traffic, a sort, and a small numpy pass."""
    table: dict[str, int] = {}
    acc = 0
    for i in range(600):
        word = _WORDS[(i * 7) % 64]
        table[word] = table.get(word, 0) + i
        acc += len(word.upper()) ^ (i & 15)
    ranked = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    acc += int(np.cumsum(_VECTOR * 3 % 11)[-1])
    return acc + ranked[0][1]


class Sampler:
    """Runs the kernel every ``INTERVAL_S`` while active, and whenever
    :meth:`tick` is called, and keeps each run's start (``perf_counter``
    seconds) and wall ms, in order.

    Use as a context manager around the measured code; it settles for a
    few intervals on entry and exit so the first and last operations have
    kernels on both sides.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.kernel_ms: list[float] = []
        self._running = False
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        if not self._running:
            self._running = True
            self._sample()
            self._running = False

    def _sample(self) -> None:
        start = time.perf_counter()
        kernel()
        self.kernel_ms.append((time.perf_counter() - start) * 1000.0)
        self.starts.append(start)

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._settle()
        return self

    def __exit__(self, *exc) -> None:
        try:
            self._settle()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def _settle(self) -> None:
        deadline = time.perf_counter() + (EDGE + 1) * INTERVAL_S
        while time.perf_counter() < deadline:
            time.sleep(INTERVAL_S / 4)

    def tick(self) -> None:
        """Run the kernel now, between operations."""
        self._running = True
        self._sample()
        self._running = False

    def wall_ms(self, start: float, end: float) -> float:
        """Wall ms of ``[start, end]`` less the kernels that ran inside it."""
        lo, hi = bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)
        return (end - start) * 1000.0 - sum(self.kernel_ms[lo:hi])

    def scaled_ms(self, start: float, end: float) -> float:
        """``wall_ms`` scaled to the reference kernel speed."""
        lo, hi = bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)
        local = statistics.median(self.kernel_ms[max(0, lo - EDGE) : hi + EDGE])
        return self.wall_ms(start, end) * REFERENCE_KERNEL_MS / local
