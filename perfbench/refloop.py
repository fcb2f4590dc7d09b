"""The reference loop every benchmark timing is normalised against.

A shared 2-vCPU cloud VM changes speed by tens of percent within
seconds, and a stdlib loop slows down in step with the program.
So between timed requests the benchmark runs a fixed stdlib loop of
about 20 ms (int arithmetic, dict writes, 61-bit ``pow``, ``sha256``)
and scales each request's wall time by ``NOMINAL_S / measured``, where
``measured`` is the mean of the loops run just before and just after
the request. A normalised second is a second on a machine whose loop
takes exactly ``NOMINAL_S``.

A reference window only counts when nothing else in the system under
test used CPU during it: in this process ``time.process_time()`` must
match ``time.thread_time()``, and each watched subprocess must not gain
CPU ticks. A window that fails this raises :class:`WindowError`; it is
never quietly normalised, so background work cannot hide inside the
reference windows and make requests look faster.

This module imports nothing from ``repro``. Run its self-test with::

    python3 perfbench/refloop.py --self-test
"""

from __future__ import annotations

import hashlib
import os
import statistics
import sys
import threading
import time
from typing import Callable, List, Optional, Sequence

#: The loop time that defines one normalised second's worth of work.
NOMINAL_S = 0.020
#: Iterations of :func:`reference_work`; about ``NOMINAL_S`` on a 2-vCPU VM.
ROUNDS = 10_000
#: CPU the rest of this process may use during a window before it fails.
OTHER_CPU_TOLERANCE_S = 0.0005
#: Most a watched subprocess may use (schedstat, ns-exact) in a window.
CHILD_CPU_TOLERANCE_NS = 200_000

_M61 = (1 << 61) - 1
_MASK64 = (1 << 64) - 1


class WindowError(RuntimeError):
    """A reference window saw CPU used outside the loop."""


def reference_work(rounds: int = ROUNDS) -> str:
    """The fixed loop; returns a checksum so the work cannot be skipped."""
    table = {}
    digest = hashlib.sha256()
    x = 0x9E3779B97F4A7C15
    acc = 0
    for i in range(rounds):
        x = (x * 0x5851F42D4C957F2D + 0x14057B7EF767814F) & _MASK64
        table[x & 0x3FF] = i
        acc = (acc + (x >> 3) * i) % _M61
        if not i & 15:
            acc ^= pow((x & _M61) | 1, (x >> 5) & _M61, _M61)
            digest.update(x.to_bytes(8, "little"))
    digest.update(acc.to_bytes(8, "little"))
    digest.update(len(table).to_bytes(4, "little"))
    return digest.hexdigest()


class ProcessWatch:
    """CPU use of another process (the service under test), from /proc."""

    def __init__(self, pid: int) -> None:
        self.pid = pid

    def ticks(self) -> int:
        """utime + stime in clock ticks, from ``/proc/<pid>/stat``."""
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return int(fields[11]) + int(fields[12])

    def cpu_ns(self) -> int:
        """Nanoseconds on CPU summed over every thread (schedstat)."""
        total = 0
        for tid in os.listdir(f"/proc/{self.pid}/task"):
            try:
                with open(f"/proc/{self.pid}/task/{tid}/schedstat") as handle:
                    total += int(handle.read().split()[0])
            except FileNotFoundError:
                continue
        return total

    def wait_idle(self, timeout: float = 2.0) -> None:
        """Block until the process used no CPU over two 1 ms polls."""
        deadline = time.perf_counter() + timeout
        last = self.cpu_ns()
        quiet = 0
        while quiet < 2:
            if time.perf_counter() > deadline:
                raise WindowError(f"process {self.pid} never went idle")
            time.sleep(0.001)
            now = self.cpu_ns()
            quiet = quiet + 1 if now == last else 0
            last = now


class ReferenceClock:
    """Runs guarded reference windows and normalises intervals with them.

    ``work`` is injectable so the self-test can slow the "machine" down
    uniformly.
    """

    def __init__(
        self,
        watch: Sequence[ProcessWatch] = (),
        work: Callable[[], str] = reference_work,
    ) -> None:
        self.watch = list(watch)
        self.work = work
        self.samples: List[float] = []
        self._checksum: Optional[str] = None

    def reference(self) -> float:
        """Run one guarded window; return its wall time in seconds."""
        for process in self.watch:
            process.wait_idle()
        ticks = [p.ticks() for p in self.watch]
        cpu = [p.cpu_ns() for p in self.watch]
        p0 = time.process_time()
        t0 = time.thread_time()
        w0 = time.perf_counter()
        checksum = self.work()
        w1 = time.perf_counter()
        t1 = time.thread_time()
        p1 = time.process_time()
        other = (p1 - p0) - (t1 - t0)
        if other > OTHER_CPU_TOLERANCE_S:
            raise WindowError(
                f"another thread used {other * 1e3:.2f} ms of CPU during a "
                f"{(w1 - w0) * 1e3:.1f} ms reference window"
            )
        for process, before, before_ns in zip(self.watch, ticks, cpu):
            grown = process.ticks() - before
            used = process.cpu_ns() - before_ns
            if grown or used > CHILD_CPU_TOLERANCE_NS:
                raise WindowError(
                    f"process {process.pid} used CPU during a reference "
                    f"window ({grown} ticks, {used / 1e6:.2f} ms)"
                )
        if self._checksum is None:
            self._checksum = checksum
        elif checksum != self._checksum:
            raise WindowError("reference loop checksum changed")
        self.samples.append(w1 - w0)
        return w1 - w0

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor turning wall seconds into normalised seconds."""
        return NOMINAL_S / ((before + after) / 2.0)

    def timed(self, before: float, fn: Callable[[], object]):
        """Run ``fn`` between ``before`` and a fresh window.

        Returns ``(value, wall_s, normalised_s, after)``; ``after`` is the
        next call's ``before``.
        """
        start = time.perf_counter()
        value = fn()
        wall = time.perf_counter() - start
        after = self.reference()
        return value, wall, wall * self.scale(before, after), after


# ------------------------------------------------------------- self-test --


def _fixed_workload() -> int:
    """A request stand-in: the same mix as the loop, shaped differently."""
    total = 0
    for i in range(40_000):
        total = (total * 31 + i) & _MASK64
        if not i & 63:
            total ^= pow(i | 1, total & _M61, _M61)
    return total


def _slowed(fn: Callable[[], object], factor: int) -> Callable[[], object]:
    def run():
        value = None
        for _ in range(factor):
            value = fn()
        return value

    return run


def _normalised_medians(repeats: int = 9) -> dict:
    """Median raw and normalised workload time at speed factors 1 and 2.

    The two factors alternate, so drift of the real machine hits both
    alike and only the synthetic slowdown tells them apart.
    """
    clocks = {factor: ReferenceClock(work=_slowed(reference_work, factor)) for factor in (1, 2)}
    before = {factor: clock.reference() for factor, clock in clocks.items()}
    walls = {1: [], 2: []}
    norms = {1: [], 2: []}
    for _ in range(repeats):
        for factor, clock in clocks.items():
            _, wall, norm, before[factor] = clock.timed(before[factor], _slowed(_fixed_workload, factor))
            walls[factor].append(wall)
            norms[factor].append(norm)
    return {f: (statistics.median(walls[f]), statistics.median(norms[f])) for f in (1, 2)}


def self_test() -> None:
    """Two checks the normalisation rests on; raises AssertionError."""
    # 1. a uniform slowdown: every unit of work, in the loop and in the
    # workload alike, done twice, as on a machine half as fast
    medians = _normalised_medians()
    (wall1, norm1), (wall2, norm2) = medians[1], medians[2]
    print(
        f"uniform slowdown x2: raw {wall1 * 1e3:.2f} -> {wall2 * 1e3:.2f} ms "
        f"({wall2 / wall1:.2f}x), normalised {norm1 * 1e3:.2f} -> "
        f"{norm2 * 1e3:.2f} ms ({norm2 / norm1:.3f}x)"
    )
    assert 1.6 < wall2 / wall1 < 2.4, "the synthetic slowdown did not slow"
    assert abs(norm2 / norm1 - 1.0) < 0.1, "normalised time moved with speed"

    # 2. a sibling thread busy during a window must fail the window
    stop = threading.Event()

    def spin() -> None:
        while not stop.is_set():
            _fixed_workload()

    sibling = threading.Thread(target=spin)
    sibling.start()
    try:
        ReferenceClock().reference()
    except WindowError as exc:
        print(f"busy sibling thread refused: {exc}")
    else:
        raise AssertionError("a busy sibling thread went unnoticed")
    finally:
        stop.set()
        sibling.join()
    ReferenceClock().reference()  # and an idle process passes again
    print("refloop self-test ok")


if __name__ == "__main__":
    if sys.argv[1:] == ["--self-test"]:
        self_test()
    else:
        ref = ReferenceClock()
        times = [ref.reference() for _ in range(20)]
        print(f"reference loop: median {statistics.median(times) * 1e3:.2f} ms")
