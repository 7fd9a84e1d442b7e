"""Machine-speed calibration for wall-clock figures.

On a small shared machine the same Python code runs at visibly different
speeds from one minute to the next: process CPU time equals wall time, yet
a fixed loop takes up to 1.5x longer while neighbouring load is high.  A
rate measured over seconds of work still inherits that swing.

Every timed section is therefore bracketed by a fixed calibration kernel,
and its wall time is scaled by ``REFERENCE_S / kernel_time`` (the mean of
the kernel runs just before and just after the section).  The kernel is
benchmark code only, never the program under test, so a change to the
program moves the calibrated figure exactly as it moves the raw one, while
a slower machine moves the kernel too and cancels out.  The kernel mixes
integer arithmetic with dict, small-object, bisect, bytearray and CRC work
and a scan over 60k small objects scattered in memory, roughly the mix of
the storage stack; no one part alone tracks the stack's slowdowns as
closely.

Raw (uncalibrated) seconds are kept next to the calibrated ones and
printed too.
"""

from __future__ import annotations

import bisect
import gc
import random
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List

#: nominal kernel time; calibrated seconds read as seconds on a machine
#: where one kernel run takes this long.  A constant, so figures from
#: different runs and commits stay comparable.
REFERENCE_S = 0.05

_KEYS = [random.Random(7).randrange(1 << 30) for _ in range(4096)]
_SORTED = sorted(_KEYS)
_BUF = bytearray(8 << 20)
_PAYLOAD = bytes(range(256)) * 16


class _Extent:
    __slots__ = ("lba", "length", "offset")

    def __init__(self, lba: int):
        self.lba = lba
        self.length = 8
        self.offset = (lba * 7919) % 100_000


def _scattered_chunks() -> List[List[_Extent]]:
    items = [_Extent(i) for i in range(60_000)]
    random.Random(5).shuffle(items)
    return [items[i : i + 48] for i in range(0, len(items), 48)]


_CHUNKS = _scattered_chunks()


class _Node:
    __slots__ = ("key", "index", "sum")

    def __init__(self, key: int, index: int):
        self.key = key
        self.index = index
        self.sum = 0


def kernel() -> float:
    """Run the calibration kernel once; returns its wall seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        table = {}
        recent: List[tuple] = []
        for i, key in enumerate(_KEYS * 3):
            table[key] = _Node(key, i)
            node = table.get(_KEYS[(i * 7) % 4096])
            if node is not None:
                node.sum = node.key + node.index
            pos = bisect.bisect_left(_SORTED, key)
            if i % 8 == 0:
                off = (key % 2040) * 4096
                _BUF[off : off + 4096] = _PAYLOAD
                zlib.crc32(_PAYLOAD)
            recent.append((key, pos))
            if len(recent) > 64:
                recent.pop(0)
        scan = [e for chunk in _CHUNKS for e in chunk]
        hits = [e for e in scan if not (e.offset + e.length <= 50_000 or e.offset >= 50_400)]
        acc += len(hits)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


@dataclass
class Section:
    """One timed section: raw and calibrated wall seconds."""

    raw_s: float = 0.0
    cal_s: float = 0.0


class Meter:
    """Times sections of work and calibrates each against the kernel."""

    clock = staticmethod(time.perf_counter)

    def __init__(self) -> None:
        self._last = kernel()
        #: every kernel time measured in this process
        self.kernel_times: List[float] = [self._last]

    @contextmanager
    def section(self) -> Iterator[Section]:
        out = Section()
        before = self._last
        start = time.perf_counter()
        yield out
        out.raw_s = time.perf_counter() - start
        self._last = kernel()
        self.kernel_times.append(self._last)
        out.cal_s = out.raw_s * REFERENCE_S / ((before + self._last) / 2)

    def factor(self) -> float:
        """Run-wide calibration factor (for figures not timed by section)."""
        times = sorted(self.kernel_times)
        return REFERENCE_S / times[len(times) // 2]
