"""Show that every correctness check rejects a planted wrong answer.

Each case feeds a check one input it must accept and one with a single
planted error it must reject.  ``run.py`` runs these before every
benchmark run and reports ``correct: false`` if any check fails to tell
them apart.  Standalone::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import os
import sys
from typing import Callable, List, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
from checks import payload  # noqa: E402


def _flip(data: bytes, index: int) -> bytes:
    out = bytearray(data)
    out[index] ^= 0x01
    return bytes(out)


def cases() -> List[Tuple[str, Callable[[], bool], Callable[[], bool]]]:
    """(name, check on a right answer, check on a planted wrong one)."""
    expected = [payload(b, v) for b, v in ((0, 1), (7, 3), (9, 0))]
    durable = {0: 2, 1: 5, 2: 0, 3: 1}
    burst = [(1, 6), (2, 1), (1, 7)]
    # recovered image showing burst[:2]
    good = {0: payload(0, 2), 1: payload(1, 6), 2: payload(2, 1), 3: payload(3, 1)}
    # block 3 lost a flushed write; and an image showing burst[2] without burst[1]
    lost_flushed = {**good, 3: payload(3, 0)}
    out_of_order = {0: payload(0, 2), 1: payload(1, 7), 2: payload(2, 0), 3: payload(3, 1)}
    return [
        ("reads: flipped byte",
         lambda: checks.read_mismatches(list(expected), expected) == 0,
         lambda: checks.read_mismatches(
             [expected[0], _flip(expected[1], 2048), expected[2]], expected) == 0),
        ("crash: lost flushed write",
         lambda: checks.crash_prefix(good.get, durable, burst) == 2,
         lambda: checks.crash_prefix(lost_flushed.get, durable, burst) is not None),
        ("crash: burst out of order",
         lambda: checks.crash_prefix(good.get, durable, burst) is not None,
         lambda: checks.crash_prefix(out_of_order.get, durable, burst) is not None),
        ("little's law: wrong queue depth",
         lambda: checks.littles_law_ok(3.2e-3 * 10_000, 1.0, 32),
         lambda: checks.littles_law_ok(3.2e-3 * 10_000, 1.0, 31)),
        ("live bytes: off-by-one distinct count",
         lambda: checks.live_bytes_ok(4096 * 2048, 2048),
         lambda: checks.live_bytes_ok(4096 * 2048, 2049)),
        ("percentile: nearest rank",
         lambda: checks.percentile([float(i) for i in range(1, 101)], 99) == 99.0,
         lambda: checks.percentile([float(i) for i in range(1, 101)], 99) == 100.0),
    ]


def run(verbose: bool = False) -> bool:
    """True when every check accepts its right answer and rejects the
    planted error."""
    ok = True
    for name, right, planted in cases():
        caught = right() and not planted()
        ok = ok and caught
        if verbose:
            print(f"{'ok    ' if caught else 'MISSED'} {name}")
    return ok


if __name__ == "__main__":
    sys.exit(0 if run(verbose=True) else 1)
