"""Correctness checks computed apart from the program under test.

Each check compares what the program returned against a model the
benchmark keeps itself: a dict of block versions for the pure stack, the
benchmark's own per-operation samples and page set for the timed stack.
None reads the program's internal state to decide what is expected.
:mod:`perfbench.selftest` shows that each check rejects a planted error.
"""

from __future__ import annotations

import math
import struct
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

BLOCK = 4096
_TAG = struct.Struct("<QQ")


def payload(block: int, version: int) -> bytes:
    """The 4 KiB written as ``version`` of ``block``: (block, version)
    repeated, so a torn, misplaced or stale block cannot pass."""
    return _TAG.pack(block, version) * (BLOCK // _TAG.size)


def read_mismatches(
    got: Sequence[Optional[bytes]], expected: Sequence[bytes]
) -> int:
    """Number of reads whose bytes differ from the model's.  A read that
    raised (None) is counted as a failed operation, not here."""
    if len(got) != len(expected):
        return max(len(got), len(expected))
    return sum(1 for a, b in zip(got, expected) if a is not None and a != b)


def crash_prefix(
    read: Callable[[int], Optional[bytes]],
    durable: Mapping[int, int],
    burst: Sequence[Tuple[int, int]],
) -> Optional[int]:
    """Length k of the lost burst's prefix the recovered image shows.

    ``durable`` maps every block to its version as of the last flush;
    ``burst`` is the (block, version) sequence written after it and then
    lost in a crash.  The recovered image must equal ``durable`` with
    ``burst[:k]`` applied, for some k.  Returns that k, or None when no
    prefix matches (a write before the flush was lost, or the burst came
    back out of order).
    ``read(block)`` returns the recovered block; each block is read once
    and only the burst's blocks are kept.
    """
    touched = {block for block, _v in burst}
    for block, version in durable.items():
        if block not in touched and read(block) != payload(block, version):
            return None
    image = {block: read(block) for block in touched}
    state = {block: durable[block] for block in touched}
    for k in range(len(burst) + 1):
        if k:
            block, version = burst[k - 1]
            state[block] = version
        if all(image[b] == payload(b, v) for b, v in state.items()):
            return k
    return None


def littles_law_ok(
    latency_sum_s: float, duration_s: float, queue_depth: int, tol: float = 0.02
) -> bool:
    """A closed loop at depth QD keeps QD operations in flight, so
    throughput x mean latency (= latency sum / duration) must equal QD."""
    if duration_s <= 0:
        return False
    return abs(latency_sum_s / duration_s - queue_depth) <= tol * queue_depth


def live_bytes_ok(live_bytes: int, distinct_blocks: int) -> bool:
    """After a full destage the backend holds exactly one live copy of
    every block ever written."""
    return live_bytes == BLOCK * distinct_blocks


def percentile(sorted_values: List[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(len(sorted_values) * p / 100))
    return sorted_values[rank - 1]

