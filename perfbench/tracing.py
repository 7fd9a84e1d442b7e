"""Traced mode: class-level wrappers around each layer's public calls.

The wrappers live here, in the benchmark, and are installed only when a
run is traced; the untraced run measures the program untouched.  Each
timed wrapper records a span around one call: its inclusive wall time,
and its *self* time, the span minus the part covered by wrapped calls
made inside it.  Self times of nested layers therefore add up to the
time of the outermost span without double counting.  Count-only
wrappers (simulator event factories, registry lookups) record calls and
add no span, so their cost stays with the caller.

Spans nest on one stack because the whole stack is single-threaded:
simulator processes are generators resumed synchronously inside
``Simulator.run``.  A generator function is timed per resume, so the
consumer's work between two items is not charged to it.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.block_store import BlockStore
from repro.core.extent_map import ExtentMap
from repro.core.gc import GarbageCollector
from repro.core.read_cache import ReadCache
from repro.core.volume import LSVDVolume
from repro.core.write_cache import WriteCache
from repro.devices.image import DiskImage
from repro.devices.ssd import SSD
from repro.gcsim.simulator import GCSimulator
from repro.objstore import InMemoryObjectStore
from repro.obs import Registry
from repro.runtime.backend import SimulatedObjectStore
from repro.runtime.lsvd import LSVDRuntime
from repro.sim.engine import Simulator


def _fetched_bytes(result) -> int:
    return sum(len(data) for _lba, data in result)


#: (class, methods, key, bytes-of-result) for every timed span
TIMED = [
    (LSVDVolume, ("write", "writev", "read", "flush"), "volume", None),
    (WriteCache, ("append",), "write_cache.append", None),
    (WriteCache, ("barrier",), "write_cache.barrier", None),
    (WriteCache, ("recover",), "write_cache.recover", None),
    (WriteCache, ("records_after",), "recovery.records", None),
    (ReadCache, ("read",), "read_cache.read", None),
    (ReadCache, ("insert",), "read_cache.insert", None),
    (BlockStore, ("add_write",), "block_store.add_write", None),
    (BlockStore, ("commit",), "block_store.commit", None),
    (BlockStore, ("write_checkpoint",), "block_store.checkpoint", None),
    (BlockStore, ("fetch_with_prefetch",), "block_store.fetch", _fetched_bytes),
    (BlockStore, ("open",), "block_store.open", None),
    (ExtentMap, ("update", "remove"), "extent_map.update", None),
    (ExtentMap, ("lookup", "lookup_with_gaps"), "extent_map.lookup", None),
    (GarbageCollector, ("plan", "select", "materialize"), "gc.plan", None),
    (GarbageCollector, ("execute",), "gc.execute", None),
    (InMemoryObjectStore, ("put",), "objstore.put", None),
    (InMemoryObjectStore, ("get", "get_range"), "objstore.get", None),
    (DiskImage, ("write",), "devices.image_write", None),
    (DiskImage, ("flush",), "devices.image_flush", None),
    (SSD, ("read", "write", "flush"), "devices.ssd", None),
    (Simulator, ("run", "run_until_event"), "sim.run", None),
    (LSVDRuntime, ("submit",), "runtime.submit", None),
    (SimulatedObjectStore, ("put",), "runtime.backend_put", None),
    (GCSimulator, ("write",), "gcsim.write", None),
]

#: (class, methods, key) for count-only wrappers
COUNTED = [
    (Simulator, ("event", "timeout", "process", "all_of", "any_of"), "sim.events"),
    (Registry, ("counter", "gauge", "histogram"), "obs.registry"),
]


class Tracer:
    """Span and call accounting, bucketed by benchmark phase."""

    def __init__(self) -> None:
        #: wrappers record only while a phase is set
        self.phase: Optional[str] = None
        self.self_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.total_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.calls: Dict[Tuple[str, str], int] = defaultdict(int)
        #: items yielded by generator spans, or result bytes where measured
        self.amount: Dict[Tuple[str, str], int] = defaultdict(int)
        self._stack: List[float] = [0.0]
        self._undo: List[Tuple[type, str, object]] = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        for cls, names, key, measure in TIMED:
            for name in names:
                self._patch(cls, name, lambda fn, k=key, m=measure: self._timed(fn, k, m))
        for cls, names, key in COUNTED:
            for name in names:
                self._patch(cls, name, lambda fn, k=key: self._counted(fn, k))

    def uninstall(self) -> None:
        for cls, name, original in reversed(self._undo):
            if original is None:
                delattr(cls, name)
            else:
                setattr(cls, name, original)
        self._undo.clear()

    def _patch(self, cls: type, name: str, make: Callable) -> None:
        raw = next(k.__dict__[name] for k in cls.__mro__ if name in k.__dict__)
        self._undo.append((cls, name, cls.__dict__.get(name)))
        if isinstance(raw, classmethod):
            setattr(cls, name, classmethod(make(raw.__func__)))
        else:
            setattr(cls, name, make(raw))

    # -- wrappers -----------------------------------------------------
    def _timed(self, fn: Callable, key: str, measure: Optional[Callable]) -> Callable:
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        def close(start: float) -> Tuple[str, str]:
            elapsed = clock() - start
            child = stack.pop()
            stack[-1] += elapsed
            slot = (tracer.phase, key)
            tracer.self_s[slot] += elapsed - child
            tracer.total_s[slot] += elapsed
            return slot

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if tracer.phase is None:
                    return (yield from fn(*args, **kwargs))
                tracer.calls[(tracer.phase, key)] += 1
                it = fn(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    start = clock()
                    try:
                        item = next(it)
                    except StopIteration as stop:
                        close(start)
                        return stop.value
                    except BaseException:
                        close(start)
                        raise
                    tracer.amount[close(start)] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                slot = close(start)
                tracer.calls[slot] += 1
            if measure is not None:
                tracer.amount[slot] += measure(result)
            return result

        return wrapper

    def _counted(self, fn: Callable, key: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.phase is not None:
                tracer.calls[(tracer.phase, key)] += 1
            return fn(*args, **kwargs)

        return wrapper
