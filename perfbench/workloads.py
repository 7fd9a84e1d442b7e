"""The three benchmark workloads.

A workload object holds the inputs of one stream, made from its seed
before anything is timed.  ``run_round`` builds the stack from nothing
(set-up), replays the stream's operations (the measured phase, cut into
slices that are timed and calibrated one by one), and checks the results
against the benchmark's own model.  A round of a given stream is the
same every time, so every count it yields repeats exactly.

The program receives nothing but the generated operations, through its
public entry points: ``LSVDVolume`` over ``InMemoryObjectStore`` and
``DiskImage`` for the pure stack, ``LSVDRuntime`` on ``Simulator`` for
the timed one.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import checks
from checks import BLOCK, payload
from repro.cluster import StorageCluster
from repro.core import LSVDConfig, LSVDVolume
from repro.devices.image import DiskImage
from repro.devices.ssd import SSD, SSDSpec
from repro.objstore import InMemoryObjectStore
from repro.runtime import ClientMachine, LSVDRuntime, SimulatedObjectStore
from repro.sim import Simulator
from repro.workloads import FioJob
from repro.workloads.base import FLUSH, WRITE

KiB = 1 << 10
MiB = 1 << 20
GiB = 1 << 30

#: measured operations are timed in this many equal slices per round,
#: each bracketed by a calibration kernel run (see calib.py)
SLICES = 8


@dataclass
class Round:
    """What one round measured and checked."""

    setup_raw_s: float = 0.0
    setup_s: float = 0.0
    measured_raw_s: float = 0.0
    measured_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: client operations in the measured phase
    measured_ops: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    #: deterministic figures (ratios, virtual-clock figures)
    figures: Dict[str, float] = field(default_factory=dict)
    #: calibrated wall seconds of other timed steps (recovery, per-kind)
    timings: Dict[str, float] = field(default_factory=dict)
    #: program counters over the measured phase, for the traced split
    counters: Dict[str, float] = field(default_factory=dict)
    #: (check name, passed)
    checks: List[Tuple[str, bool]] = field(default_factory=list)
    first_error: Optional[str] = None


def subseed(seed: int, stream: str) -> int:
    """Independent seed for one input stream: streams drawn from one
    generator seeded alike would correlate (a shuffled prefill order and
    the read offsets would repeat each other)."""
    digest = hashlib.sha256(f"{seed}:{stream}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _slices(items: list, n: int = SLICES) -> List[list]:
    step = -(-len(items) // n)
    return [items[i : i + step] for i in range(0, len(items), step)]


def _counters(obs, names) -> Dict[str, float]:
    return {name: obs.value(name) for name in names}


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {name: after[name] - before[name] for name in after}


def _phase(tracer, name: Optional[str]) -> None:
    if tracer is not None:
        tracer.phase = name


# ---------------------------------------------------------------------------
# pure stack
# ---------------------------------------------------------------------------

#: program counters read around the measured phase of a core workload
CORE_COUNTERS = (
    "rc.hits",
    "rc.misses",
    "rc.evicted_bytes",
    "wc.device_flushes",
    "store.objects_put",
    "gc.rounds",
    "gc.bytes_relocated",
)


class CoreWriteGC:
    """4 KiB zipfian writes with a flush every FLUSH_EVERY writes over a
    region much smaller than the write volume, so GC, placement,
    checkpoints and extent-map updates run inline; then a lost burst,
    a crash and a mount that recovers from the cache."""

    name = "core-write-gc"
    VOLUME = 64 * MiB
    REGION = 8 * MiB
    CACHE = 16 * MiB
    WRITES = 12288
    FLUSH_EVERY = 16
    BURST = 64
    ZIPF_THETA = 0.99
    CONFIG = LSVDConfig(batch_size=256 * KiB, checkpoint_interval=16)

    def __init__(self, seed: int):
        self.seed = seed
        blocks = self.REGION // BLOCK
        self.blocks = blocks
        self.prefill = [payload(b, 0) for b in range(blocks)]
        version = [0] * blocks
        job = FioJob(
            rw="randwrite",
            bs=BLOCK,
            size=self.REGION,
            seed=subseed(seed, "writes"),
            distribution="zipfian",
            zipf_theta=self.ZIPF_THETA,
            fsync_every=self.FLUSH_EVERY,
        )
        stream = job.ops()
        self.ops: List[Tuple[int, Optional[bytes]]] = []
        writes = 0
        while writes < self.WRITES:
            op = next(stream)
            if op.kind == FLUSH:
                self.ops.append((-1, None))
                continue
            block = op.offset // BLOCK
            version[block] += 1
            self.ops.append((op.offset, payload(block, version[block])))
            writes += 1
        if self.ops[-1][0] != -1:
            self.ops.append((-1, None))
        #: block versions every flushed write leaves behind
        self.durable = dict(enumerate(version))
        self.burst: List[Tuple[int, int]] = []
        while len(self.burst) < self.BURST:
            op = next(stream)
            if op.kind == WRITE:
                block = op.offset // BLOCK
                version[block] += 1
                self.burst.append((block, version[block]))
        self.burst_payloads = [payload(b, v) for b, v in self.burst]
        self.client_bytes = BLOCK * (blocks + self.WRITES)

    def run_round(self, meter, tracer) -> Round:
        out = Round()
        store = InMemoryObjectStore()
        image = DiskImage(self.CACHE, name="cache")
        with meter.section() as setup:
            vol = LSVDVolume.create(store, "bench", self.VOLUME, image, self.CONFIG)
            for block, data in enumerate(self.prefill):
                vol.write(block * BLOCK, data)
            vol.flush()
        out.setup_raw_s, out.setup_s = setup.raw_s, setup.cal_s

        before = _counters(vol.obs, CORE_COUNTERS)
        stored = []
        _phase(tracer, "measured")
        for chunk in _slices(self.ops):
            with meter.section() as sec:
                for offset, data in chunk:
                    try:
                        if data is None:
                            vol.flush()
                        else:
                            vol.write(offset, data)
                    except Exception as exc:  # counted, reported, run goes on
                        out.failed += 1
                        out.first_error = out.first_error or repr(exc)
            out.measured_raw_s += sec.raw_s
            out.measured_s += sec.cal_s
            stored.append(store.total_bytes())
        _phase(tracer, None)
        out.counters = _delta(_counters(vol.obs, CORE_COUNTERS), before)
        out.attempted = out.measured_ops = len(self.ops)
        out.bytes_written = BLOCK * self.WRITES
        out.figures["write_amp"] = store.stats.bytes_put / self.client_bytes
        # GC makes stored bytes a sawtooth: average it over the slice ends
        out.figures["space_amp"] = sum(stored) / len(stored) / (BLOCK * self.blocks)

        # lose an unflushed burst, crash the cache device, then recover:
        # the flushed writes still in open batches replay from the cache
        for (block, _v), data in zip(self.burst, self.burst_payloads):
            vol.write(block * BLOCK, data)
        image.crash(random.Random(subseed(self.seed, "crash")))
        _phase(tracer, "recovery")
        with meter.section() as rec:
            vol = LSVDVolume.open(store, "bench", image, self.CONFIG)
        _phase(tracer, None)
        out.timings["recovery_s"] = rec.cal_s
        out.attempted += self.BURST + 1

        k = checks.crash_prefix(
            lambda block: vol.read(block * BLOCK, BLOCK), self.durable, self.burst
        )
        out.checks.append(("crash_prefix", k is not None))
        out.figures["burst_recovered"] = -1 if k is None else k
        # full destage: the backend must hold one live copy of each block
        vol.drain()
        out.checks.append(
            ("live_bytes", checks.live_bytes_ok(vol.occupancy()[0], self.blocks))
        )
        return out


class CoreReadEvict:
    """Uniform 4 KiB reads, with a small share of writes, over a region
    several times the read cache, on a volume prefilled in shuffled
    order and mounted cold; prefetch then fills the cache with scattered
    blocks and every insert evicts."""

    name = "core-read-evict"
    VOLUME = 64 * MiB
    REGION = 24 * MiB
    CACHE = 8 * MiB
    OPS = 960
    READ_SHARE = 0.9
    PREFILL_VECTOR = 32
    CONFIG = LSVDConfig(batch_size=1 * MiB, checkpoint_interval=16)

    def __init__(self, seed: int):
        blocks = self.REGION // BLOCK
        self.blocks = blocks
        order = list(range(blocks))
        random.Random(subseed(seed, "prefill")).shuffle(order)
        self.prefill = [
            [(b * BLOCK, payload(b, 0)) for b in order[i : i + self.PREFILL_VECTOR]]
            for i in range(0, blocks, self.PREFILL_VECTOR)
        ]
        version = [0] * blocks
        job = FioJob(
            rw="randrw",
            bs=BLOCK,
            size=self.REGION,
            seed=subseed(seed, "ops"),
            rwmixread=self.READ_SHARE,
        )
        stream = job.ops()
        #: (is_write, offset, payload written or payload expected)
        self.ops: List[Tuple[bool, int, bytes]] = []
        for _ in range(self.OPS):
            op = next(stream)
            block = op.offset // BLOCK
            if op.kind == WRITE:
                version[block] += 1
            self.ops.append((op.kind == WRITE, op.offset, payload(block, version[block])))
        self.final = version
        self.n_writes = sum(1 for w, _o, _d in self.ops if w)
        self.client_bytes = BLOCK * (blocks + self.n_writes)

    def run_round(self, meter, tracer) -> Round:
        out = Round()
        store = InMemoryObjectStore()
        with meter.section() as setup:
            vol = LSVDVolume.create(
                store, "bench", self.VOLUME, DiskImage(self.CACHE, name="cache"), self.CONFIG
            )
            for vector in self.prefill:
                vol.writev(vector)
            vol.flush()
            vol.close()
            # cold mount: a fresh cache device, recovered from the backend
            vol = LSVDVolume.open(
                store, "bench", DiskImage(self.CACHE, name="cache"), self.CONFIG,
                cache_lost=True,
            )
        out.setup_raw_s, out.setup_s = setup.raw_s, setup.cal_s

        before = _counters(vol.obs, CORE_COUNTERS)
        got: List[Optional[bytes]] = []
        kind_raw = [0.0, 0.0]  # reads, writes
        clock = meter.clock
        _phase(tracer, "measured")
        for chunk in _slices(self.ops):
            raw = [0.0, 0.0]
            with meter.section() as sec:
                for is_write, offset, data in chunk:
                    start = clock()
                    try:
                        if is_write:
                            vol.write(offset, data)
                        else:
                            got.append(vol.read(offset, BLOCK))
                    except Exception as exc:  # counted, reported, run goes on
                        out.failed += 1
                        out.first_error = out.first_error or repr(exc)
                        if not is_write:
                            got.append(None)
                    raw[is_write] += clock() - start
            scale = sec.cal_s / sec.raw_s
            kind_raw[0] += raw[0] * scale
            kind_raw[1] += raw[1] * scale
            out.measured_raw_s += sec.raw_s
            out.measured_s += sec.cal_s
        _phase(tracer, None)
        out.counters = _delta(_counters(vol.obs, CORE_COUNTERS), before)
        out.timings["read_s"], out.timings["write_s"] = kind_raw
        out.attempted = out.measured_ops = len(self.ops)
        out.bytes_written = BLOCK * self.n_writes
        out.bytes_read = BLOCK * (len(self.ops) - self.n_writes)
        expected = [data for is_write, _o, data in self.ops if not is_write]
        out.checks.append(("reads_match_model", checks.read_mismatches(got, expected) == 0))
        out.figures["write_amp"] = store.stats.bytes_put / self.client_bytes
        out.figures["space_amp"] = store.total_bytes() / (BLOCK * self.blocks)

        vol.drain()
        out.checks.append(
            ("live_bytes", checks.live_bytes_ok(vol.occupancy()[0], self.blocks))
        )
        vol.close()
        # read-back through a fresh cold mount that prefetches nothing, so
        # the check reads the backend and costs no eviction scans
        check_vol = LSVDVolume.open(
            store, "bench", DiskImage(self.CACHE, name="check"),
            replace(self.CONFIG, prefetch_bytes=BLOCK), cache_lost=True,
        )
        step = 16
        mismatches = 0
        for first in range(0, self.blocks, step):
            data = check_vol.read(first * BLOCK, step * BLOCK)
            mismatches += checks.read_mismatches(
                [data[i * BLOCK : (i + 1) * BLOCK] for i in range(step)],
                [payload(b, self.final[b]) for b in range(first, first + step)],
            )
        out.checks.append(("readback_matches_model", mismatches == 0))
        return out


# ---------------------------------------------------------------------------
# timed stack
# ---------------------------------------------------------------------------


class SimWriteSync:
    """Closed loop at simulated queue depth QD: 4 KiB zipfian writes with
    an fsync every FSYNC_EVERY writes, on a volume small enough that the
    modelled GC runs.  No reads: the runtime decides read hits by a coin
    flip, so their latency is a constant."""

    name = "sim-write-sync"
    VOLUME = 32 * MiB
    CACHE = 1 * GiB
    QD = 32
    FSYNC_EVERY = 8
    WARMUP_OPS = 8192
    OPS = 12288
    ZIPF_THETA = 0.99
    CONFIG = LSVDConfig()

    def __init__(self, seed: int):
        job = FioJob(
            rw="randwrite",
            bs=BLOCK,
            size=self.VOLUME,
            seed=subseed(seed, "writes"),
            iodepth=self.QD,
            distribution="zipfian",
            zipf_theta=self.ZIPF_THETA,
            fsync_every=self.FSYNC_EVERY,
        )
        stream = job.ops()
        self.warmup = [next(stream) for _ in range(self.WARMUP_OPS)]
        self.ops = [next(stream) for _ in range(self.OPS)]
        every = self.warmup + self.ops
        self.pages = {op.offset // BLOCK for op in every if op.kind == WRITE}
        self.total_writes = sum(1 for op in every if op.kind == WRITE)
        self.n_writes = sum(1 for op in self.ops if op.kind == WRITE)

    def _loop(self, sim, dev, ops, samples, marks=(), written=None):
        """Start QD workers sharing ``ops``; returns the all-done event.
        Each completion appends (kind, issued, completed) to ``samples``
        and a written page to ``written``; ``marks[i]`` fires once
        ``thresholds[i]`` operations completed."""
        cursor = [0]
        thresholds = [len(ops) * (i + 1) // (len(marks) + 1) for i in range(len(marks))]
        pending = list(zip(thresholds, marks))

        def worker():
            while cursor[0] < len(ops):
                op = ops[cursor[0]]
                cursor[0] += 1
                issued = sim.now
                yield dev.submit(op)
                samples.append((op.kind, issued, sim.now))
                if written is not None and op.kind == WRITE:
                    written.add(op.offset)
                if pending and len(samples) >= pending[0][0]:
                    pending.pop(0)[1].succeed()

        return sim.all_of([sim.process(worker()) for _ in range(self.QD)])

    def run_round(self, meter, tracer) -> Round:
        out = Round()
        with meter.section() as setup:
            sim = Simulator()
            machine = ClientMachine(sim)
            cluster = StorageCluster(
                sim, 4, 8, lambda s, n: SSD(s, SSDSpec.sata_consumer(), name=n)
            )
            backend = SimulatedObjectStore(sim, cluster, machine.network)
            dev = LSVDRuntime(
                sim, machine, backend, volume_size=self.VOLUME,
                cache_size=self.CACHE, config=self.CONFIG, name="bench",
            )
            sim.run_until_event(self._loop(sim, dev, self.warmup, []))
        out.setup_raw_s, out.setup_s = setup.raw_s, setup.cal_s

        names = ("barrier.flushes", "barrier.requests")
        before = _counters(dev.obs, names)
        relocated = dev.pagemap.gc_pages
        samples: List[Tuple[str, float, float]] = []
        marks = [sim.event() for _ in range(SLICES - 1)]
        written = {op.offset for op in self.warmup if op.kind == WRITE}
        done = self._loop(sim, dev, self.ops, samples, marks, written)
        space_amp = []
        _phase(tracer, "measured")
        for event in marks + [done]:
            with meter.section() as sec:
                sim.run_until_event(event)
            out.measured_raw_s += sec.raw_s
            out.measured_s += sec.cal_s
            space_amp.append(dev.occupancy()[1] / (BLOCK * len(written)))
        _phase(tracer, None)
        out.counters = _delta(_counters(dev.obs, names), before)
        out.counters["gcsim.relocated_pages"] = dev.pagemap.gc_pages - relocated
        out.attempted = out.measured_ops = len(self.ops)
        out.bytes_written = BLOCK * self.n_writes

        window = max(end for _k, _s, end in samples) - min(s for _k, s, _e in samples)
        writes = sorted(end - s for kind, s, end in samples if kind == WRITE)
        flushes = sorted(end - s for kind, s, end in samples if kind == FLUSH)
        latency_sum = sum(end - s for _k, s, end in samples)
        out.figures.update(
            vclock_iops=len(writes) / window,
            vclock_write_p50_us=checks.percentile(writes, 50) * 1e6,
            vclock_write_p99_us=checks.percentile(writes, 99) * 1e6,
            vclock_flush_p50_us=checks.percentile(flushes, 50) * 1e6,
            vclock_flush_p99_us=checks.percentile(flushes, 99) * 1e6,
            littles_law_qd=latency_sum / window,
            # GC makes stored bytes a sawtooth: average over slice ends
            space_amp=sum(space_amp) / len(space_amp),
        )
        out.checks.append(
            ("completed_all", len(samples) == len(self.ops))
        )
        out.checks.append(
            ("littles_law", checks.littles_law_ok(latency_sum, window, self.QD))
        )

        # let the idle flusher seal the last batch, then drain destage, so
        # every sealed object is PUT before write_amp is read
        sim.run(until=sim.now + 2 * self.CONFIG.batch_timeout)
        sim.run()
        out.figures["write_amp"] = dev.backend_bytes_put / (BLOCK * self.total_writes)
        out.checks.append(
            ("live_bytes", checks.live_bytes_ok(dev.occupancy()[0], len(self.pages)))
        )
        return out


WORKLOADS = {cls.name: cls for cls in (CoreWriteGC, CoreReadEvict, SimWriteSync)}
