"""Per-layer metrics of a traced run, and per-workload side figures.

Every ``*_s`` figure is *self* time (the span minus the wrapped calls made
inside it, see tracing.py) per round, in calibrated seconds, except
``sim.run_s``, which is the inclusive time of ``Simulator.run``.  Counts
are means per round over whole cycles of streams, so they repeat exactly
for a seed.  A layer a
workload does not reach reads 0.  README.md maps each figure to the
end-to-end metric it should move.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

MiB = 1 << 20
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _SPEC = json.load(_fh)
#: metric -> unit as BENCHMARK.json declares them, in its order
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def _means(dicts: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: sum(d[k] for d in dicts) / len(dicts) for k in dicts[0]}


def per_layer(name: str, rounds, tracer, factor: float) -> Dict[str, Tuple[float, str]]:
    """The per-layer split of a traced run (values per round)."""
    n = len(rounds)
    counters = _means([r.counters for r in rounds])
    figures = _means([r.figures for r in rounds])

    def self_s(key: str, phase: str = "measured") -> float:
        return tracer.self_s.get((phase, key), 0.0) * factor / n

    def calls(key: str, phase: str = "measured") -> float:
        return tracer.calls.get((phase, key), 0) / n

    def amount(key: str, phase: str = "measured") -> float:
        return tracer.amount.get((phase, key), 0) / n

    hits, misses = counters.get("rc.hits", 0), counters.get("rc.misses", 0)
    requests = counters.get("barrier.requests", 0)
    values = {
        "volume.self_s": self_s("volume"),
        "write_cache.append_s": self_s("write_cache.append"),
        "write_cache.appends": calls("write_cache.append"),
        "write_cache.barrier_s": self_s("write_cache.barrier"),
        "write_cache.device_flushes": counters.get("wc.device_flushes", 0),
        "read_cache.read_s": self_s("read_cache.read"),
        "read_cache.insert_s": self_s("read_cache.insert"),
        "read_cache.inserts": calls("read_cache.insert"),
        "read_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "read_cache.evicted_mib": counters.get("rc.evicted_bytes", 0) / MiB,
        "block_store.add_write_s": self_s("block_store.add_write"),
        "block_store.commit_s": self_s("block_store.commit"),
        "block_store.checkpoint_s": self_s("block_store.checkpoint"),
        "block_store.objects_put": counters.get("store.objects_put", 0),
        "block_store.fetch_s": self_s("block_store.fetch"),
        "block_store.fetched_mib": amount("block_store.fetch") / MiB,
        "extent_map.update_s": self_s("extent_map.update"),
        "extent_map.lookup_s": self_s("extent_map.lookup"),
        "extent_map.calls": calls("extent_map.update") + calls("extent_map.lookup"),
        "gc.plan_s": self_s("gc.plan"),
        "gc.execute_s": self_s("gc.execute"),
        "gc.rounds": counters.get("gc.rounds", 0),
        "gc.relocated_mib": counters.get("gc.bytes_relocated", 0) / MiB,
        "block_store.open_s": self_s("block_store.open", "recovery"),
        "write_cache.recover_s": self_s("write_cache.recover", "recovery"),
        "recovery.replayed_records": amount("recovery.records", "recovery"),
        "objstore.put_s": self_s("objstore.put"),
        "objstore.get_s": self_s("objstore.get"),
        "objstore.puts": calls("objstore.put"),
        "objstore.gets": calls("objstore.get"),
        "devices.image_write_s": self_s("devices.image_write"),
        "devices.image_flush_s": self_s("devices.image_flush"),
        "devices.image_flushes": calls("devices.image_flush"),
        "devices.ssd_s": self_s("devices.ssd"),
        "devices.ssd_calls": calls("devices.ssd"),
        "sim.events": calls("sim.events"),
        "sim.run_s": tracer.total_s.get(("measured", "sim.run"), 0.0) * factor / n,
        "sim.residual_s": self_s("sim.run"),
        "runtime.submit_s": self_s("runtime.submit"),
        "runtime.flushes_per_barrier": (
            counters.get("barrier.flushes", 0) / requests if requests else 0.0
        ),
        "runtime.backend_put_s": self_s("runtime.backend_put"),
        "runtime.backend_puts": calls("runtime.backend_put"),
        "gcsim.write_s": self_s("gcsim.write"),
        "gcsim.relocated_pages": counters.get("gcsim.relocated_pages", 0),
        "obs.registry_calls_per_op": calls("obs.registry") / rounds[0].measured_ops,
    }
    for key in (
        "vclock_iops",
        "vclock_write_p50_us",
        "vclock_write_p99_us",
        "vclock_flush_p50_us",
        "vclock_flush_p99_us",
    ):
        values[f"runtime.{key}"] = figures.get(key, 0.0)
    return declared(values, PER_LAYER)


def declared(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, Tuple[float, str]]:
    """``values`` with the declared units, in BENCHMARK.json's order;
    raises if the computed metrics are not exactly the declared ones."""
    if values.keys() != units.keys():
        raise RuntimeError(
            f"computed metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}"
        )
    return {key: (float(values[key]), unit) for key, unit in units.items()}


def workload_figures(name: str, rounds) -> Dict[str, Tuple[float, str]]:
    """Figures that apply to one workload only, printed as ``#`` lines."""
    out: Dict[str, Tuple[float, str]] = {}
    measured = sum(r.measured_s for r in rounds)
    if name == "core-read-evict":
        out["read_mbps"] = (
            sum(r.bytes_read for r in rounds) / sum(r.timings["read_s"] for r in rounds) / 1e6,
            "MB/s",
        )
        out["write_mbps"] = (
            sum(r.bytes_written for r in rounds)
            / sum(r.timings["write_s"] for r in rounds) / 1e6,
            "MB/s",
        )
    elif name == "core-write-gc":
        out["write_mbps"] = (sum(r.bytes_written for r in rounds) / measured / 1e6, "MB/s")
    else:
        out["sim_ops_per_s"] = (sum(r.measured_ops for r in rounds) / measured, "ops/s")
    return out
