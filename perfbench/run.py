"""End-to-end benchmark of the LSVD stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload core-write-gc --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py            # every workload, each in its own process

One run cycles through STREAMS input streams derived from ``--seed``,
one round per stream (see workloads.py), and repeats whole cycles until
the measured phases add up to ``--seconds`` of wall time or the run has
taken BUDGET_FACTOR times that.  Whole cycles make every per-run mean of
a count repeat exactly for a seed, however many cycles fit; several
streams per run damp the share of the spread that comes from one
stream's particular offsets.

A run prints every figure as ``name value unit`` and, as its last line,
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics untraced, the per-layer split with
``--trace 1``).
"""

from __future__ import annotations

import os

# single-threaded process: no BLAS worker threads behind numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import selftest  # noqa: E402
from calib import Meter  # noqa: E402
from workloads import WORKLOADS, subseed  # noqa: E402

#: independent input streams per cycle; set-up time is a median over
#: at least this many rounds
STREAMS = 5
#: stop starting cycles once the run has taken this many times --seconds
BUDGET_FACTOR = 3.0



def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _rss_mib() -> float:
    """Resident set of this process now, in MiB."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / (1 << 20)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    checks_ok = selftest.run()
    meter = Meter()
    rounds = []
    baseline_mib = None
    started = time.perf_counter()
    try:
        while True:
            stream = subseed(seed, f"stream{len(rounds) % STREAMS}")
            workload = WORKLOADS[name](stream)
            gc.collect()
            if baseline_mib is None:
                # the interpreter, the benchmark and its inputs: what the
                # run holds before the program does any work
                baseline_mib = _rss_mib()
            rounds.append(workload.run_round(meter, tracer))
            del workload
            measured = sum(r.measured_raw_s for r in rounds)
            elapsed = time.perf_counter() - started
            if len(rounds) % STREAMS == 0 and (
                measured >= seconds or elapsed >= BUDGET_FACTOR * seconds
            ):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()

    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed_checks = sorted({c for r in rounds for c, ok in r.checks if not ok})
    correct = checks_ok and not failed_checks
    info = {
        "rounds": (len(rounds), "count"),
        "setup_raw_s": (_median([r.setup_raw_s for r in rounds]), "s"),
        "measured_raw_s": (sum(r.measured_raw_s for r in rounds), "s"),
        "measured_s": (sum(r.measured_s for r in rounds), "s"),
        "calibration_factor": (meter.factor(), "ratio"),
        "rss_baseline_mib": (baseline_mib, "MiB"),
    }
    moved = sum(r.bytes_read + r.bytes_written for r in rounds)
    info["client_raw_mbps"] = (moved / info["measured_raw_s"][0] / 1e6, "MB/s")
    for key in sorted({k for r in rounds for k in r.figures}):
        info[key] = (_mean([r.figures[key] for r in rounds]), "")
    for key in sorted({k for r in rounds for k in r.timings}):
        info[key] = (_median([r.timings[key] for r in rounds]), "s")
    info.update(layers.workload_figures(name, rounds))

    if trace:
        metrics = layers.per_layer(name, rounds, tracer, meter.factor())
    else:
        metrics = {
            "setup_s": _median([r.setup_s for r in rounds]),
            "client_mbps": moved / sum(r.measured_s for r in rounds) / 1e6,
            "write_amp": _mean([r.figures["write_amp"] for r in rounds]),
            "space_amp": _mean([r.figures["space_amp"] for r in rounds]),
            "peak_rss_mib": peak_mib - baseline_mib,
        }
        metrics = layers.declared(metrics, layers.END_TO_END)

    for key, (value, unit) in sorted(info.items()):
        print(f"# {name} {key} {value:.6g} {unit}".rstrip())
    for key, (value, unit) in metrics.items():
        print(f"{name} {key} {value:.6g} {unit}")
    if failed_checks:
        print(f"# {name} FAILED checks: {', '.join(failed_checks)}")
    errors = [r.first_error for r in rounds if r.first_error]
    if errors:
        print(f"# {name} first failed operation: {errors[0]}")
    if not checks_ok:
        print(f"# {name} FAILED self-test of the checks")
    return {
        "correct": correct,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0
    # every workload in its own process, one after the other
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
