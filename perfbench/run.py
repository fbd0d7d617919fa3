"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload figures_quick --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
(several fresh-interpreter set-ups, median), then cycles of a cold pass and
its warm pass(es) until ``--seconds`` are used.  ``--trace 1`` runs the
workload's fixed trace unit twice, untraced and then under cProfile, and
reports the per-layer metrics, the exact counters and the tracing
overhead.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Exits non-zero without a result when the program's sources are missing
or a fault-injection plan is active.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import pstats
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent

#: end-to-end metrics (--trace 0): name -> unit.
END_TO_END = {
    "wall_s": "s",
    "warm_wall_s": "s",
    "sim_pkts_per_s": "1/s",
    "cells_per_s": "1/s",
    "warm_cells_per_s": "1/s",
    "cell_p50_ms": "ms",
    "cell_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: fresh-interpreter set-ups per run; setup_s is their median.
SETUP_SAMPLES = 5

#: exact counters of the traced run: name -> unit.
TRACE_COUNTERS = {
    "sim.engine.events": "count",
    "sim.engine.events_per_pkt": "ratio",
    "sim.trace.records": "count",
    "net.link.pkts": "count",
    "net.queues.drops": "count",
    "scenarios.cache.hits": "count",
    "scenarios.cache.misses": "count",
    "scenarios.cache.puts": "count",
    "scenarios.cache.fsyncs": "count",
    "scenarios.cache.fsync_s": "s",
    "scenarios.cache.hit_ratio": "ratio",
    "unattributed.self_s": "s",
    "trace_overhead": "ratio",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric (--trace 1): name -> unit."""
    from layers import LAYERS

    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls_in"] = "count"
    units.update(TRACE_COUNTERS)
    return units


class Refused(Exception):
    """The benchmark cannot run here; no result is printed."""


# ------------------------------------------------------------- environment


_FS_MAGIC = {
    0xEF53: "ext4",
    0x01021994: "tmpfs",
    0x794C7630: "overlayfs",
    0x58465342: "xfs",
    0x9123683E: "btrfs",
    0x6969: "nfs",
    0x65735546: "fuse",
}


def fs_type(path: Path) -> str:
    """The filesystem type of ``path`` (statfs magic), or 'unknown'."""
    import ctypes

    try:
        libc = ctypes.CDLL(None, use_errno=True)
        statfs = libc.statfs
    except (OSError, AttributeError):
        return "unknown"
    statfs.argtypes = (ctypes.c_char_p, ctypes.c_void_p)
    statfs.restype = ctypes.c_int
    buf = ctypes.create_string_buffer(256)  # larger than struct statfs
    if statfs(os.fsencode(str(path)), buf) != 0:
        return "unknown"
    magic = ctypes.c_ulong.from_buffer(buf).value & 0xFFFFFFFF
    return _FS_MAGIC.get(magic, hex(magic))


def environment(workdir: Path) -> Dict[str, object]:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cache_fs": fs_type(workdir),
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------- helpers


def check_preconditions(root: Path) -> Path:
    """The program's source root; raises Refused when it cannot run."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise Refused(f"no program sources at {src / 'repro'}; run from a checkout root")
    plan_var = "TFRC_FAULT_PLAN"
    if os.environ.get(plan_var):
        raise Refused(f"a fault-injection plan is active ({plan_var} is set)")
    sys.path.insert(0, str(src))
    from repro.scenarios import faults

    if os.environ.get(faults.ENV_VAR) or faults.active() is not None:
        raise Refused(f"a fault-injection plan is active ({faults.ENV_VAR})")
    return src


def measure_setup(
    args, root: Path, workdir: Path, speed
) -> Tuple[float, List[str]]:
    """Median fresh-interpreter set-up time at the reference host speed,
    and any failures."""
    command = [
        sys.executable, str(BENCH_DIR / "setup_probe.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--scale", args.scale, "--workdir", str(workdir),
    ]
    failures, windows = [], []
    for _ in range(SETUP_SAMPLES):
        speed.sample()
        started = time.perf_counter()
        done = subprocess.run(
            command, cwd=root, capture_output=True, text=True, timeout=120,
        )
        windows.append((started, time.perf_counter()))
        if done.returncode != 0:
            failures.append(f"set-up exited {done.returncode}: {done.stderr[-400:]}")
    speed.sample()
    samples = [(end - start) * speed.scale(start, end) for start, end in windows]
    return statistics.median(samples), failures


def percentile(values: List[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def sum_counts(passes) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for record in passes:
        for name, value in record.counts.items():
            total[name] = total.get(name, 0) + value
    return total


def failures_of(passes) -> Tuple[int, int, List[str]]:
    """(attempted ops, failed ops, messages) over a list of passes."""
    from workloads import check_passes, result_digest

    messages = [msg for record in passes for msg in record.failed]
    messages += check_passes(passes)
    if result_digest(passes) == "MISMATCH":
        messages.append("passes over the same inputs disagree on the result digest")
    attempted = sum(len(record.outputs) or 1 for record in passes)
    return attempted, len(messages), messages


# ------------------------------------------------------------------ timed


def run_timed(args, workload, census, root: Path, workdir: Path):
    """End-to-end metrics, tracing off.

    Returns (metrics, sample counts, passes, failure notes, info lines).
    """
    from census import packets_carried
    from reference import SpeedLog

    workload.speed = SpeedLog()
    setup_s, setup_failures = measure_setup(args, root, workdir, workload.speed)
    workload.prepare()
    passes = []
    with census:
        workload.speed.start()
        try:
            deadline = time.perf_counter() + args.seconds
            while True:
                started = time.perf_counter()
                passes += workload.cycle(census, deadline)
                now = time.perf_counter()
                if now + (now - started) > deadline:  # the next would overrun
                    break
        finally:
            workload.speed.stop()
    cold = [p for p in passes if p.kind == "cold"]
    warm = [p for p in passes if p.kind == "warm"]
    cold_cells = [ms for p in cold for ms in p.cell_ms]
    metrics = {
        "wall_s": statistics.median(p.norm_s for p in cold),
        "warm_wall_s": statistics.median(p.norm_s for p in warm),
        "sim_pkts_per_s": statistics.median(
            packets_carried(p.counts) / p.norm_s for p in cold
        ),
        "cells_per_s": statistics.median(p.cells / p.norm_s for p in cold),
        "warm_cells_per_s": statistics.median(p.cells / p.norm_s for p in warm),
        "cell_p50_ms": statistics.median(cold_cells),
        "cell_p90_ms": percentile(cold_cells, 90),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = [
        f"cell_p99_ms {percentile(cold_cells, 99):.6g} ms (n={len(cold_cells)}; "
        "informational: fewer than ten cells lie beyond it on two workloads)",
        f"host wall_s {statistics.median(p.wall_s for p in cold):.6g} s, "
        f"warm_wall_s {statistics.median(p.wall_s for p in warm):.6g} s "
        f"(unscaled; {len(workload.speed.samples)} reference samples, "
        f"median {statistics.median(workload.speed.samples) * 1e3:.4g} ms)",
    ]
    samples = {
        "wall_s": len(cold), "warm_wall_s": len(warm),
        "sim_pkts_per_s": len(cold), "cells_per_s": len(cold),
        "warm_cells_per_s": len(warm), "cell_p50_ms": len(cold_cells),
        "cell_p90_ms": len(cold_cells), "setup_s": SETUP_SAMPLES,
        "peak_rss_mb": 1,
    }
    return metrics, samples, passes, setup_failures, extra


# ----------------------------------------------------------------- traced


def run_traced(args, workload, census, src: Path):
    """Per-layer metrics from one profiled trace unit; returns the same
    tuple shape as :func:`run_timed`."""
    from census import packets_carried
    from layers import LAYERS, attribute, function_totals
    from reference import SpeedLog

    workload.prepare()
    profiler = cProfile.Profile()
    speed = SpeedLog()
    unit_s = []  # each unit's program seconds at the reference host speed
    with census:
        units = []
        for active in (None, profiler):
            speed.sample()
            started = time.perf_counter()
            units.append(workload.trace_unit(census, active))
            ended = time.perf_counter()
            speed.sample()
            wall = sum(p.wall_s for p in units[-1])
            unit_s.append(wall * speed.scale(started, ended))
    untraced, traced = units
    stats = pstats.Stats(profiler).stats
    found = attribute(stats, str(src), str(BENCH_DIR))
    notes = []
    counts = sum_counts(traced)
    if counts != sum_counts(untraced):
        notes.append(f"counters differ: untraced {sum_counts(untraced)} traced {counts}")
    reference = {p.kind: p.digest for p in untraced}
    for record in traced:
        if record.digest != reference.get(record.kind):
            notes.append(f"traced {record.kind} pass digest differs from untraced")
    hits = sum(p.hits for p in traced)
    misses = sum(p.misses for p in traced)
    puts, _ = function_totals(stats, "scenarios/cache.py", "put")
    fsyncs, fsync_s = function_totals(stats, "~", "<built-in method posix.fsync>")
    pkts = packets_carried(counts)
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = found.self_s[layer]
        metrics[f"{layer}.calls_in"] = found.calls_in[layer]
    metrics.update({
        "sim.engine.events": counts["events"],
        "sim.engine.events_per_pkt": counts["events"] / pkts if pkts else 0.0,
        "sim.trace.records": counts["trace_records"],
        "net.link.pkts": counts["link_pkts"],
        "net.queues.drops": counts["queue_drops"],
        "scenarios.cache.hits": hits,
        "scenarios.cache.misses": misses,
        "scenarios.cache.puts": puts,
        "scenarios.cache.fsyncs": fsyncs,
        "scenarios.cache.fsync_s": fsync_s,
        "scenarios.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "unattributed.self_s": found.unattributed_s,
        "trace_overhead": unit_s[1] / unit_s[0],
    })
    if found.unmapped:
        notes.append(f"repro modules outside the layer map: {sorted(found.unmapped)}")
    samples = {name: 1 for name in metrics}
    extra = [f"host seconds of the trace unit: untraced {sum(p.wall_s for p in untraced):.6g}, "
             f"traced {sum(p.wall_s for p in traced):.6g} (unscaled)"]
    return metrics, samples, untraced + traced, notes, extra


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="'tiny' shrinks every workload for the benchmark's self-tests",
    )
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        src = check_preconditions(root)
    except Refused as exc:
        print(f"perfbench: refusing to run: {exc}", file=sys.stderr)
        return 2
    from census import Census
    from workloads import WORKLOADS, result_digest

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir = root / ".perfbench-work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, args.scale)
        env = environment(workdir)
        census = Census()
        if args.trace:
            metrics, samples, passes, notes, extra = run_traced(
                args, workload, census, src
            )
            units = per_layer_units()
        else:
            metrics, samples, passes, notes, extra = run_timed(
                args, workload, census, root, workdir
            )
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it is gone already
    attempted, failed, messages = failures_of(passes)
    failed += len(notes)
    messages += notes
    print(f"# workload {args.workload} seed={args.seed} trace={args.trace} "
          f"scale={args.scale}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# digest {args.workload} {result_digest(passes)}")
    for line in extra:
        print(f"# {line}")
    for message in messages:
        print(f"# FAILED {message}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit} (n={samples[name]})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
