"""Self-tests of the benchmark at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py

Every workload must print every metric ``BENCHMARK.json`` names, with its
unit, and 0 failed operations; the traced run's counters must repeat
exactly; the layer map must cover every ``repro`` module the workloads
execute; and the benchmark must refuse to run where it cannot measure.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: the exact counters of the traced run, which must repeat run to run.
EXACT = (
    "sim.engine.events", "sim.trace.records", "net.link.pkts",
    "net.queues.drops", "scenarios.cache.hits", "scenarios.cache.misses",
    "scenarios.cache.puts", "scenarios.cache.fsyncs",
)

sys.path.insert(0, str(BENCH_DIR))


def run_bench(workload, trace, seed=3, cwd=ROOT, env=None):
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", "2", "--trace", str(trace),
        "--scale", "tiny",
    ]
    return subprocess.run(
        command, cwd=cwd, capture_output=True, text=True, timeout=300,
        env=env,
    )


def result_of(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    assert not [line for line in lines if line.startswith("# FAILED")], done.stdout
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result, lines


def expected_units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_benchmark_json_follows_the_schema():
    assert sorted(SPEC) == sorted(
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    )
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    names = []
    for workload in SPEC["workloads"]:
        assert sorted(workload) == ["name", "why"]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in SPEC["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in SPEC["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"]
        names.append(metric["name"])
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]


def test_runner_metric_tables_match_benchmark_json():
    import run

    assert run.END_TO_END == expected_units("end_to_end")
    assert run.per_layer_units() == expected_units("per_layer")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_prints_every_end_to_end_metric(workload):
    result, lines = result_of(run_bench(workload, trace=0))
    units = expected_units("end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name
        assert any(line.startswith(f"{name} = ") for line in lines)
    assert any(line.startswith(f"# digest {workload} sha256:") for line in lines)
    env = json.loads(next(l for l in lines if l.startswith("# env "))[6:])
    assert sorted(env) == ["cache_fs", "nproc", "numpy", "python"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_attributes_layers_and_repeats_counts(workload):
    first, _ = result_of(run_bench(workload, trace=1))
    second, _ = result_of(run_bench(workload, trace=1))
    units = expected_units("per_layer")
    assert {k: v["unit"] for k, v in first["metrics"].items()} == units
    values = {k: v["value"] for k, v in first["metrics"].items()}
    again = {k: v["value"] for k, v in second["metrics"].items()}
    for name in EXACT:
        assert values[name] == again[name], name
    layer_s = sum(v for k, v in values.items() if k.endswith(".self_s"))
    assert values["unattributed.self_s"] < 0.05 * layer_s
    assert values["trace_overhead"] > 1.0
    if workload == "dumbbell_traced":
        assert values["sim.trace.records"] > 0 and values["net.queues.drops"] > 0
        assert values["scenarios.cache.self_s"] == 0.0
    else:
        assert values["scenarios.cache.hits"] > 0
        assert values["scenarios.cache.fsyncs"] > 0


def test_layer_map():
    from layers import LAYERS, layer_of

    assert layer_of("repro.net.redmath") == "net.queues"
    assert layer_of("repro.tcp.sack") == "tcp"
    assert layer_of("repro.scenarios._fsio") == "scenarios.cache"
    assert layer_of("repro.analysis.stats") == "analysis"
    for unmeasured in ("repro.rt.udp", "repro.analysis.audit.engine",
                       "repro.scenarios.vector", "repro.sim.vector_kernel"):
        assert layer_of(unmeasured) is None
    assert len(set(LAYERS)) == len(LAYERS)


def test_refuses_under_a_fault_plan():
    env = dict(os.environ, TFRC_FAULT_PLAN="plan.json")
    done = run_bench("seed_sweep", trace=0, env=env)
    assert done.returncode != 0
    assert "fault-injection" in done.stderr and done.stdout == ""


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = run_bench("figures_quick", trace=0, cwd=tmp_path)
    assert done.returncode != 0 and done.stdout == ""
