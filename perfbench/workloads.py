"""The benchmark's workloads: closed loops over the program's entry points.

Each workload runs in this one process, serially: it issues the next
figure, cell or simulated second only after the previous one finished,
and starts no worker processes or threads.  A workload runs in *cycles*;
a cycle is one cold pass (nothing cached) followed by warm pass(es) of
the same operations.  Every pass records its time, the cells it finished
and how long each took, the exact counters of everything it built (see
:mod:`census`), and a digest of every operation's output, so the runner
can check that cold, warm and traced passes agree.

The workloads reach the program only through its public entry points:
``repro.experiments.runner.EXPERIMENTS``, ``repro.scenarios``'
``build_mixed_dumbbell`` with ``Simulator.run``, and ``SweepRunner`` with
its ``ResultCache``.
"""

from __future__ import annotations

import hashlib
import io
import json
import marshal
import math
import re
import shutil
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from census import Census
from reference import SpeedLog

#: figures left out of ``figures_quick``: fig06's --quick cold pass alone
#: (~28 s, half of the whole figure set) overruns one run's time box.  Its
#: cells are ``mixed_dumbbell`` runs, the packet path dumbbell_traced times.
FIGURES_EXCLUDED = ("fig06",)
#: figures the traced run also leaves out: under the profiler (~3.5x) their
#: cold passes would overrun the time box.
TRACE_FIGURES_EXCLUDED = FIGURES_EXCLUDED + ("fig09", "fig11", "fig14")
#: figure output tokens that mean a non-finite headline value.
_NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


def sha256(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def hash_trace(tracer, batch: int = 1 << 16) -> bytes:
    """sha256 of every trace record, hashed in batches to bound memory."""
    digest = hashlib.sha256()
    rows = []
    for r in tracer:
        rows.append((r.time, r.category, r.source, r.value, r.meta))
        if len(rows) == batch:
            digest.update(marshal.dumps(rows))
            rows.clear()
    digest.update(marshal.dumps(rows))
    return digest.digest()


@dataclass
class Pass:
    """One cold or warm pass over a workload's operations."""

    kind: str
    #: identity of the inputs: passes with equal keys must agree on digest.
    key: str
    #: host seconds inside the program's calls.
    wall_s: float = 0.0
    #: the same, at the reference host speed (see :mod:`reference`).
    norm_s: float = 0.0
    #: milliseconds of each finished cell at the reference host speed.
    cell_ms: List[float] = field(default_factory=list)
    #: cells served from the result cache / executed.
    hits: int = 0
    misses: int = 0
    counts: Dict[str, int] = field(default_factory=dict)
    #: operation id -> digest of its output ("" when it raised).
    outputs: Dict[str, str] = field(default_factory=dict)
    #: operations that raised or produced a non-finite headline value.
    failed: List[str] = field(default_factory=list)
    #: the workload's result digest for this pass.
    digest: str = ""

    @property
    def cells(self) -> int:
        return len(self.cell_ms)


class Meter:
    """Times one pass: its calls into the program and the cells they finish.

    With a ``speed`` log (sampling on its timer), the reference kernel's
    runs are cut out of every call and cell and the rest is scaled to the
    reference host speed; with a ``profiler``, exactly the program's calls
    are profiled.  A Meter is also the sweep progress callback.
    """

    def __init__(
        self, record: Pass, speed: Optional[SpeedLog], profiler=None
    ) -> None:
        self.record = record
        self.speed = speed
        self.profiler = profiler
        self._calls: List[Tuple[float, float]] = []
        self._cells: List[Tuple[float, float]] = []

    @contextmanager
    def call(self) -> Iterator[None]:
        start = self._last = time.perf_counter()
        if self.profiler is not None:
            self.profiler.enable()
        try:
            yield
        finally:
            if self.profiler is not None:
                self.profiler.disable()
            self._calls.append((start, time.perf_counter()))

    def cell_done(self) -> None:
        now = time.perf_counter()
        self._cells.append((self._last, now))
        self._last = now

    def __call__(self, done: int, total: int, cell) -> None:
        if cell.from_cache:
            self.record.hits += 1
        else:
            self.record.misses += 1
        self.cell_done()

    def close(self) -> Pass:
        """Total the calls and cells, raw and at the reference host speed."""
        if self.speed is not None:
            measure = self.speed.measure
        else:
            def measure(start: float, end: float) -> Tuple[float, float]:
                return end - start, end - start
        record = self.record
        calls = [measure(start, end) for start, end in self._calls]
        record.wall_s = sum(raw for raw, _ in calls)
        record.norm_s = sum(scaled for _, scaled in calls)
        record.cell_ms = [measure(start, end)[1] * 1e3 for start, end in self._cells]
        return record


class Workload:
    """A named, seeded workload; subclasses define the passes.

    ``speed`` is the run's reference log (see :mod:`reference`), sampling
    while the timed loop runs; it stays None in traced runs, whose passes
    are timed raw.
    """

    name = ""

    def __init__(self, seed: int, workdir: Path, scale: str = "full") -> None:
        self.seed = seed
        self.workdir = Path(workdir)
        self.scale = scale
        self.speed: Optional[SpeedLog] = None
        self._dirs = 0

    def _fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        return self.workdir / f"{label}-{self._dirs}"

    def prepare(self) -> None:
        """Import the program and build the inputs (what setup_s times)."""
        raise NotImplementedError

    def cycle(self, census: Census, deadline: float) -> List[Pass]:
        """One cold pass and its warm pass(es), untraced."""
        raise NotImplementedError

    def trace_unit(self, census: Census, profiler=None) -> List[Pass]:
        """The fixed work the traced run profiles (and times untraced)."""
        raise NotImplementedError


# ------------------------------------------------------------ figures_quick


class FiguresQuick(Workload):
    """Every ``tfrc-experiment`` figure at ``--quick``, serially, with a cache.

    The figures carry the paper's fixed seeds and run in a fixed order
    (the order moves the collector's schedule and peak RSS), so
    ``--seed`` does not change this workload's inputs.  The cold pass
    writes a fresh cache; warm passes rerun every figure from it until
    the run's time is up.
    """

    name = "figures_quick"
    min_warm = 3

    def prepare(self) -> None:
        import importlib
        import pkgutil

        import repro.experiments
        from repro.experiments.runner import EXPERIMENTS

        # The figure functions import their modules lazily; import them all
        # here so the cold pass times simulation, not imports.
        for info in pkgutil.iter_modules(repro.experiments.__path__):
            importlib.import_module(f"repro.experiments.{info.name}")
        self.experiments = EXPERIMENTS
        if self.scale == "tiny":
            self.figures = self.trace_figures = ["fig03", "fig15", "fig20"]
        else:
            names = sorted(EXPERIMENTS)
            self.figures = [n for n in names if n not in FIGURES_EXCLUDED]
            self.trace_figures = [n for n in names if n not in TRACE_FIGURES_EXCLUDED]

    def figure_pass(
        self, kind: str, figures: List[str], cache: Path, census: Census,
        profiler=None,
    ) -> Pass:
        record = Pass(kind, ",".join(figures))
        meter = Meter(record, self.speed, profiler)
        for name in figures:
            out = io.StringIO()
            try:
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    with meter.call():
                        self.experiments[name](
                            True, False, parallel=1, cache_dir=str(cache),
                            progress=meter,
                        )
            except Exception as exc:  # one failed figure must not end the run
                record.failed.append(f"{name}: {type(exc).__name__}: {exc}")
                record.outputs[name] = ""
                continue
            text = out.getvalue()
            if _NON_FINITE.search(text):
                record.failed.append(f"{name}: non-finite headline value")
            record.outputs[name] = sha256(text.encode())
        record.counts = census.harvest()
        record.digest = sha256(
            "".join(f"{k}={v}\n" for k, v in sorted(record.outputs.items())).encode()
        )
        return meter.close()

    def cycle(self, census: Census, deadline: float) -> List[Pass]:
        cache = self._fresh_dir("figures-cache")
        passes = [self.figure_pass("cold", self.figures, cache, census)]
        while len(passes) <= self.min_warm or time.perf_counter() < deadline:
            passes.append(self.figure_pass("warm", self.figures, cache, census))
        shutil.rmtree(cache, ignore_errors=True)
        return passes

    def trace_unit(self, census: Census, profiler=None) -> List[Pass]:
        cache = self._fresh_dir("figures-cache")
        passes = [
            self.figure_pass(kind, self.trace_figures, cache, census, profiler)
            for kind in ("cold", "warm")
        ]
        shutil.rmtree(cache, ignore_errors=True)
        return passes


# ---------------------------------------------------------- dumbbell_traced


class DumbbellTraced(Workload):
    """A long traced 8 TFRC + 8 SACK-TCP RED dumbbell at 15 Mb/s.

    ``tfrc-bench``'s ``dumbbell_steady`` set-up: a ``Tracer`` and
    queue-sampling ``LinkMonitor`` s on both links.  Cycle ``i`` seeds the
    dumbbell (RTTs, start times, RED) with ``--seed * 1000 + i``, so a run
    measures several draws of the inputs.  The simulation advances one
    simulated second at a time, so a *cell* here is one simulated second.
    There is no cache: the warm pass re-simulates the same seed and must
    reproduce the cold pass's counters and trace exactly.
    """

    name = "dumbbell_traced"

    def prepare(self) -> None:
        from repro.net.monitor import LinkMonitor
        from repro.scenarios import build_mixed_dumbbell
        from repro.sim.trace import Tracer

        self.build = build_mixed_dumbbell
        self.link_monitor = LinkMonitor
        self.tracer_cls = Tracer
        self.duration = 5 if self.scale == "tiny" else 30
        self._cycles = 0

    def dumbbell_pass(
        self, kind: str, seed: int, census: Census, profiler=None
    ) -> Pass:
        record = Pass(kind, f"seed {seed}")
        op = f"dumbbell-seed{seed}"
        meter = Meter(record, self.speed, profiler)
        try:
            with meter.call():
                tracer = self.tracer_cls()
                result = self.build(
                    n_tfrc=8, n_tcp=8, bandwidth_bps=15e6, queue_type="red",
                    seed=seed, tracer=tracer, sample_queue=True,
                )
                self.link_monitor(
                    result.sim, result.dumbbell.reverse_link, tracer=tracer,
                    sample_queue=True,
                )
                for second in range(1, self.duration + 1):
                    result.sim.run(until=float(second))
                    meter.cell_done()
        except Exception as exc:
            record.failed.append(f"{op}: {type(exc).__name__}: {exc}")
            record.outputs[op] = ""
            record.counts = census.harvest()
            return meter.close()
        utilization = result.dumbbell.forward_link.utilization_seconds
        if not math.isfinite(utilization) or utilization <= 0:
            record.failed.append(f"{op}: bad forward-link utilization {utilization}")
        trace_digest = hash_trace(tracer)
        del result, tracer
        record.counts = census.harvest()
        record.digest = record.outputs[op] = sha256(
            json.dumps(record.counts, sort_keys=True).encode() + trace_digest
        )
        return meter.close()

    def cycle(self, census: Census, deadline: float) -> List[Pass]:
        seed = self.seed * 1000 + self._cycles
        self._cycles += 1
        return [self.dumbbell_pass(kind, seed, census) for kind in ("cold", "warm")]

    def trace_unit(self, census: Census, profiler=None) -> List[Pass]:
        return [self.dumbbell_pass("cold", self.seed * 1000, census, profiler)]


# --------------------------------------------------------------- seed_sweep


class SeedSweep(Workload):
    """A replication sweep: loss rates x replicas of ``tfrc_lossy_path``.

    ``seed_mode="derived"`` gives every replica its own seed, derived from
    ``--seed``; the serial executor runs the cells against a fresh
    ``ResultCache`` each cycle.  The cold pass simulates and stores every
    cell, the warm pass must serve all of them from the cache.
    """

    name = "seed_sweep"
    loss_rates = (0.005, 0.01, 0.02, 0.05)
    cell_duration = 4.0

    def prepare(self) -> None:
        from repro.scenarios import ScenarioSpec, SweepRunner

        self.runner_cls = SweepRunner
        replicas = 5 if self.scale == "tiny" else 250
        self.base = ScenarioSpec(
            scenario="tfrc_lossy_path",
            loss={"model": "bernoulli", "probability": self.loss_rates[0]},
            seed=self.seed,
            duration=self.cell_duration,
        )
        self.grid = {
            "loss.probability": list(self.loss_rates),
            "extra.replica": list(range(replicas)),
        }

    def sweep_pass(
        self, kind: str, cache: Path, census: Census, profiler=None
    ) -> Pass:
        record = Pass(kind, f"seed {self.seed}")
        meter = Meter(record, self.speed, profiler)
        runner = self.runner_cls(
            self.base, self.grid, cache_dir=str(cache), progress=meter,
            seed_mode="derived", executor="serial",
        )
        try:
            with meter.call():
                result = runner.run()
        except Exception as exc:  # SweepCellError carries the failing cell
            record.failed.append(f"sweep: {type(exc).__name__}: {exc}")
            record.counts = census.harvest()
            return meter.close()
        for cell in result.cells:
            op = f"cell-{cell.index}"
            value = (cell.result or {}).get("throughput_bps")
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                record.failed.append(f"{op}: non-finite throughput {value!r}")
            record.outputs[op] = sha256(
                json.dumps(cell.result, sort_keys=True).encode()
            )
        if kind == "warm" and result.cache_hits != len(result.cells):
            record.failed.append(
                f"warm pass: {result.cache_hits}/{len(result.cells)} cache hits"
            )
        record.counts = census.harvest()
        entries = sorted(cache.glob("*.json"))
        record.digest = sha256(
            b"".join(p.name.encode() + b"\0" + p.read_bytes() for p in entries)
        )
        return meter.close()

    def _cycle(self, census: Census, profiler=None) -> List[Pass]:
        cache = self._fresh_dir("sweep-cache")
        try:
            return [
                self.sweep_pass(kind, cache, census, profiler)
                for kind in ("cold", "warm")
            ]
        finally:
            shutil.rmtree(cache, ignore_errors=True)

    def cycle(self, census: Census, deadline: float) -> List[Pass]:
        return self._cycle(census)

    def trace_unit(self, census: Census, profiler=None) -> List[Pass]:
        return self._cycle(census, profiler)


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    cls.name: cls for cls in (FiguresQuick, DumbbellTraced, SeedSweep)
}


def check_passes(passes: List[Pass]) -> List[str]:
    """Failures across passes: an operation whose output differs from its
    first output in this run fails again in every pass that differs."""
    problems: List[str] = []
    reference: Dict[str, str] = {}
    for index, record in enumerate(passes):
        for op, digest in record.outputs.items():
            expected = reference.setdefault(op, digest)
            if digest != expected:
                problems.append(f"{record.kind} pass {index}: {op} output differs")
    return problems


def result_digest(passes: List[Pass]) -> Optional[str]:
    """The first inputs' digest; "MISMATCH" if passes over equal inputs
    disagree, None if no pass produced one."""
    digests: Dict[str, set] = {}
    for record in passes:
        if record.digest:
            digests.setdefault(record.key, set()).add(record.digest)
    if any(len(found) > 1 for found in digests.values()):
        return "MISMATCH"
    first = next(iter(digests.values()), None)
    return next(iter(first)) if first else None
