"""Per-layer attribution of a cProfile run.

A layer is a package or module of ``repro`` (see :data:`LAYERS`).  Self
time of a ``repro`` function is charged to the layer that owns its module.
Self time of stdlib, numpy and builtin functions is charged to the
``repro`` layer that called them: exactly, from cProfile's per-caller
self time, when the immediate caller is ``repro`` code, and in
proportion to per-caller cumulative time when the caller is itself
foreign (``json.dumps`` -> ``JSONEncoder.encode`` -> ``c_make_encoder``
from ``scenarios.cache`` lands on ``scenarios.cache``).  So a layer's self
time is the time spent inside its spans minus the spans of the layers it
called, and ``calls_in`` counts the calls that cross into it from another
layer.

Time no layer owns -- ``repro`` modules missing from the map, the
benchmark's own callbacks, and foreign code it called -- is reported as
``unattributed``.
"""

from __future__ import annotations

import os
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

#: every layer the traced run reports, in report order.
LAYERS = (
    "sim.engine",
    "sim.process",
    "sim.rng",
    "sim.trace",
    "net.link",
    "net.packet",
    "net.queues",
    "net.topology",
    "net.path",
    "net.monitor",
    "tcp",
    "core",
    "traffic",
    "scenarios.spec",
    "scenarios.builders",
    "scenarios.sweep",
    "scenarios.cache",
    "experiments",
    "analysis",
)

#: module -> layer, for the modules whose layer is not their package.
MODULE_LAYERS = {
    "repro": "experiments",
    "repro.sim": "sim.engine",
    "repro.sim.engine": "sim.engine",
    "repro.sim.process": "sim.process",
    "repro.sim.rng": "sim.rng",
    "repro.sim.trace": "sim.trace",
    "repro.net": "net.topology",
    "repro.net.link": "net.link",
    "repro.net.packet": "net.packet",
    "repro.net.queues": "net.queues",
    "repro.net.redmath": "net.queues",
    "repro.net.topology": "net.topology",
    "repro.net.dummynet": "net.topology",
    "repro.net.path": "net.path",
    "repro.net.lossmodels": "net.path",
    "repro.net.monitor": "net.monitor",
    "repro.scenarios": "scenarios.sweep",
    "repro.scenarios.spec": "scenarios.spec",
    "repro.scenarios.builders": "scenarios.builders",
    "repro.scenarios.sweep": "scenarios.sweep",
    "repro.scenarios.executors": "scenarios.sweep",
    "repro.scenarios.cache": "scenarios.cache",
    "repro.scenarios._fsio": "scenarios.cache",
    "repro.scenarios.faults": "scenarios.cache",
}

#: package -> layer, for packages that are one layer as a whole.
PACKAGE_LAYERS = {
    "repro.tcp": "tcp",
    "repro.core": "core",
    "repro.traffic": "traffic",
    "repro.experiments": "experiments",
    "repro.analysis": "analysis",
}

#: packages that are on no figure path: executing them is unattributed.
UNMEASURED = ("repro.analysis.audit",)

UNATTRIBUTED = "unattributed"
_UNKNOWN = {UNATTRIBUTED: 1.0}
_BENCH = "<benchmark>"

FuncKey = Tuple[str, int, str]

#: fixed-point passes over the foreign caller graph (converges in a few).
_MAX_PASSES = 50


def layer_of(module: str) -> Optional[str]:
    """The layer that owns ``module`` (a dotted ``repro`` name), or None."""
    if module.startswith(UNMEASURED):
        return None
    if module in MODULE_LAYERS:
        return MODULE_LAYERS[module]
    for package, layer in PACKAGE_LAYERS.items():
        if module == package or module.startswith(package + "."):
            return layer
    return None


@dataclass
class Attribution:
    """Per-layer self seconds and inbound call counts of one profile."""

    self_s: Dict[str, float] = field(default_factory=dict)
    calls_in: Dict[str, int] = field(default_factory=dict)
    unattributed_s: float = 0.0
    total_s: float = 0.0
    #: ``repro`` modules that executed but belong to no layer.
    unmapped: Set[str] = field(default_factory=set)


class _Owners:
    """Maps a profiled function to its ``repro`` module, or foreign/bench."""

    def __init__(self, src_root: str, bench_root: str) -> None:
        self.src_root = os.path.realpath(src_root) + os.sep
        self.bench_root = os.path.realpath(bench_root) + os.sep
        self._cache: Dict[str, Optional[str]] = {}

    def module(self, filename: str) -> Optional[str]:
        """Dotted module for repro files, _BENCH for ours, None if foreign."""
        if filename not in self._cache:
            path = os.path.realpath(filename) if filename[:1] not in "~<" else ""
            owner: Optional[str] = None
            if path.startswith(self.src_root + "repro" + os.sep):
                rel = path[len(self.src_root):-len(".py")].split(os.sep)
                if rel[-1] == "__init__":
                    rel.pop()
                owner = ".".join(rel)
            elif path.startswith(self.bench_root):
                owner = _BENCH
            self._cache[filename] = owner
        return self._cache[filename]


def attribute(stats: Dict, src_root: str, bench_root: str) -> Attribution:
    """Aggregate ``pstats.Stats(profile).stats`` into layers."""
    owners = _Owners(src_root, bench_root)
    out = Attribution(
        self_s={layer: 0.0 for layer in LAYERS},
        calls_in={layer: 0 for layer in LAYERS},
    )

    def owner_layer(func: FuncKey) -> Optional[str]:
        """The owning layer of repro/bench code; None for foreign code."""
        module = owners.module(func[0])
        if module is None:
            return None
        if module == _BENCH:
            return UNATTRIBUTED
        layer = layer_of(module)
        if layer is None:
            out.unmapped.add(module)
            return UNATTRIBUTED
        return layer

    # Calling-layer shares of every foreign function, by fixed-point
    # iteration over the caller graph (foreign frames can recurse through
    # each other, e.g. copy.deepcopy and copy._deepcopy_dict).
    foreign = [func for func in stats if owner_layer(func) is None]
    context: Dict[FuncKey, Dict[str, float]] = {func: {} for func in foreign}

    def _context_of(caller: FuncKey, unknown=_UNKNOWN) -> Dict[str, float]:
        layer = owner_layer(caller)
        if layer is not None:
            return {layer: 1.0}
        return context.get(caller) or unknown

    for _ in range(_MAX_PASSES):
        changed = 0.0
        for func in foreign:
            _, _, _, cumulative, callers = stats[func]
            shares: Dict[str, float] = defaultdict(float)
            covered = 0.0
            for caller, (_, _, _, caller_ct) in callers.items():
                if caller == func:
                    continue
                covered += caller_ct
                for layer, share in _context_of(caller, {}).items():
                    shares[layer] += caller_ct * share
            # Calls from outside the profiled region come from the benchmark.
            shares[UNATTRIBUTED] += max(0.0, cumulative - covered)
            total = sum(shares.values())
            if total <= 0:
                continue
            new = {layer: value / total for layer, value in shares.items()}
            old = context[func]
            for layer in new.keys() | old.keys():
                changed = max(changed, abs(new.get(layer, 0.0) - old.get(layer, 0.0)))
            context[func] = new
        if changed < 1e-9:
            break

    def main_layer(caller: FuncKey) -> str:
        shares = _context_of(caller)
        return max(shares, key=lambda layer: (shares[layer], layer))

    def charge(layer: str, seconds: float) -> None:
        out.total_s += seconds
        if layer == UNATTRIBUTED:
            out.unattributed_s += seconds
        else:
            out.self_s[layer] += seconds

    for func, (_, calls, tottime, _, callers) in stats.items():
        layer = owner_layer(func)
        if layer is not None:
            charge(layer, tottime)
            if layer == UNATTRIBUTED:
                continue
            from_callers = 0
            for caller, (caller_calls, _, _, _) in callers.items():
                from_callers += caller_calls
                if main_layer(caller) != layer:
                    out.calls_in[layer] += caller_calls
            out.calls_in[layer] += max(0, calls - from_callers)
            continue
        # Foreign code: split its self time over the calling layers.
        covered = 0.0
        for caller, (_, _, caller_tt, _) in callers.items():
            covered += caller_tt
            for ctx_layer, share in _context_of(caller).items():
                charge(ctx_layer, caller_tt * share)
        charge(UNATTRIBUTED, max(0.0, tottime - covered))
    return out


def function_totals(stats: Dict, filename_suffix: str, name: str) -> Tuple[int, float]:
    """(calls, self seconds) of the profiled functions called ``name``
    whose file ends with ``filename_suffix`` (builtins live in ``~``)."""
    calls, seconds = 0, 0.0
    for (filename, _, funcname), (_, ncalls, tottime, _, _) in stats.items():
        if funcname == name and filename.endswith(filename_suffix):
            calls += ncalls
            seconds += tottime
    return calls, seconds
