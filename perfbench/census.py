"""Exact work counters, read from the program's public attributes.

A :class:`Census` wraps the constructors of the objects that carry the
program's counters -- ``Simulator`` (``events_processed``), ``Link``
(``packets_forwarded``, ``queue.dropped``), ``LossyPath``
(``packets_sent - packets_dropped``) and ``Tracer`` (``len``) -- and gives
each class a finalizer.  Every instance built while the census is open is
then counted exactly once: when it is garbage-collected, or at the next
:meth:`Census.harvest` if it is still alive.  Nothing runs per packet or
per event, so the census can stay on during timed passes.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter
from typing import Callable, Dict, List, Tuple

#: counter names a harvest reports, all exact integers.
COUNTERS = ("events", "link_pkts", "path_pkts", "queue_drops", "trace_records")

_COUNTED = "_perfbench_counted"


def _simulator(sim) -> Dict[str, int]:
    return {"events": sim.events_processed}


def _link(link) -> Dict[str, int]:
    return {"link_pkts": link.packets_forwarded, "queue_drops": link.queue.dropped}


def _lossy_path(path) -> Dict[str, int]:
    return {"path_pkts": path.packets_sent - path.packets_dropped}


def _tracer(tracer) -> Dict[str, int]:
    return {"trace_records": len(tracer)}


def packets_carried(counts: Dict[str, int]) -> int:
    """Packets carried: link forwards plus lossy-path deliveries."""
    return counts["link_pkts"] + counts["path_pkts"]


class Census:
    """Count what every Simulator, Link, LossyPath and Tracer did."""

    def __init__(self) -> None:
        from repro.net.link import Link
        from repro.net.path import LossyPath
        from repro.sim.engine import Simulator
        from repro.sim.trace import Tracer

        self._readers: List[Tuple[type, Callable]] = [
            (Simulator, _simulator),
            (Link, _link),
            (LossyPath, _lossy_path),
            (Tracer, _tracer),
        ]
        self._live: "weakref.WeakSet" = weakref.WeakSet()
        self._totals: Counter = Counter()
        self._saved: List[Tuple[type, Callable]] = []

    def _count(self, obj, reader: Callable) -> None:
        if not obj.__dict__.get(_COUNTED):
            obj.__dict__[_COUNTED] = True
            self._totals.update(reader(obj))

    def __enter__(self) -> "Census":
        for cls, reader in self._readers:
            if "__del__" in cls.__dict__:
                raise RuntimeError(f"{cls.__name__} already has a finalizer")
            original = cls.__init__
            self._saved.append((cls, original))

            def init(obj, *args, _original=original, **kwargs):
                _original(obj, *args, **kwargs)
                self._live.add(obj)

            def finalize(obj, _reader=reader):
                self._count(obj, _reader)

            cls.__init__ = init
            cls.__del__ = finalize
        return self

    def __exit__(self, *exc) -> None:
        for cls, original in self._saved:
            cls.__init__ = original
            del cls.__del__
        self._saved.clear()

    def harvest(self) -> Dict[str, int]:
        """Counts since the last harvest, including still-live objects."""
        gc.collect()
        for obj in list(self._live):
            for cls, reader in self._readers:
                if isinstance(obj, cls):
                    self._count(obj, reader)
                    break
            self._live.discard(obj)
        counts = {name: self._totals[name] for name in COUNTERS}
        self._totals.clear()
        return counts
