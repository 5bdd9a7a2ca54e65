"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own code, around the calls into
each layer of the package: the module-level names that ``harness`` and
``cli`` look up are swapped for timing wrappers while a traced unit runs,
and restored afterwards.  A span name is ``<layer>.<operation>``; the layer
is one of the package's module names.  Spans are single-threaded and
properly nested, so a span's self time is its duration minus the durations
of its direct children.
"""

from __future__ import annotations

import contextlib
import gc
from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np


class Tracer:
    """Parallel arrays of spans plus exact counters, kept until ``save``."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.gc_pause_ns = 0
        self.gc_collections = 0
        self._gc_started = 0
        # the method whose cell is running, so replay spans can be split by method
        self.context = ""
        # (procedure, records) pairs and the last procedure built, read after
        # each timed unit to fill the exact counters outside the timed region
        self.pending: list = []
        self.procedure = None
        self._arrays = None

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.names[self.name_id[index]]} closed out of order")

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def count_max(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    # -- garbage-collector pauses -----------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = perf_counter_ns()
        else:
            self.gc_pause_ns += perf_counter_ns() - self._gc_started
            self.gc_collections += 1

    @contextlib.contextmanager
    def gc_watch(self):
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)

    # -- reading the spans back -------------------------------------------

    def arrays(self):
        """(name ids, parents, durations in ns, self times in ns), cached."""
        if self._arrays is None or len(self._arrays[0]) != len(self.start):
            names = np.array(self.name_id, dtype=np.int32)
            parents = np.array(self.parent, dtype=np.int32)
            duration = np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)
            has_parent = parents >= 0
            child = np.bincount(
                parents[has_parent], weights=duration[has_parent], minlength=len(duration)
            )
            self._arrays = (names, parents, duration, duration - child)
        return self._arrays

    def durations_us(self, name: str) -> np.ndarray:
        nid = self._name_ids.get(name)
        if nid is None:
            return np.zeros(0)
        names, _, duration, _ = self.arrays()
        return duration[names == nid] / 1e3

    def self_us(self, name: str) -> np.ndarray:
        nid = self._name_ids.get(name)
        if nid is None:
            return np.zeros(0)
        names, _, _, own = self.arrays()
        return own[names == nid] / 1e3

    def per_parent_us(self, name: str, parent_name: str) -> np.ndarray:
        """Summed durations of ``name`` spans under each ``parent_name`` span."""
        nid = self._name_ids.get(name)
        pid = self._name_ids.get(parent_name)
        if nid is None or pid is None:
            return np.zeros(0)
        names, parents, duration, _ = self.arrays()
        mask = names == nid
        totals = np.bincount(parents[mask], weights=duration[mask], minlength=len(names))
        return totals[names == pid] / 1e3

    def layer_self_s(self) -> dict[str, float]:
        """Self time per layer (the span-name prefix), in seconds."""
        names, _, _, own = self.arrays()
        per_name = np.bincount(names, weights=own, minlength=len(self.names))
        totals: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + per_name[nid] / 1e9
        return totals

    def save(self, path: Path) -> None:
        names, parents, duration, own = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=names,
            parent=parents,
            start_ns=np.array(self.start, dtype=np.int64),
            duration_ns=duration,
            self_ns=own,
        )


@contextlib.contextmanager
def patched(module, wrappers: dict):
    """Replace each ``module.<name>`` by ``wrappers[name](original)`` for the
    duration of the block, then restore the originals.

    A name the module no longer defines is skipped, so a refactor that drops
    one leaves its span empty instead of breaking the traced run.
    """
    saved = {}
    try:
        for name, make in wrappers.items():
            if hasattr(module, name):
                saved[name] = getattr(module, name)
                setattr(module, name, make(saved[name]))
        yield
    finally:
        for name, original in saved.items():
            setattr(module, name, original)
