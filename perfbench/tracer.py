"""Span tracer for the traced benchmark run.

The tracer times calls into each layer's public entry points by wrapping
the methods from outside the program (nothing under ``src/`` knows it
exists).  Every call becomes one span: name, start, end, parent span and
the id of the sweep point it belongs to.  Spans live in flat arrays in
memory while the sweep runs and are written out as JSONL afterwards.

A layer's self time is the time its spans cover minus the time their
direct child spans cover.  Layers are named after ``src/repro`` modules.
Besides spans, a few wrappers tally page counts from the call's
arguments or return value, so ratios such as pages per hypercall are
measured at the boundary where the work happens.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import itertools
import time
from array import array
from collections import Counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: (tally name, function of (args, kwargs, return value) -> count).
Tally = Tuple[str, Callable[[tuple, dict, Any], int]]


def _pages_arg(index: int, keyword: str) -> Callable[[tuple, dict, Any], int]:
    def count(args: tuple, kwargs: dict, _out: Any) -> int:
        return args[index] if len(args) > index else kwargs[keyword]

    return count


def _one(_args: tuple, _kwargs: dict, _out: Any) -> int:
    return 1


def _batch_pages(args: tuple, kwargs: dict, _out: Any) -> int:
    ops = args[3] if len(args) > 3 else kwargs["ops"]
    return len(ops)


def _planned_pages(args: tuple, _kwargs: dict, out: Any) -> int:
    # A declined plan (None) is re-issued through tmem_batch, which
    # counts the pages itself.
    return 0 if out is None else len(args[3]) + len(args[5])


def _truthy(_args: tuple, _kwargs: dict, out: Any) -> int:
    return 1 if out else 0


def layer_entry_points() -> List[Tuple[type, str, str, Optional[Tally]]]:
    """(class, method, layer, tally) for every wrapped entry point.

    The statistics sampler's private ``_sample`` is included because it
    is the VIRQ tick the engine calls every sampling interval;
    ``sample_now`` alone runs once per node at shutdown.
    ``InterNodeChannel.note_transfer`` is included because an uncontended
    interconnect accounts every remote page through it, not ``reserve``.
    """
    from repro.channels.internode import InterNodeChannel
    from repro.channels.netlink import NetlinkChannel
    from repro.core import coordinator, policy
    from repro.core.manager import MemoryManager
    from repro.devices.disk import VirtualDisk
    from repro.experiments.store import ResultStore
    from repro.guest.kernel import GuestKernel
    from repro.guest.swap import SwapArea
    from repro.guest.tkm import PrivilegedTkm
    from repro.hypervisor.hypercalls import HypercallInterface
    from repro.hypervisor.remote_tmem import RemoteTmemBackend
    from repro.hypervisor.virq import StatisticsSampler
    from repro.scenarios.results import ScenarioResult
    from repro.scenarios.runner import ScenarioRunner
    from repro.sim.engine import SimulationEngine

    entries: List[Tuple[type, str, str, Optional[Tally]]] = [
        (ResultStore, "save", "experiments", None),
        (ScenarioRunner, "__init__", "scenarios", None),
        (ScenarioRunner, "run", "scenarios", None),
        (ScenarioResult, "fingerprint", "scenarios", None),
        (SimulationEngine, "run", "sim", None),
        (GuestKernel, "access", "guest", None),
        (GuestKernel, "free", "guest", None),
        (SwapArea, "store", "guest", None),
        (SwapArea, "load", "guest", None),
        (SwapArea, "store_many", "guest", None),
        (SwapArea, "load_many", "guest", None),
        (PrivilegedTkm, "apply_targets", "guest", None),
        (HypercallInterface, "tmem_put", "hypervisor", ("hypercall_pages", _one)),
        (HypercallInterface, "tmem_get", "hypervisor", ("hypercall_pages", _one)),
        (HypercallInterface, "tmem_batch", "hypervisor", ("hypercall_pages", _batch_pages)),
        (HypercallInterface, "tmem_planned", "hypervisor",
         ("hypercall_pages", _planned_pages)),
        (HypercallInterface, "tmem_flush_page", "hypervisor", ("hypercall_pages", _one)),
        (HypercallInterface, "tmem_flush_object", "hypervisor", ("hypercall_pages", _one)),
        (HypercallInterface, "tmem_set_targets", "hypervisor", None),
        (HypercallInterface, "tmem_clear_targets", "hypervisor", None),
        (StatisticsSampler, "sample_now", "hypervisor", None),
        (StatisticsSampler, "_sample", "hypervisor", None),
        (RemoteTmemBackend, "spill_put", "remote_tmem", ("spills_accepted", _truthy)),
        (RemoteTmemBackend, "remote_get", "remote_tmem", None),
        (RemoteTmemBackend, "remote_flush", "remote_tmem", None),
        (RemoteTmemBackend, "accept_spill", "remote_tmem", None),
        (RemoteTmemBackend, "fetch_spill", "remote_tmem", None),
        (InterNodeChannel, "reserve", "channels", None),
        (InterNodeChannel, "send", "channels", None),
        (InterNodeChannel, "transfer_async", "channels", None),
        (InterNodeChannel, "note_transfer", "channels", None),
        (NetlinkChannel, "send", "channels", None),
        (VirtualDisk, "read", "devices", ("disk_pages", _pages_arg(2, "pages"))),
        (VirtualDisk, "write", "devices", ("disk_pages", _pages_arg(2, "pages"))),
        (VirtualDisk, "read_one", "devices", ("disk_pages", _one)),
        (VirtualDisk, "write_one", "devices", ("disk_pages", _one)),
        (MemoryManager, "process_snapshot", "core", None),
    ]
    # Every registered policy and coordinator that defines its own
    # decision method; inherited ones are covered by their base's wrapper.
    seen = set()
    for registry, attr in ((policy._REGISTRY, "decide"), (coordinator._REGISTRY, "rebalance")):
        for cls in registry.values():
            for klass in cls.__mro__:
                if attr in vars(klass) and not getattr(
                    vars(klass)[attr], "__isabstractmethod__", False
                ) and (klass, attr) not in seen:
                    seen.add((klass, attr))
                    entries.append((klass, attr, "core", None))
    return entries


class SpanRecorder:
    """In-memory span store plus the wrappers that fill it.

    ``install()`` wraps every entry point; ``uninstall()`` restores the
    original methods.  Call ``begin_point`` before each sweep point so the
    point's spans carry its id.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.point = array("q")
        self.tallies: Counter = Counter()
        self._stack: List[int] = []
        self._point_id = -1
        self._patched: List[Tuple[type, str, Any]] = []
        self.epoch = time.perf_counter()

    def __len__(self) -> int:
        return len(self.start)

    def begin_point(self, point_id: int) -> None:
        self._point_id = point_id

    @contextlib.contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        """Record a span around code the driver runs itself."""
        idx = self._open(self._intern(name, layer))
        try:
            yield
        finally:
            self._close(idx)

    def _intern(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.parent.append(stack[-1] if stack else -1)
        self.name.append(nid)
        self.point.append(self._point_id)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    # -- wrapping ----------------------------------------------------------
    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for cls, attr, layer, tally in layer_entry_points():
            self._wrap(cls, attr, layer, tally)

    def uninstall(self) -> None:
        for cls, attr, original in reversed(self._patched):
            setattr(cls, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def suspended(self) -> Iterator[None]:
        """Run the driver's own checks without recording spans."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def _wrap(self, cls: type, attr: str, layer: str, tally: Optional[Tally]) -> None:
        original = vars(cls)[attr]
        nid = self._intern(f"{layer}.{cls.__name__}.{attr}", layer)
        open_span = self._open
        close_span = self._close
        tallies = self.tallies

        if tally is None:

            def traced(*args: Any, **kwargs: Any) -> Any:
                idx = open_span(nid)
                try:
                    return original(*args, **kwargs)
                finally:
                    close_span(idx)

        else:
            tally_name, count = tally

            def traced(*args: Any, **kwargs: Any) -> Any:
                idx = open_span(nid)
                try:
                    out = original(*args, **kwargs)
                finally:
                    close_span(idx)
                tallies[tally_name] += count(args, kwargs, out)
                return out

        functools.update_wrapper(traced, original)
        setattr(cls, attr, traced)
        self._patched.append((cls, attr, original))

    # -- analysis ----------------------------------------------------------
    def calls_by_name(self) -> Counter:
        counts = np.bincount(np.frombuffer(self.name, dtype=np.int64),
                             minlength=len(self.names))
        return Counter(dict(zip(self.names, counts.tolist())))

    def calls_by_layer(self) -> Counter:
        out: Counter = Counter()
        for layer, n in zip(self.layers, self.calls_by_name().values()):
            out[layer] += n
        return out

    def self_time_by_layer(self) -> Dict[str, float]:
        """Seconds each layer's spans cover, minus their children's spans."""
        out = {layer: 0.0 for layer in self.layers}
        if not len(self):
            return out
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        duration = end - start
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=duration[has_parent],
                               minlength=len(duration))
        self_time = duration - children
        by_name = np.bincount(name, weights=self_time, minlength=len(self.names))
        for nid, seconds in enumerate(by_name):
            out[self.layers[nid]] += float(seconds)
        return out

    def inclusive_time(self, span_name: str) -> float:
        nid = self._name_ids.get(span_name)
        if nid is None or not len(self):
            return 0.0
        name = np.frombuffer(self.name, dtype=np.int64)
        mask = name == nid
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return float((end[mask] - start[mask]).sum())

    def write_jsonl(self, path) -> None:
        """Write one JSON object per span, gzip-compressed.

        ``id`` is the span's line number; ``parent`` is the id of the
        enclosing span (-1 for a root); times are seconds since the
        recorder was created; ``point`` indexes the workload's points.
        """
        line = '{"id":%d,"name":"%s","start":%.9f,"end":%.9f,"parent":%d,"point":%d}\n'
        names = self.names
        epoch = self.epoch
        rows = enumerate(zip(self.name, self.start, self.end, self.parent, self.point))
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            while True:
                chunk = [
                    line % (i, names[nid], start - epoch, end - epoch, parent, point)
                    for i, (nid, start, end, parent, point) in itertools.islice(rows, 100_000)
                ]
                if not chunk:
                    break
                fh.write("".join(chunk))
