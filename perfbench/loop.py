"""Closed-loop sweep client.

One client in one process runs a workload's points one at a time: each
point is a one-point sweep, ``run_sweep(SweepSpec, backend=SerialBackend(),
store=ResultStore(...))``, and the next point starts only when the
previous one has returned and been checked.  A pass runs every point of
the workload once into a fresh result store, so ``resume`` can never
reuse a stored result.

Every point is timed the same way on every workload: the timed region is
the whole ``run_sweep`` call (spec expansion, store lookup, runner
construction, ``run()`` and the store write).  Checking the result
happens after the timed region.  The host-speed probe (hostspeed.py) is
timed before the first point, after every point and, on untraced passes,
every ``TICK_S`` during each point; the ticks' own time is taken out of the
point's time, so each point's time can be normalised by its probes.
"""

from __future__ import annotations

import contextlib
import json
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from .hostspeed import HostSpeedProbe, Ticks, normalised
from .oracle import Oracle, point_key
from .workloads import Workload


def cpu_seconds() -> float:
    """CPU time of this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class PointProbe:
    """Reads a finished runner's live counters that results do not carry.

    Wraps ``ScenarioRunner.run`` once per point (not per event), so it
    costs nothing measurable; it stays installed for untraced passes.
    """

    def __init__(self) -> None:
        self.accesses = 0
        self.events = 0
        self._original = None

    def install(self) -> None:
        from repro.scenarios.runner import ScenarioRunner

        original = self._original = ScenarioRunner.run
        probe = self

        def run(runner):
            result = original(runner)
            probe.accesses = sum(vm.kernel.stats.accesses for vm in runner.vms.values())
            probe.events = runner.engine.events_executed
            return result

        ScenarioRunner.run = run

    def uninstall(self) -> None:
        from repro.scenarios.runner import ScenarioRunner

        ScenarioRunner.run = self._original

    def reset(self) -> None:
        self.accesses = 0
        self.events = 0


@dataclass
class PassResult:
    """Totals of one pass over every point of a workload."""

    #: Host wall and CPU seconds of each point, in workload order.
    point_wall_s: List[float] = field(default_factory=list)
    point_cpu_s: List[float] = field(default_factory=list)
    #: Host-speed probe times: before the first point and after each point.
    probe_s: List[float] = field(default_factory=list)
    #: Host-speed probe times taken while each point ran.
    tick_probe_s: List[List[float]] = field(default_factory=list)
    #: point key -> reason, for every point that failed.
    failures: Dict[str, str] = field(default_factory=dict)
    #: point key -> fingerprint, for every point that produced a result.
    fingerprints: Dict[str, str] = field(default_factory=dict)
    #: Deterministic totals over the points that produced a result.
    counts: Counter = field(default_factory=Counter)

    @property
    def attempted(self) -> int:
        return len(self.point_wall_s)

    @property
    def wall_s(self) -> float:
        return sum(self.point_wall_s)

    @property
    def point_probe_s(self) -> List[float]:
        """Each point's mean probe time: before, while and after it ran."""
        return [statistics.mean([before, *ticks, after]) for before, ticks, after
                in zip(self.probe_s, self.tick_probe_s, self.probe_s[1:])]

    def normalised(self, point_times: List[float]) -> List[float]:
        """Each of *point_times* normalised by that point's probe time."""
        return [normalised(raw, probe) for raw, probe
                in zip(point_times, self.point_probe_s)]


def check_point(point, result, store, oracle: Oracle,
                reference: Dict[str, str]) -> tuple:
    """(fingerprint, failure reason or None) for one finished point."""
    fingerprint = result.fingerprint()
    path = store.path_for(point)
    envelope = json.loads(path.read_text())
    if envelope["fingerprint"] != fingerprint:
        return fingerprint, "stored fingerprint differs from the returned result's"
    if store.load(point).fingerprint() != fingerprint:
        return fingerprint, "result does not survive a store round trip"
    expected = oracle.expected(point)
    if expected is not None and expected != fingerprint:
        return fingerprint, f"fingerprint {fingerprint[:12]} != expected {expected[:12]}"
    key = point_key(point)
    first = reference.setdefault(key, fingerprint)
    if first != fingerprint:
        return fingerprint, f"fingerprint {fingerprint[:12]} != first pass {first[:12]}"
    return fingerprint, None


def run_pass(
    workload: Workload,
    seed: int,
    *,
    scratch: Path,
    oracle: Oracle,
    reference: Dict[str, str],
    probe: PointProbe,
    speed: HostSpeedProbe,
    recorder=None,
) -> PassResult:
    """Run every point of *workload* once; see the module docstring."""
    from repro.experiments.backends import SerialBackend
    from repro.experiments.store import ResultStore
    from repro.experiments.sweep import run_sweep

    out = PassResult()
    store = ResultStore(tempfile.mkdtemp(prefix="store-", dir=scratch))
    out.probe_s.append(speed.measure())
    try:
        for index, spec in enumerate(workload.specs(seed)):
            if index:
                out.probe_s.append(speed.measure())
            (point,) = spec.expand()
            key = point_key(point)
            probe.reset()
            if recorder is not None:
                recorder.begin_point(index)
            span = (recorder.span("experiments.run_sweep", "experiments")
                    if recorder is not None else contextlib.nullcontext())
            # Ticks would run inside the traced spans, so traced passes skip them.
            ticking = (speed.ticking() if recorder is None
                       else contextlib.nullcontext(Ticks()))
            outcome = error = None
            cpu0 = cpu_seconds()
            start = time.perf_counter()
            try:
                with span, ticking as ticks:
                    outcome = run_sweep(spec, backend=SerialBackend(), store=store)
            except Exception as exc:  # a raising point is a failed point
                traceback.print_exc()
                error = f"{type(exc).__name__}: {exc}"
            out.point_wall_s.append(time.perf_counter() - start - ticks.wall_s)
            out.point_cpu_s.append(cpu_seconds() - cpu0 - ticks.cpu_s)
            out.tick_probe_s.append(ticks.probe_s)
            if error is None and point not in outcome.results:
                error = outcome.failed.get(point, "no result returned")
            if error is not None:
                out.failures[key] = error
                continue
            result = outcome.results[point]
            try:
                with (recorder.suspended() if recorder is not None
                      else contextlib.nullcontext()):
                    fingerprint, error = check_point(point, result, store, oracle,
                                                     reference)
            except Exception as exc:  # a check that cannot run fails the point
                traceback.print_exc()
                out.failures[key] = f"check raised {type(exc).__name__}: {exc}"
                continue
            out.fingerprints[key] = fingerprint
            if error is not None:
                out.failures[key] = error
            counts = out.counts
            counts["accesses"] += probe.accesses
            counts["events"] += probe.events
            counts["store_bytes"] += store.path_for(point).stat().st_size
            counts["target_updates"] += result.target_updates
            counts["pages_moved"] += (result.cluster or {}).get("interconnect_pages_moved", 0)
            for vm in result.vms.values():
                counts["puts_total"] += vm.cumul_puts_total
                counts["puts_succ"] += vm.cumul_puts_succ
                counts["major_faults"] += vm.major_faults
                counts["tmem_faults"] += vm.faults_from_tmem
    finally:
        shutil.rmtree(store.root, ignore_errors=True)
    out.probe_s.append(speed.measure())
    return out


def sum_of_medians(series: List[List[float]]) -> float:
    """Sum over points of each point's median across passes.

    *series* holds one list of per-point times per pass.
    """
    return sum(statistics.median(times) for times in zip(*series))


def failure_summary(failures: Dict[str, str], limit: int = 5) -> List[str]:
    lines = [f"FAILED {key}: {reason}" for key, reason in list(failures.items())[:limit]]
    if len(failures) > limit:
        lines.append(f"... and {len(failures) - limit} more failed point(s)")
    return lines
