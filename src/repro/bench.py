"""Benchmark and performance-regression harness.

The simulator's value as a reproduction depends on experiments re-running
cheaply; this module makes the simulator's own speed a tested quantity.
It runs small *micro-scenarios* — reduced-scale versions of the paper's
Figure 3 (scenario-1) and Figure 7 (usemem) workloads — under both the
batched and the scalar guest-memory engines, and records:

* ``wall_clock_s`` — host seconds per simulation run (median of repeats);
* ``events_per_s`` — simulation events executed per host second;
* ``pages_per_s`` — guest page accesses serviced per host second;
* ``speedup`` — batched over scalar pages/s, per case.

Results are written to ``BENCH_<label>.json`` and compared against a
previous baseline (by default the committed ``benchmarks/BENCH_seed.json``)
with a configurable tolerance.  Absolute throughput varies across hosts,
so regressions are judged on the *speedup ratio* — a machine-independent
property of the code — while absolute numbers are reported for context.

Entry points: ``python -m repro bench`` (CLI) and
``benchmarks/regression.py`` (standalone script / pytest wiring).
"""

from __future__ import annotations

import json
import platform
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .config import GuestConfig, SimulationConfig
from .scenarios.library import scenario_by_name
from .scenarios.runner import ScenarioRunner
from .scenarios.spec import ScenarioSpec
from .units import SCENARIO_UNITS

__all__ = [
    "BenchCase",
    "BenchRecord",
    "BenchReport",
    "EngineBenchRecord",
    "MICRO_CASES",
    "QUICK_CASES",
    "ENGINE_CASES",
    "DEFAULT_TOLERANCE",
    "DEFAULT_BASELINE",
    "run_case",
    "run_suite",
    "run_engine_case",
    "run_engine_suite",
    "compare_reports",
    "write_report",
    "load_report",
]

#: Relative speedup loss vs the baseline that counts as a regression.
DEFAULT_TOLERANCE = 0.20

#: The committed baseline this repo's guard test compares against.
DEFAULT_BASELINE = Path(__file__).resolve().parents[2] / "benchmarks" / "BENCH_seed.json"

BENCH_SEED = 2019


@dataclass(frozen=True)
class BenchCase:
    """One micro-scenario measured by the harness."""

    name: str
    scenario: str
    policy: str = "greedy"
    scale: float = 0.25
    #: Override the scenario's tmem pool (MB at the given scale); None
    #: keeps the paper's configuration.
    tmem_mb: Optional[int] = None
    #: Override usemem's access-burst length; None keeps the default.
    burst_pages: Optional[int] = None
    #: Run cluster cases through the sharded runner: ``"auto"``, a
    #: worker count, or None for the classic shared engine.  Only
    #: meaningful for scenarios with a topology.
    shards: "Optional[int | str]" = None

    def build_spec(self) -> ScenarioSpec:
        spec = scenario_by_name(self.scenario, scale=self.scale)
        if self.tmem_mb is not None:
            spec = replace(spec, tmem_mb=self.tmem_mb)
        if self.burst_pages is not None:
            vms = []
            for vm in spec.vms:
                jobs = tuple(
                    replace(
                        job,
                        params={
                            **dict(job.params),
                            "burst_pages": self.burst_pages,
                        },
                    )
                    for job in vm.jobs
                )
                vms.append(replace(vm, jobs=jobs))
            spec = replace(spec, vms=tuple(vms))
        return spec


#: The default micro-benchmark suite.
#:
#: * ``fig03-micro`` — scenario-1 (in-memory analytics), the Figure 3
#:   workload at reduced scale: hit-heavy bursts with duplicate pages.
#: * ``fig07-micro`` — the usemem scenario exactly as the paper sizes it
#:   (tmem pool far smaller than the overflow): a mixed tmem/disk regime.
#: * ``usemem-micro`` — usemem with a tmem pool sized to the overflow, so
#:   every eviction and most faults travel the tmem hypercall path.  This
#:   is the headline case for the batched fast path: its throughput is
#:   dominated by exactly the code the vectorized engine optimizes.
MICRO_CASES: Tuple[BenchCase, ...] = (
    BenchCase(name="fig03-micro", scenario="scenario-1", scale=0.25),
    BenchCase(name="fig07-micro", scenario="usemem-scenario", scale=0.25),
    BenchCase(
        name="usemem-micro",
        scenario="usemem-scenario",
        scale=0.25,
        tmem_mb=1024,
    ),
    # 16 zipf-shaped VMs on one node: the event-traffic-heavy shape PR 3
    # multiplied.  Exercises the duplicate-tolerant burst planner and the
    # slab engine under many interleaved event streams.
    BenchCase(name="manyvms-micro", scenario="many-vms:n=16", scale=0.25),
    # Contended interconnect: every remote op reserves the per-link FIFO
    # and carries its own queue-aware cost through the batch result —
    # the per-op remote_costs plumbing is this case's hot path.
    BenchCase(
        name="contended-micro", scenario="contended:nodes=3", scale=0.1
    ),
    # Mid-run node failure + failover migration: loses the spill vault,
    # recovers hosted pages to swap, re-homes a VM — exercises the
    # failure machinery end to end under both guest engines.
    BenchCase(
        name="failover-micro",
        scenario="failover:nodes=3,fail_at=10",
        scale=0.1,
    ),
    # Four decoupled nodes through the sharded runner (one engine per
    # node in worker processes where cores allow).  The only case whose
    # wall clock reflects sharded execution; its record carries the
    # worker count actually used, and the report carries the host's
    # core count, so regression comparisons stay like-for-like.
    BenchCase(
        name="cluster-shard-micro",
        scenario="shard:nodes=4,vms_per_node=2",
        scale=0.25,
        shards="auto",
    ),
    # Fault injection end to end (the flaky variant is the superset:
    # transient vault failure + rejoin + failback, a lossy/throttled
    # link, a flapping partition, spill retries with backoff and a
    # breaker cycle).  Prices the whole chaos choreography — degraded
    # link reservations, retransmits and the recovery path — under both
    # guest engines.
    BenchCase(
        name="faulty-micro",
        scenario="flaky:nodes=3,fail_at=8,down_s=6",
        scale=0.1,
    ),
)

#: Reduced suite for the smoke target (``repro bench --quick``).
QUICK_CASES: Tuple[BenchCase, ...] = (
    BenchCase(name="fig07-micro", scenario="usemem-scenario", scale=0.25),
    BenchCase(
        name="usemem-micro",
        scenario="usemem-scenario",
        scale=0.25,
        tmem_mb=1024,
    ),
)


#: Event counts for the engine micro-benchmarks.  Large enough that the
#: per-event cost dominates interpreter warm-up, small enough that the
#: whole engine suite stays under a second on a laptop.
_ENGINE_EVENTS = 50_000

#: The engine micro-benchmark cases (events/sec of the scheduling core).
#:
#: * ``schedule-fire`` — schedule + dispatch of one-shot events through
#:   the heap (the slab's bread and butter).
#: * ``self-reschedule`` — an event chain that re-schedules itself from
#:   inside the callback, the shape of the VM driver's step loop with
#:   fast-forward disabled.
#: * ``fast-forward`` — the same chain with fast-forward enabled: the
#:   engine advances inline and the heap is never touched.
#: * ``recurring`` — one native periodic timer firing N times.
#: * ``cancel-churn`` — schedule/cancel pairs plus a live event per
#:   round: exercises slot recycling and lazy heap hygiene.
ENGINE_CASES: Tuple[str, ...] = (
    "schedule-fire",
    "self-reschedule",
    "fast-forward",
    "recurring",
    "cancel-churn",
)


@dataclass
class EngineBenchRecord:
    """Measurements of one engine micro-benchmark case."""

    case: str
    events: int
    wall_clock_s: float
    events_per_s: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "case": self.case,
            "events": self.events,
            "wall_clock_s": self.wall_clock_s,
            "events_per_s": self.events_per_s,
        }


def _engine_case_body(case: str, events: int) -> int:
    """Run one engine micro-benchmark case; returns events executed."""
    from .sim.engine import SimulationEngine

    if case == "schedule-fire":
        engine = SimulationEngine()
        nothing = lambda: None  # noqa: E731
        schedule = engine.schedule_call_at
        for i in range(events):
            schedule(float(i), nothing)
        engine.run()
        return engine.events_executed
    if case == "self-reschedule":
        engine = SimulationEngine(fast_forward=False)
        remaining = [events]

        def chain() -> None:
            remaining[0] -= 1
            if remaining[0]:
                engine.schedule_call_after(1.0, chain)

        engine.schedule_call_after(1.0, chain)
        engine.run()
        return engine.events_executed
    if case == "fast-forward":
        engine = SimulationEngine(fast_forward=True)
        remaining = [events]

        def chain() -> None:
            try_ff = engine.try_fast_forward
            while remaining[0] > 1:
                remaining[0] -= 1
                if not try_ff(engine.now + 1.0):
                    engine.schedule_call_after(1.0, chain)
                    return
            remaining[0] -= 1

        engine.schedule_call_after(1.0, chain)
        engine.run()
        return engine.events_executed
    if case == "recurring":
        engine = SimulationEngine()
        fired = [0]

        def tick() -> None:
            fired[0] += 1

        timer = engine.schedule_recurring(1.0, tick)
        engine.run(until=float(events))
        timer.cancel()
        return engine.events_executed
    if case == "cancel-churn":
        engine = SimulationEngine()
        nothing = lambda: None  # noqa: E731
        rounds = events // 2
        for i in range(rounds):
            doomed = engine.schedule_at(float(i) + 0.5, nothing)
            engine.schedule_call_at(float(i), nothing)
            doomed.cancel()
        engine.run()
        return engine.events_executed
    raise ValueError(f"unknown engine bench case {case!r}")


def run_engine_case(
    case: str, *, events: int = _ENGINE_EVENTS, repeats: int = 3
) -> EngineBenchRecord:
    """Measure one engine micro-benchmark case (best of *repeats*)."""
    walls = []
    executed = 0
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        executed = _engine_case_body(case, events)
        walls.append(time.perf_counter() - start)
    wall = min(walls)
    return EngineBenchRecord(
        case=case,
        events=executed,
        wall_clock_s=wall,
        events_per_s=executed / wall if wall > 0 else float("inf"),
    )


def run_engine_suite(
    *, events: int = _ENGINE_EVENTS, repeats: int = 3
) -> List[EngineBenchRecord]:
    """Run every engine micro-benchmark case."""
    return [
        run_engine_case(case, events=events, repeats=repeats)
        for case in ENGINE_CASES
    ]


@dataclass
class BenchRecord:
    """Measurements of one (case, engine) combination."""

    case: str
    engine: str
    wall_clock_s: float
    simulated_s: float
    events: int
    events_per_s: float
    pages: int
    pages_per_s: float
    #: Shard workers the run actually used; None = shared engine.
    shards: Optional[int] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "case": self.case,
            "engine": self.engine,
            "wall_clock_s": self.wall_clock_s,
            "simulated_s": self.simulated_s,
            "events": self.events,
            "events_per_s": self.events_per_s,
            "pages": self.pages,
            "pages_per_s": self.pages_per_s,
            "shards": self.shards,
        }


@dataclass
class BenchReport:
    """A full suite run: per-engine records plus per-case speedups."""

    label: str
    seed: int
    repeats: int
    host: str
    python: str
    created_at: str
    #: Host CPU cores at record time — context for shard walls.
    cpu_count: int = 0
    records: List[BenchRecord] = field(default_factory=list)
    #: case name -> batched pages/s over scalar pages/s.
    speedups: Dict[str, float] = field(default_factory=dict)
    #: Engine micro-benchmark records (events/sec of the scheduling core).
    engine_records: List[EngineBenchRecord] = field(default_factory=list)

    def record_for(self, case: str, engine: str) -> Optional[BenchRecord]:
        for record in self.records:
            if record.case == case and record.engine == engine:
                return record
        return None

    def engine_record_for(self, case: str) -> Optional[EngineBenchRecord]:
        for record in self.engine_records:
            if record.case == case:
                return record
        return None

    def as_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "seed": self.seed,
            "repeats": self.repeats,
            "host": self.host,
            "python": self.python,
            "created_at": self.created_at,
            "cpu_count": self.cpu_count,
            "records": [r.as_dict() for r in self.records],
            "speedups": dict(self.speedups),
            "engine_records": [r.as_dict() for r in self.engine_records],
        }


def _run_once(
    spec: ScenarioSpec,
    policy: str,
    engine: str,
    seed: int,
    shards: "Optional[int | str]" = None,
):
    """One measured run; returns (wall, simulated, events, pages, shards).

    The wall clock covers runner construction plus the run on both the
    shared and the sharded path, so the two compare like with like.
    The returned ``shards`` documents the worker count a sharded run
    actually used (None for the shared-engine path), so records stay
    honest about what was measured.
    """
    config = SimulationConfig(
        units=SCENARIO_UNITS, guest=GuestConfig(access_engine=engine)
    )
    if shards is not None and spec.topology is not None:
        from .cluster.sharded import ShardedClusterRunner

        start = time.perf_counter()
        sharded_runner = ShardedClusterRunner(
            spec, policy, shards=shards, config=config, seed=seed
        )
        result = sharded_runner.run()
        wall = time.perf_counter() - start
        return (
            wall,
            result.simulated_duration_s,
            sharded_runner.events_executed,
            sharded_runner.pages_accessed,
            len(sharded_runner.buckets),
        )
    start = time.perf_counter()
    runner = ScenarioRunner(spec, policy, config=config, seed=seed)
    result = runner.run()
    wall = time.perf_counter() - start
    pages = sum(vm.kernel.stats.accesses for vm in runner.vms.values())
    events = runner.engine.events_executed
    return wall, result.simulated_duration_s, events, pages, None


def run_case(
    case: BenchCase,
    *,
    engine: str = "batched",
    seed: int = BENCH_SEED,
    repeats: int = 3,
    shards: "Optional[int | str]" = None,
) -> BenchRecord:
    """Run one case under one engine; wall clock is the median of repeats.

    *shards* overrides the case's own shard setting when given.
    """
    spec = case.build_spec()
    effective_shards = shards if shards is not None else case.shards
    walls = []
    simulated = events = pages = 0
    used_shards: Optional[int] = None
    for _ in range(max(1, repeats)):
        wall, simulated, events, pages, used_shards = _run_once(
            spec, case.policy, engine, seed, effective_shards
        )
        walls.append(wall)
    wall = statistics.median(walls)
    return BenchRecord(
        case=case.name,
        engine=engine,
        wall_clock_s=wall,
        simulated_s=simulated,
        events=events,
        events_per_s=events / wall if wall > 0 else float("inf"),
        pages=pages,
        pages_per_s=pages / wall if wall > 0 else float("inf"),
        shards=used_shards,
    )


def run_suite(
    cases: Sequence[BenchCase] = MICRO_CASES,
    *,
    label: str = "micro",
    engines: Sequence[str] = ("scalar", "batched"),
    seed: int = BENCH_SEED,
    repeats: int = 3,
    shards: "Optional[int | str]" = None,
) -> BenchReport:
    """Run every case under every engine and derive per-case speedups.

    Engine runs are interleaved per case so that slow host drift (cron
    jobs, thermal throttling) biases both engines equally.  *shards*
    overrides every cluster case's shard setting (CI uses this to sweep
    2- and 4-worker configurations).
    """
    import os as _os

    report = BenchReport(
        label=label,
        seed=seed,
        repeats=repeats,
        host=platform.node() or "unknown",
        python=platform.python_version(),
        created_at=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        cpu_count=_os.cpu_count() or 0,
    )
    for case in cases:
        spec = case.build_spec()
        effective_shards = shards if shards is not None else case.shards
        walls: Dict[str, List[float]] = {engine: [] for engine in engines}
        metrics: Dict[str, Tuple[float, int, int, Optional[int]]] = {}
        for _ in range(max(1, repeats)):
            for engine in engines:
                wall, simulated, events, pages, used_shards = _run_once(
                    spec, case.policy, engine, seed, effective_shards
                )
                walls[engine].append(wall)
                metrics[engine] = (simulated, events, pages, used_shards)
        for engine in engines:
            wall = statistics.median(walls[engine])
            simulated, events, pages, used_shards = metrics[engine]
            report.records.append(
                BenchRecord(
                    case=case.name,
                    engine=engine,
                    wall_clock_s=wall,
                    simulated_s=simulated,
                    events=events,
                    events_per_s=events / wall if wall > 0 else float("inf"),
                    pages=pages,
                    pages_per_s=pages / wall if wall > 0 else float("inf"),
                    shards=used_shards,
                )
            )
        scalar = report.record_for(case.name, "scalar")
        batched = report.record_for(case.name, "batched")
        if scalar is not None and batched is not None and scalar.pages_per_s > 0:
            report.speedups[case.name] = batched.pages_per_s / scalar.pages_per_s
    report.engine_records = run_engine_suite(repeats=repeats)
    return report


def write_report(report: BenchReport, output_dir: Path) -> Path:
    """Write ``BENCH_<label>.json`` into *output_dir*; returns the path."""
    output_dir.mkdir(parents=True, exist_ok=True)
    path = output_dir / f"BENCH_{report.label}.json"
    path.write_text(json.dumps(report.as_dict(), indent=2) + "\n")
    return path


def load_report(path: Path) -> Dict[str, object]:
    """Load a previously written ``BENCH_*.json`` as a plain dict."""
    return json.loads(Path(path).read_text())


def compare_reports(
    current: BenchReport,
    baseline: Dict[str, object],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[str]:
    """Regressions of *current* vs *baseline*; empty list when clean.

    The judged metric is the per-case batched/scalar speedup — a
    machine-independent property of the code — so a baseline recorded on
    one host remains meaningful on another.  A case regresses when its
    speedup falls more than ``tolerance`` below the baseline's.

    Cases whose *shard or cluster-engine configuration* differs between
    the two reports are skipped: a 4-worker run and a shared-engine run
    of the same scenario have different wall-clock structure, so their
    speedups are not comparable (each configuration regresses only
    against itself).  Historical records may name a ``cluster_engine``;
    records without the key that ran sharded count as ``"exact"``, the
    only engine the harness runs today.  Skips are not
    silent — a one-line summary of the skipped cases is printed so a
    config drift can't masquerade as a clean comparison.
    """

    def config_of(records, case: str) -> Tuple[Optional[int], Optional[str]]:
        for record in records:
            record_data = (
                record.as_dict() if isinstance(record, BenchRecord) else record
            )
            if (
                record_data.get("case") == case
                and record_data.get("engine") == "batched"
            ):
                shard_count = record_data.get("shards")
                cengine = record_data.get("cluster_engine")
                if shard_count is not None and cengine is None:
                    # Sharded records that carry no engine key ran the
                    # exact engine (older records and every new one).
                    cengine = "exact"
                return (shard_count, cengine)
        return (None, None)

    problems: List[str] = []
    skipped: List[str] = []
    base_speedups: Dict[str, float] = dict(baseline.get("speedups", {}))
    for case, base in base_speedups.items():
        cur = current.speedups.get(case)
        if cur is None:
            continue
        if config_of(current.records, case) != config_of(
            baseline.get("records", []), case
        ):
            skipped.append(case)
            continue
        floor = base * (1.0 - tolerance)
        if cur < floor:
            problems.append(
                f"{case}: speedup {cur:.2f}x fell below {floor:.2f}x "
                f"(baseline {base:.2f}x, tolerance {tolerance:.0%})"
            )
    if skipped:
        print(
            f"compare_reports: skipped {len(skipped)} case(s) with unlike "
            f"shard/engine configs: {', '.join(sorted(skipped))}"
        )
    return problems


def format_report(report: BenchReport, *, baseline: Optional[Dict[str, object]] = None) -> str:
    """Human-readable summary table of a suite run."""
    cores = f", {report.cpu_count} cores" if report.cpu_count else ""
    lines = [
        f"Benchmark suite '{report.label}' — seed {report.seed}, "
        f"{report.repeats} repeats, host {report.host}{cores}",
        "",
        f"{'case':16s} {'engine':8s} {'wall[ms]':>9s} {'events/s':>12s} "
        f"{'pages/s':>12s}",
    ]
    for record in report.records:
        shard_note = (
            f"  [{record.shards} shard(s)]" if record.shards is not None else ""
        )
        lines.append(
            f"{record.case:16s} {record.engine:8s} "
            f"{record.wall_clock_s * 1e3:9.1f} {record.events_per_s:12.0f} "
            f"{record.pages_per_s:12.0f}{shard_note}"
        )
    lines.append("")
    for case, speedup in report.speedups.items():
        suffix = ""
        if baseline is not None:
            base = dict(baseline.get("speedups", {})).get(case)
            if base is not None:
                suffix = f"   (baseline {base:.2f}x)"
        lines.append(f"{case:16s} batched/scalar speedup: {speedup:.2f}x{suffix}")
    if report.engine_records:
        lines.append("")
        lines.append(f"{'engine case':16s} {'events':>8s} {'wall[ms]':>9s} "
                     f"{'events/s':>12s}")
        for engine_record in report.engine_records:
            lines.append(
                f"{engine_record.case:16s} {engine_record.events:8d} "
                f"{engine_record.wall_clock_s * 1e3:9.1f} "
                f"{engine_record.events_per_s:12.0f}"
            )
    return "\n".join(lines)
