"""Batched-versus-scalar speed floors of the guest-memory engines.

Each case times ``ScenarioRunner`` construction plus ``run()`` under the
scalar reference engine and the batched fast path, interleaved so that
slow host drift biases both engines equally, and compares median
pages/s.  The ratio is a property of the code, so the floors hold on
hosts of very different absolute speed.  A case below its floor is
re-measured once with more repeats before it fails: a noisy neighbour
can depress a single run.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import replace

from conftest import BENCH_SEED, print_section

from repro.config import GuestConfig, SimulationConfig
from repro.scenarios.library import scenario_by_name
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import ScenarioSpec
from repro.units import SCENARIO_UNITS


def _speedup(spec: ScenarioSpec, repeats: int) -> float:
    """Batched pages/s over scalar pages/s, medians of *repeats* runs."""
    walls = {"scalar": [], "batched": []}
    pages = {}
    for _ in range(repeats):
        for engine in walls:
            config = SimulationConfig(
                units=SCENARIO_UNITS, guest=GuestConfig(access_engine=engine)
            )
            start = time.perf_counter()
            runner = ScenarioRunner(spec, "greedy", config=config, seed=BENCH_SEED)
            runner.run()
            walls[engine].append(time.perf_counter() - start)
            pages[engine] = sum(
                vm.kernel.stats.accesses for vm in runner.vms.values()
            )
    rate = {e: pages[e] / statistics.median(walls[e]) for e in walls}
    return rate["batched"] / rate["scalar"]


def _assert_floor(case: str, spec: ScenarioSpec, floor: float) -> None:
    speedup = _speedup(spec, repeats=3)
    if speedup < floor:
        speedup = _speedup(spec, repeats=5)
    print_section(f"{case}: batched/scalar speedup {speedup:.2f}x")
    assert speedup >= floor, (
        f"batched engine only {speedup:.2f}x faster than scalar on {case} "
        f"(floor {floor}x)"
    )


def test_usemem_micro_speedup_floor():
    """usemem with a tmem pool sized to its overflow, so every eviction
    and most faults take the tmem hypercall path that the batched engine
    vectorizes.  Measured ~3.5x when the floor was set."""
    spec = replace(scenario_by_name("usemem-scenario", scale=0.25), tmem_mb=1024)
    _assert_floor("usemem-micro", spec, 3.0)


def test_fig07_micro_speedup_floor():
    """The usemem scenario sized as in the paper (a mixed tmem/disk
    regime).  The floor is 0.8x the 3.06x measured on the seed code."""
    spec = scenario_by_name("usemem-scenario", scale=0.25)
    _assert_floor("fig07-micro", spec, 2.45)
