"""Scalar vs batched guest-memory engine equivalence.

The batched access engine must be *bit-identical* to the scalar
reference: same counters, same cumulative latency floats, same traces,
same scenario results for the same seed.  These tests drive both engines
through identical histories — kernel-level randomized bursts and full
scenario runs under every paper policy — and compare everything that is
observable.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import GuestConfig, SimulationConfig
from repro.guest.frontswap import FrontswapClient
from repro.guest.kernel import GuestKernel
from repro.hypervisor.xen import Hypervisor
from repro.scenarios.library import usemem_scenario
from repro.scenarios.runner import ScenarioRunner
from repro.sim.engine import SimulationEngine
from repro.units import SCENARIO_UNITS


def build_kernel(engine_kind, *, ram_pages, tmem_pages, reclaim="lru",
                 target=None, swap_pages=512):
    config = SimulationConfig(
        guest=GuestConfig(access_engine=engine_kind, reclaim_algorithm=reclaim)
    )
    sim = SimulationEngine()
    hv = Hypervisor(
        sim, config, host_memory_pages=4096, tmem_pool_pages=tmem_pages
    )
    record = hv.create_domain("vm", ram_pages=ram_pages)
    frontswap = None
    if tmem_pages > 0:
        hv.register_tmem_client(record.vm_id)
        frontswap = FrontswapClient(
            record.vm_id, record.frontswap_pool_id, hv.hypercalls
        )
        if target is not None:
            hv.accounting.set_target(record.vm_id, target)
    kernel = GuestKernel(
        record.vm_id,
        ram_pages=ram_pages,
        swap_pages=swap_pages,
        config=config,
        disk=hv.swap_disk,
        frontswap=frontswap,
    )
    return kernel, hv


def assert_kernels_identical(scalar, batched, hv_s, hv_b):
    assert scalar.stats == batched.stats
    assert set(scalar._resident.pages()) == set(batched._resident.pages())
    assert scalar.swap.used_pages == batched.swap.used_pages
    assert scalar.tmem_pages == batched.tmem_pages
    assert scalar.memory_footprint_pages() == batched.memory_footprint_pages()
    assert hv_s.swap_disk.stats == hv_b.swap_disk.stats
    if scalar.frontswap is not None:
        assert scalar.frontswap.stats == batched.frontswap.stats
        assert scalar.frontswap._stored == batched.frontswap._stored
        acc_s = hv_s.accounting.account(scalar.vm_id)
        acc_b = hv_b.accounting.account(batched.vm_id)
        assert acc_s == acc_b


BURSTS = st.lists(
    st.lists(st.integers(0, 50), min_size=0, max_size=40),
    min_size=1,
    max_size=25,
)


class TestKernelLevelEquivalence:
    @settings(deadline=None, max_examples=40)
    @given(bursts=BURSTS, tmem_pages=st.sampled_from([0, 3, 16, 64]),
           reclaim=st.sampled_from(["lru", "clock"]))
    def test_random_bursts(self, bursts, tmem_pages, reclaim):
        scalar, hv_s = build_kernel(
            "scalar", ram_pages=12, tmem_pages=tmem_pages, reclaim=reclaim
        )
        batched, hv_b = build_kernel(
            "batched", ram_pages=12, tmem_pages=tmem_pages, reclaim=reclaim
        )
        now = 0.0
        for burst in bursts:
            out_s = scalar.access(burst, now=now)
            out_b = batched.access(burst, now=now)
            assert out_s == out_b
            now += 0.25
        assert_kernels_identical(scalar, batched, hv_s, hv_b)

    @settings(deadline=None, max_examples=25)
    @given(bursts=BURSTS, frees=st.lists(st.integers(0, 50), max_size=20))
    def test_bursts_with_frees_and_target(self, bursts, frees):
        # A tight target forces put failures; frees exercise batched flush.
        scalar, hv_s = build_kernel(
            "scalar", ram_pages=10, tmem_pages=32, target=5
        )
        batched, hv_b = build_kernel(
            "batched", ram_pages=10, tmem_pages=32, target=5
        )
        now = 0.0
        for i, burst in enumerate(bursts):
            lat_s = scalar.access(burst, now=now).latency_s
            lat_b = batched.access(burst, now=now).latency_s
            assert lat_s == lat_b
            if i == len(bursts) // 2:
                assert scalar.free(frees, now=now) == batched.free(frees, now=now)
            now += 0.25
        assert_kernels_identical(scalar, batched, hv_s, hv_b)

    def test_sequential_sweep_matches(self):
        """The usemem-style pattern: linear sweeps over an oversized set."""
        scalar, hv_s = build_kernel("scalar", ram_pages=32, tmem_pages=24)
        batched, hv_b = build_kernel("batched", ram_pages=32, tmem_pages=24)
        now = 0.0
        for _sweep in range(4):
            for start in range(0, 64, 8):
                burst = np.arange(start, start + 8)
                out_s = scalar.access(burst, now=now)
                out_b = batched.access(burst, now=now)
                assert out_s == out_b
                now += 0.01
        assert_kernels_identical(scalar, batched, hv_s, hv_b)

    def test_intra_burst_reaccess_of_evicted_page(self):
        """A burst that re-touches a page it evicted earlier must flush the
        staged hypercall batch mid-burst and still match the scalar path."""
        scalar, hv_s = build_kernel("scalar", ram_pages=5, tmem_pages=16)
        batched, hv_b = build_kernel("batched", ram_pages=5, tmem_pages=16)
        warm = list(range(4))
        scalar.access(warm, now=0.0)
        batched.access(warm, now=0.0)
        # usable RAM is 4: page 0 is evicted when 4..7 arrive, then
        # re-accessed at the end of the same burst.
        tricky = [4, 5, 6, 7, 0, 4, 0]
        out_s = scalar.access(tricky, now=1.0)
        out_b = batched.access(tricky, now=1.0)
        assert out_s == out_b
        assert out_s.faults_from_tmem > 0
        assert_kernels_identical(scalar, batched, hv_s, hv_b)


POLICIES = ["no-tmem", "greedy", "static-alloc", "reconf-static",
            "smart-alloc:P=2"]


def run_usemem(policy, engine_kind, *, reclaim="lru", scale=0.1):
    config = SimulationConfig(
        units=SCENARIO_UNITS,
        guest=GuestConfig(access_engine=engine_kind, reclaim_algorithm=reclaim),
    )
    runner = ScenarioRunner(
        usemem_scenario(scale=scale), policy, config=config, seed=7
    )
    result = runner.run()
    kernel_stats = {name: vm.kernel.stats for name, vm in runner.vms.items()}
    return result, kernel_stats


class TestScenarioLevelEquivalence:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_usemem_scenario_identical(self, policy):
        scalar, stats_s = run_usemem(policy, "scalar")
        batched, stats_b = run_usemem(policy, "batched")

        # Guest kernel statistics: every counter and every cumulative
        # latency float must match exactly.
        assert stats_s == stats_b

        # Scenario results: per-VM aggregates, run timings, phase timings.
        assert scalar.vms == batched.vms
        assert scalar.simulated_duration_s == batched.simulated_duration_s
        assert scalar.snapshots == batched.snapshots
        assert scalar.target_updates == batched.target_updates

        # Tmem usage traces (the data behind Figures 4/6/8/10).
        if policy != "no-tmem":
            names_s = sorted(n for n in scalar.trace.names())
            names_b = sorted(n for n in batched.trace.names())
            assert names_s == names_b
            for name in names_s:
                series_s = scalar.trace.get(name)
                series_b = batched.trace.get(name)
                assert np.array_equal(series_s.times, series_b.times)
                assert np.array_equal(series_s.values, series_b.values)

    def test_usemem_scenario_identical_with_clock(self):
        scalar, stats_s = run_usemem("greedy", "scalar", reclaim="clock")
        batched, stats_b = run_usemem("greedy", "batched", reclaim="clock")
        assert stats_s == stats_b
        assert scalar.vms == batched.vms

