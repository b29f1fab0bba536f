"""Tests of the benchmark's own machinery: the oracle, the loop, the tracer."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import run
from perfbench.hostspeed import REFERENCE_S, TICK_S, HostSpeedProbe, normalised
from perfbench.loop import PointProbe, run_pass
from perfbench.oracle import Oracle, point_key
from perfbench.tracer import SpanRecorder, layer_entry_points
from perfbench.workloads import DEFAULT_SEED, WORKLOADS, Workload

#: A committed pin point (tests/data/scenario_fingerprints.json is
#: recorded at scale 0.1, seed 2019) that runs in a fraction of a second.
PINNED = Workload(name="pinned", scenarios=("usemem-scenario",), policies=("greedy",),
                  remote=False, scale=0.1)


def _run(workload: Workload, oracle: Oracle, tmp_path: Path, reference=None):
    probe = PointProbe()
    probe.install()
    try:
        return run_pass(workload, 2019, scratch=tmp_path, oracle=oracle,
                        reference={} if reference is None else reference, probe=probe,
                        speed=HostSpeedProbe())
    finally:
        probe.uninstall()


def test_pinned_point_matches_committed_pin(tmp_path):
    oracle = Oracle.load()
    (spec,) = PINNED.specs(2019)
    assert oracle.expected(spec.expand()[0]) is not None
    passed = _run(PINNED, oracle, tmp_path)
    assert passed.attempted == 1
    assert passed.failures == {}
    assert passed.counts["accesses"] > 0


def test_every_point_is_normalised_by_the_probes_around_it(tmp_path):
    workload = Workload(name="two", scenarios=("usemem-scenario",),
                        policies=("greedy", "no-tmem"), remote=False, scale=0.1)
    passed = _run(workload, Oracle.load(), tmp_path)
    assert len(passed.probe_s) == passed.attempted + 1
    assert len(passed.tick_probe_s) == passed.attempted
    assert all(t > 0 for t in passed.probe_s)
    before, after = passed.probe_s[:2]
    probes = [before, *passed.tick_probe_s[0], after]
    assert passed.normalised(passed.point_wall_s)[0] == pytest.approx(
        passed.point_wall_s[0] * REFERENCE_S * len(probes) / sum(probes))
    assert normalised(2.0, 2 * REFERENCE_S) == pytest.approx(1.0)


def test_ticks_probe_while_a_block_runs_and_restore_the_signal_handler():
    import signal
    import time

    speed = HostSpeedProbe()
    previous = signal.getsignal(signal.SIGALRM)
    with speed.ticking() as ticks:
        deadline = time.perf_counter() + 3 * TICK_S
        while time.perf_counter() < deadline:
            pass
    assert len(ticks.probe_s) >= 2
    assert 0 < ticks.wall_s < 3 * TICK_S
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_host_speed_probe_leaves_the_garbage_collector_as_it_found_it():
    import gc

    speed = HostSpeedProbe()
    assert speed.nbytes >= 8 << 20
    assert gc.isenabled()
    assert speed.measure() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        speed.measure()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_perturbed_expected_fingerprint_counts_as_failure(tmp_path):
    real = Oracle.load()
    (point,) = PINNED.specs(2019)[0].expand()
    expected = real.expected(point)
    perturbed = ("0" if expected[0] != "0" else "1") + expected[1:]
    oracle = Oracle(pins={}, table={point_key(point): perturbed})
    passed = _run(PINNED, oracle, tmp_path)
    assert passed.attempted == 1
    assert list(passed.failures) == ["usemem-scenario|greedy|seed=2019|scale=0.1"]
    assert "expected" in passed.failures["usemem-scenario|greedy|seed=2019|scale=0.1"]


def test_fingerprint_that_differs_from_first_pass_counts_as_failure(tmp_path):
    reference = {"usemem-scenario|greedy|seed=2019|scale=0.1": "f" * 64}
    passed = _run(PINNED, Oracle(pins={}, table={}), tmp_path, reference)
    assert "first pass" in passed.failures["usemem-scenario|greedy|seed=2019|scale=0.1"]


def test_raising_point_counts_as_failure_and_the_loop_goes_on(tmp_path):
    workload = Workload(name="raising", scenarios=("no-such-scenario", "usemem-scenario"),
                        policies=("greedy",), remote=False, scale=0.1)
    passed = _run(workload, Oracle.load(), tmp_path)
    assert passed.attempted == 2
    assert list(passed.failures) == ["no-such-scenario|greedy|seed=2019|scale=0.1"]
    assert "usemem-scenario|greedy|seed=2019|scale=0.1" in passed.fingerprints


class _BrokenOracle(Oracle):
    def expected(self, point):
        raise OSError("expected table unreadable")


def test_check_that_raises_counts_as_failure_and_the_loop_goes_on(tmp_path):
    workload = Workload(name="broken-check", scenarios=("usemem-scenario",),
                        policies=("greedy", "no-tmem"), remote=False, scale=0.1)
    passed = _run(workload, _BrokenOracle(pins={}, table={}), tmp_path)
    assert passed.attempted == 2
    assert len(passed.failures) == 2
    assert all("OSError" in reason for reason in passed.failures.values())


def test_single_host_check_rejects_interconnect_traffic():
    recorder = SpanRecorder()
    recorder._intern("channels.NetlinkChannel.send", "channels")
    single_host = WORKLOADS["paper-grid"]
    assert run.layer_failures(single_host, recorder, 0) == []
    assert run.layer_failures(single_host, recorder, 5) == [
        "the interconnect moved 5 pages on a single host"]
    transfer = recorder._intern("channels.InterNodeChannel.note_transfer", "channels")
    recorder.name.append(transfer)
    assert run.layer_failures(single_host, recorder, 0) == [
        "the interconnect saw 1 calls on a single host"]


def test_uncontended_interconnect_accounting_is_traced():
    from repro.channels.internode import InterNodeChannel

    assert (InterNodeChannel, "note_transfer", "channels", None) in layer_entry_points()


def test_expected_table_covers_every_workload_point_at_the_default_seed():
    oracle = Oracle.load()
    for workload in WORKLOADS.values():
        for spec in workload.specs(DEFAULT_SEED):
            (point,) = spec.expand()
            assert oracle.expected(point) is not None, point


def test_self_time_subtracts_direct_children():
    recorder = SpanRecorder()
    outer = recorder._intern("sim.SimulationEngine.run", "sim")
    inner = recorder._intern("guest.GuestKernel.access", "guest")
    leaf = recorder._intern("devices.VirtualDisk.read_one", "devices")
    # (name, start, end, parent): sim [0, 10] > guest [1, 5] > devices [2, 3],
    # plus a second guest span [6, 7].
    for nid, start, end, parent in ((outer, 0, 10, -1), (inner, 1, 5, 0),
                                    (leaf, 2, 3, 1), (inner, 6, 7, 0)):
        recorder.name.append(nid)
        recorder.start.append(start)
        recorder.end.append(end)
        recorder.parent.append(parent)
        recorder.point.append(0)
    assert recorder.self_time_by_layer() == {"sim": 5.0, "guest": 4.0, "devices": 1.0}
    assert recorder.calls_by_layer() == {"sim": 1, "guest": 2, "devices": 1}


def test_tracer_restores_every_wrapped_method(tmp_path):
    originals = {(cls, attr): vars(cls)[attr] for cls, attr, _, _ in layer_entry_points()}
    recorder = SpanRecorder()
    recorder.install()
    try:
        with pytest.raises(RuntimeError):
            recorder.install()
        passed = _run(PINNED, Oracle.load(), tmp_path)
    finally:
        recorder.uninstall()
    assert passed.failures == {}
    assert recorder.calls_by_layer()["guest"] > 0
    assert {key: vars(key[0])[key[1]] for key in originals} == originals
    recorder.write_jsonl(tmp_path / "spans.jsonl.gz")


def test_benchmark_json_matches_the_driver():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
