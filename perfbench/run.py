"""Sweep benchmark driver.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-grid [--seed 2019] [--seconds 30] [--trace 0]

``--trace 0`` measures the end-to-end metrics with tracing off; its times
are normalised to the host's speed (see hostspeed.py).
``--trace 1`` is the traced run: it alternates untraced and traced passes
and reports the per-layer metrics plus the tracing overhead.  Both print
a human-readable report, then, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every point passed its checks.

Outputs other than standard output go to ``.perfbench/`` at the
repository root: scratch result stores (removed after each pass), one
JSON record per run with the host context next to the metrics, and the
traced run's spans as JSONL.  See README.md for the metrics and why each
workload was chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

#: Cold set-up samples taken before each untraced pass, so the samples
#: spread over the whole run; the median of all of them is reported.
SETUP_SAMPLES_PER_PASS = 3
#: Minimum passes per untraced run, so the median has company.
MIN_PASSES = 3
#: store_bytes may differ between passes by this much per point, because
#: each stored envelope holds the host wall-clock time as a float.
STORE_BYTES_SLACK_PER_POINT = 32

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("pages_per_s", "pages/s"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("experiments.self_s", "s"),
    ("experiments.store_bytes", "bytes"),
    ("scenarios.construct_s", "s"),
    ("scenarios.self_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_page", "events/page"),
    ("sim.self_s", "s"),
    ("guest.calls", "count"),
    ("guest.pages_per_access", "pages/call"),
    ("guest.tmem_fault_ratio", "ratio"),
    ("guest.self_s", "s"),
    ("hypervisor.calls_per_page", "calls/page"),
    ("hypervisor.pages_per_call", "pages/call"),
    ("hypervisor.put_success_ratio", "ratio"),
    ("hypervisor.self_s", "s"),
    ("remote_tmem.calls_per_page", "calls/page"),
    ("remote_tmem.spill_accept_ratio", "ratio"),
    ("remote_tmem.self_s", "s"),
    ("channels.calls_per_page", "calls/page"),
    ("channels.pages_moved", "pages"),
    ("channels.self_s", "s"),
    ("devices.calls_per_page", "calls/page"),
    ("devices.pages_per_op", "pages/call"),
    ("devices.self_s", "s"),
    ("core.decisions", "count"),
    ("core.target_updates", "count"),
    ("core.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

LAYERS = ("experiments", "scenarios", "sim", "guest", "hypervisor",
          "remote_tmem", "channels", "devices", "core")

DATA_PATH_HYPERCALLS = tuple(
    f"hypervisor.HypercallInterface.{name}"
    for name in ("tmem_put", "tmem_get", "tmem_batch", "tmem_planned",
                 "tmem_flush_page", "tmem_flush_object")
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def host_context(workload: str, seed: int, trace: int) -> Dict[str, object]:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(workload: str, seed: int, scratch: Path,
                  speed) -> Tuple[List[float], List[float]]:
    """Set-up times of SETUP_SAMPLES_PER_PASS cold processes (see
    setup_probe.py): raw, and normalised by the host-speed probes around each."""
    from perfbench.hostspeed import normalised

    probe = Path(__file__).resolve().parent / "setup_probe.py"
    samples, normalised_samples = [], []
    for _ in range(SETUP_SAMPLES_PER_PASS):
        before = speed.measure()
        started = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, str(probe), workload, str(seed), str(scratch)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.strip().splitlines()[-1]) - started)
        normalised_samples.append(normalised(samples[-1], (before + speed.measure()) / 2))
    return samples, normalised_samples


def within_budget(began: float, seconds: float, passes: int) -> bool:
    """True if one more pass, as long as the average so far, ends in time."""
    elapsed = time.perf_counter() - began
    return elapsed + elapsed / passes <= seconds


# -- untraced run -------------------------------------------------------------
def run_untraced(workload, seed: int, seconds: float, scratch: Path, oracle, speed):
    from perfbench.loop import PointProbe, run_pass, sum_of_medians

    probe = PointProbe()
    probe.install()
    reference: Dict[str, str] = {}
    passes, setup, raw_setup = [], [], []
    began = time.perf_counter()
    try:
        while len(passes) < MIN_PASSES or within_budget(began, seconds, len(passes)):
            samples, normalised_samples = measure_setup(workload.name, seed, scratch, speed)
            raw_setup += samples
            setup += normalised_samples
            passes.append(run_pass(workload, seed, scratch=scratch, oracle=oracle,
                                   reference=reference, probe=probe, speed=speed))
    finally:
        probe.uninstall()
    wall = sum_of_medians([p.normalised(p.point_wall_s) for p in passes])
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "cpu_s": sum_of_medians([p.normalised(p.point_cpu_s) for p in passes]),
        "pages_per_s": passes[0].counts["accesses"] / wall,
        # The probe's table is resident for the whole run; it is not the program's.
        "peak_rss_mb": peak_rss_mib() - speed.nbytes / 2**20,
    }
    detail = {
        "setup_samples_s": setup,
        "raw_setup_samples_s": raw_setup,
        "raw_wall_s": sum_of_medians([p.point_wall_s for p in passes]),
        "raw_cpu_s": sum_of_medians([p.point_cpu_s for p in passes]),
        "probe_median_s": statistics.median(t for p in passes for t in p.point_probe_s),
        "pass_wall_s": [p.wall_s for p in passes],
        "point_wall_s": [p.point_wall_s for p in passes],
        "point_probe_s": [p.point_probe_s for p in passes],
        "pass_cpu_s": [sum(p.point_cpu_s) for p in passes],
        "pages_accessed": passes[0].counts["accesses"],
    }
    return passes, metrics, detail, []


# -- traced run -----------------------------------------------------------------
def layer_metrics(passed, recorder) -> Dict[str, float]:
    """Count and ratio metrics of one traced pass (exactly repeatable)."""
    counts = passed.counts
    pages = counts["accesses"]
    calls = recorder.calls_by_layer()
    by_name = recorder.calls_by_name()
    tallies = recorder.tallies
    data_path_calls = sum(by_name[name] for name in DATA_PATH_HYPERCALLS)
    return {
        "experiments.store_bytes": counts["store_bytes"],
        "sim.events": counts["events"],
        "sim.events_per_page": _ratio(counts["events"], pages),
        "guest.calls": calls["guest"],
        "guest.pages_per_access": _ratio(pages, by_name["guest.GuestKernel.access"]),
        "guest.tmem_fault_ratio": _ratio(counts["tmem_faults"],
                                         counts["major_faults"]),
        "hypervisor.calls_per_page": _ratio(calls["hypervisor"], pages),
        "hypervisor.pages_per_call": _ratio(tallies["hypercall_pages"], data_path_calls),
        "hypervisor.put_success_ratio": _ratio(counts["puts_succ"],
                                               counts["puts_total"]),
        "remote_tmem.calls_per_page": _ratio(calls["remote_tmem"], pages),
        "remote_tmem.spill_accept_ratio": _ratio(
            tallies["spills_accepted"], by_name["remote_tmem.RemoteTmemBackend.spill_put"]),
        "channels.calls_per_page": _ratio(calls["channels"], pages),
        "channels.pages_moved": counts["pages_moved"],
        "devices.calls_per_page": _ratio(calls["devices"], pages),
        "devices.pages_per_op": _ratio(tallies["disk_pages"], calls["devices"]),
        "core.decisions": sum(n for name, n in by_name.items() if name.endswith(".decide")),
        "core.target_updates": counts["target_updates"],
    }


def repeat_failures(first: Dict[str, float], other: Dict[str, float],
                    points: int) -> List[str]:
    """Count and ratio metrics that differ between two traced passes."""
    problems = []
    for name, value in first.items():
        if name == "experiments.store_bytes":
            if abs(other[name] - value) > STORE_BYTES_SLACK_PER_POINT * points:
                problems.append(f"{name} {value} vs {other[name]}")
        elif other[name] != value:
            problems.append(f"{name} {value!r} vs {other[name]!r}")
    return problems


def layer_failures(workload, recorder, pages_moved: int) -> List[str]:
    """Remote tmem and the interconnect: idle on one host, busy on a cluster."""
    calls = recorder.calls_by_layer()
    internode = sum(n for name, n in recorder.calls_by_name().items()
                    if name.startswith("channels.InterNodeChannel."))
    if workload.remote:
        return [] if calls["remote_tmem"] > 0 else ["remote_tmem saw no calls"]
    problems = []
    if calls["remote_tmem"]:
        problems.append(f"remote_tmem saw {calls['remote_tmem']} calls on a single host")
    if internode:
        problems.append(f"the interconnect saw {internode} calls on a single host")
    if pages_moved:
        problems.append(f"the interconnect moved {pages_moved} pages on a single host")
    return problems


def run_traced(workload, seed: int, seconds: float, scratch: Path, oracle, speed):
    from perfbench.loop import PointProbe, run_pass
    from perfbench.tracer import SpanRecorder

    probe = PointProbe()
    probe.install()
    reference: Dict[str, str] = {}
    passes, untraced_wall, traced = [], [], []
    recorder = None
    began = time.perf_counter()
    try:
        # Untraced, traced, traced; then untraced/traced pairs while a
        # pair still ends within --seconds.
        schedule = [False, True, True]
        while schedule or within_budget(began, seconds, len(passes) // 2):
            if not schedule:
                schedule = [False, True]
            if not schedule.pop(0):
                passes.append(run_pass(workload, seed, scratch=scratch, oracle=oracle,
                                       reference=reference, probe=probe, speed=speed))
                untraced_wall.append(passes[-1].wall_s)
                continue
            # Only the last traced pass's spans are kept for the JSONL.
            recorder = SpanRecorder()
            recorder.install()
            try:
                passes.append(run_pass(workload, seed, scratch=scratch, oracle=oracle,
                                       reference=reference, probe=probe, speed=speed,
                                       recorder=recorder))
            finally:
                recorder.uninstall()
            traced.append({
                "wall_s": passes[-1].wall_s,
                "counts": layer_metrics(passes[-1], recorder),
                "self_s": recorder.self_time_by_layer(),
                "construct_s": recorder.inclusive_time("scenarios.ScenarioRunner.__init__"),
            })
    finally:
        probe.uninstall()

    problems: List[str] = []
    for other in traced[1:]:
        problems += repeat_failures(traced[0]["counts"], other["counts"], passes[0].attempted)
    problems += layer_failures(workload, recorder, traced[0]["counts"]["channels.pages_moved"])

    traced_wall = statistics.median(t["wall_s"] for t in traced)
    baseline_wall = statistics.median(untraced_wall)
    metrics: Dict[str, float] = dict(traced[0]["counts"])
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = statistics.median(t["self_s"][layer] for t in traced)
    metrics["scenarios.construct_s"] = statistics.median(t["construct_s"] for t in traced)
    metrics["trace.overhead_frac"] = (traced_wall - baseline_wall) / baseline_wall

    spans_path = OUT / f"spans-{workload.name}.jsonl.gz"
    recorder.write_jsonl(spans_path)

    detail = {
        "traced_wall_s": [t["wall_s"] for t in traced],
        "untraced_wall_s": untraced_wall,
        "self_share_of_traced_wall": {
            layer: metrics[f"{layer}.self_s"] / traced_wall for layer in LAYERS
        },
        "calls_by_entry_point": dict(recorder.calls_by_name()),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans": len(recorder),
    }
    return passes, metrics, detail, problems


# -- report ---------------------------------------------------------------------
def report(context, metrics, units, detail, passes, problems) -> dict:
    from perfbench.hostspeed import REFERENCE_S
    from perfbench.loop import failure_summary

    failures: Dict[str, str] = {}
    for passed in passes:
        failures.update(passed.failures)
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    correct = failed == 0 and not problems

    print(f"# perfbench {context['workload']} seed={context['seed']} "
          f"trace={context['trace']} nproc={context['nproc']} "
          f"python={context['python']} passes={len(passes)}")
    for name, unit in units:
        print(f"{name:<32} {metrics[name]:>16.6g} {unit}")
    print(f"{'failed_frac':<32} {_ratio(failed, attempted):>16.6g} ratio "
          f"({failed} of {attempted} points)")
    if "probe_median_s" in detail:
        print(f"# times are normalised to a host-speed probe of "
              f"{REFERENCE_S * 1e3:g} ms; its median here was "
              f"{detail['probe_median_s'] * 1e3:.3f} ms; raw wall_s "
              f"{detail['raw_wall_s']:.6g} s, raw cpu_s {detail['raw_cpu_s']:.6g} s")
    if "self_share_of_traced_wall" in detail:
        print("# layer        self_s   share of traced wall_s")
        for layer, share in detail["self_share_of_traced_wall"].items():
            print(f"  {layer:<12} {metrics[layer + '.self_s']:>8.3f} {share:>8.1%}")
    for line in failure_summary(failures) + [f"CHECK {p}" for p in problems]:
        print(line)

    record = {
        "host": context,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": _ratio(failed, attempted),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
        "detail": detail,
        "problems": problems,
    }
    path = OUT / "results" / (f"{context['workload']}-seed{context['seed']}"
                              f"-trace{context['trace']}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")
    return {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}


def parse_args(argv: List[str]) -> argparse.Namespace:
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.hostspeed import HostSpeedProbe
    from perfbench.oracle import Oracle
    from perfbench.workloads import WORKLOADS

    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    scratch = OUT / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    run = run_traced if args.trace else run_untraced
    units = PER_LAYER if args.trace else END_TO_END
    passes, metrics, detail, problems = run(workload, args.seed, args.seconds, scratch,
                                            Oracle.load(), HostSpeedProbe())
    line = report(host_context(workload.name, args.seed, args.trace), metrics, units,
                  detail, passes, problems)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
