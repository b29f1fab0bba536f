"""Sharded cluster execution: one engine shard per node group, in
worker processes.

:class:`ShardedClusterRunner` runs a multi-node scenario with each
*node group* on its own :class:`~repro.sim.engine.SimulationEngine` in a
separate worker process, and merges the per-group results into one
:class:`~repro.scenarios.results.ScenarioResult` whose fingerprint is
bit-identical to the shared-engine :class:`~repro.cluster.cluster.Cluster`
run of the same scenario.

Why this is exact
-----------------
Two nodes of a cluster interact only through explicit machinery: the
remote-tmem spill port, the capacity coordinator, the contended
interconnect's per-link queues, failover/migration events and cross-node
phase triggers.  When none of those is in play the nodes are *decoupled*:
every event of node ``A`` commutes with every event of node ``B``, so the
shared engine is merely interleaving independent event streams.  Each
worker therefore builds the **full** cluster (identical construction
order, domain ids and per-name RNG streams) but starts and runs only its
own nodes' samplers and VMs; the relative order of a group's events —
the only order that can matter — is preserved, and every float is
computed by the same code on the same operands.

The one global quantity is the stop time: the shared engine stops when
the *last* VM cluster-wide goes idle, and until then the already-idle
nodes keep taking their one-second statistics samples.  The sharded run
reproduces this with a two-phase protocol:

1. every worker runs until its own group is idle (or the deadline) and
   reports its local stop time ``T_g``;
2. the coordinator broadcasts ``T* = max(T_g)`` and each worker resumes
   with ``engine.run(until=T*)``, replaying exactly the sampler tail the
   shared engine would have interleaved, then finalizes its nodes.

Coupled topologies (remote spill, a coordinator, contention, failures,
migrations, cross-node or stop triggers) run the ordinary shared-engine
:class:`~repro.scenarios.runner.ScenarioRunner` in this process, with no
worker spawned: splitting them at time barriers cannot preserve
bit-identity because spill admission and capacity decisions read
*instantaneous* peer state (free frame counts) that any lock-step
quantum would stale.  The fallback keeps the fingerprint guarantee
unconditional; see PERFORMANCE.md for when sharding actually pays off.

Workers are spawned with the ``spawn`` multiprocessing context and talk
over pipes, crossing the process boundary as the same strict-JSON dicts
the parallel sweep backends use (``ScenarioResult.to_dict`` /
``VmResult.to_dict``), so a sharded run composes with everything that
already consumes serialized results.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time as _time
import traceback
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..config import SimulationConfig
from ..errors import ClusterError, SimulationError
from ..scenarios.results import ScenarioResult, VmResult
from ..scenarios.spec import ScenarioSpec
from ..sim.trace import TraceRecorder
from ..units import SCENARIO_UNITS, MemoryUnits

__all__ = [
    "ShardedClusterRunner",
    "coupling_reason",
    "resolve_shards",
    "run_scenario_sharded",
]


def coupling_reason(spec: ScenarioSpec, *, use_tmem: bool = True) -> Optional[str]:
    """Why this scenario's nodes cannot run on independent engines.

    Returns ``None`` when the topology is *decoupled* (safe to shard one
    engine per node), else a human-readable reason used in diagnostics
    and to select the in-process shared-engine fallback.
    """
    topology = spec.topology
    if topology is None:
        return "single-host scenario (no cluster topology)"
    if len(topology.nodes) < 2:
        return "single-node topology"
    if use_tmem and topology.remote_spill:
        return "remote-tmem spill couples the nodes"
    if use_tmem and topology.coordinator:
        return "capacity coordinator couples the nodes"
    if topology.contended:
        return "contended interconnect shares per-link queues"
    if topology.failures:
        return "node failures fail VMs over across nodes"
    if topology.migrations:
        return "planned VM migrations cross nodes"
    if topology.fault_plan is not None:
        return "fault plan injects cross-node faults"
    node_of = {
        vm_name: node.name
        for node in topology.nodes
        for vm_name in node.vm_names
    }
    for trigger in spec.phase_triggers:
        if trigger.start_vm and (
            node_of.get(trigger.watch_vm) != node_of.get(trigger.start_vm)
        ):
            return (
                f"phase trigger {trigger.watch_vm!r} -> {trigger.start_vm!r} "
                "crosses nodes"
            )
    if spec.stop_trigger is not None:
        return "stop trigger halts every VM cluster-wide"
    return None


def resolve_shards(
    shards: "int | str | None", group_count: int
) -> int:
    """Turn a ``--shards`` value (``N``/``"auto"``/``None``) into a count."""
    if shards is None:
        return 1
    if shards == "auto":
        return max(1, min(group_count, os.cpu_count() or 1))
    try:
        count = int(shards)
    except (TypeError, ValueError):
        raise ClusterError(
            f"shards must be a positive integer or 'auto', got {shards!r}"
        ) from None
    if count < 1:
        raise ClusterError(f"shards must be >= 1, got {count}")
    return min(count, group_count)


def _resolve_config(
    config: Optional[SimulationConfig],
    units: Optional[MemoryUnits],
    seed: Optional[int],
) -> SimulationConfig:
    """The exact config resolution :class:`ScenarioRunner` performs."""
    base = config if config is not None else SimulationConfig(
        units=units if units is not None else SCENARIO_UNITS
    )
    if units is not None and base.units is not units:
        base = base.with_overrides(units=units)
    if seed is not None:
        base = base.with_overrides(seed=seed)
    return base


def _require_shardable(spec: ScenarioSpec, config: SimulationConfig) -> None:
    """Fail with a clear :class:`ClusterError` before any worker spawns.

    Worker processes are spawned fresh, so the scenario must (a) pickle
    and (b) reference only workload kinds the ``repro`` package itself
    registers at import time — a custom kind registered by the calling
    program would not exist in the worker and would die with an opaque
    remote traceback instead.
    """
    from ..workloads.registry import workload_class

    for vm in spec.vms:
        for job in vm.jobs:
            try:
                cls = workload_class(job.kind)
            except Exception as exc:
                raise ClusterError(
                    f"VM {vm.name!r} uses workload kind {job.kind!r} which "
                    f"is not registered ({exc}); sharded execution cannot "
                    "rebuild it in a worker process"
                ) from None
            if not (cls.__module__ or "").startswith("repro."):
                raise ClusterError(
                    f"VM {vm.name!r} uses custom workload kind {job.kind!r} "
                    f"({cls.__module__}.{cls.__qualname__}); worker processes "
                    "start from a fresh interpreter and would not have it "
                    "registered — run without --shards (or shards=1 "
                    "in-process) for custom workloads"
                )
    for label, value in (("scenario spec", spec), ("config", config)):
        try:
            pickle.dumps(value)
        except Exception as exc:
            raise ClusterError(
                f"{label} for {spec.name!r} is not serializable for sharded "
                f"execution ({type(exc).__name__}: {exc}); run without "
                "--shards"
            ) from None


def _chunk(groups: Sequence[Tuple[str, ...]], buckets: int) -> List[Tuple[str, ...]]:
    """Partition node groups into *buckets* contiguous, non-empty chunks."""
    buckets = min(buckets, len(groups))
    out: List[Tuple[str, ...]] = []
    start = 0
    for i in range(buckets):
        size = len(groups) // buckets + (1 if i < len(groups) % buckets else 0)
        chunk = groups[start:start + size]
        start += size
        out.append(tuple(name for group in chunk for name in group))
    return out


class _ShardTask:
    """One worker's share of a sharded run (also usable in-process).

    The task drives only the nodes named in ``group`` on its private
    engine, following the two-phase stop protocol described in the
    module docstring.
    """

    def __init__(self, payload: Dict[str, Any]) -> None:
        from ..scenarios.runner import ScenarioRunner

        self.spec: ScenarioSpec = payload["spec"]
        self.group: Tuple[str, ...] = tuple(payload["group"])
        self.runner = ScenarioRunner(
            self.spec, payload["policy_spec"], config=payload["config"],
            check_invariants=payload["check_invariants"],
        )

    # -- sharded phases ------------------------------------------------------
    def phase1(self) -> Dict[str, Any]:
        runner = self.runner
        cluster = runner.cluster
        assert cluster is not None  # decoupled implies a topology
        self._nodes = [
            node for node in cluster.nodes if node.name in self.group
        ]
        for node in self._nodes:
            node.start()
        cluster.start_invariant_checker()
        self._vms = {
            name: vm
            for node in self._nodes
            for name, vm in node.vms.items()
        }
        for name, vm in self._vms.items():
            if name not in runner._trigger_started_vms:
                vm.start()
        deadline = min(
            self.spec.max_duration_s, runner.config.max_simulated_time_s
        )
        self._deadline = deadline
        vms = list(self._vms.values())

        def group_idle() -> bool:
            return all(vm.is_idle for vm in vms)

        runner.engine.run(until=deadline, stop_when=group_idle)
        return {
            "now": runner.engine.now,
            "running": [
                name for name, vm in self._vms.items() if not vm.is_idle
            ],
        }

    def phase2(self, t_star: float) -> Dict[str, Any]:
        runner = self.runner
        engine = runner.engine
        if t_star > engine.now:
            # Replay the sampler tail the shared engine would have
            # interleaved between this group going idle and the global
            # stop.
            engine.run(until=t_star)
        cluster = runner.cluster
        assert cluster is not None
        cluster.stop_invariant_checker()
        vm_results: Dict[str, Dict[str, Any]] = {}
        for node in self._nodes:
            node.finalize()
            node.check_invariants()
            for name, result in node.collect_vm_results().items():
                vm_results[name] = result.to_dict()

        owned = {node.name for node in self._nodes}
        owned.update(f"vm{vm.vm_id}" for vm in self._vms.values())
        trace: Dict[str, Any] = {}
        for name, series in runner.trace.as_dict().items():
            if name.rpartition("/")[2] in owned:
                trace[name] = series.to_dict()

        described = cluster.describe_nodes()
        return {
            "vms": vm_results,
            "trace": trace,
            "nodes": {name: described[name] for name in owned & set(described)},
            "tmem_pages": sum(node.total_tmem_pages for node in self._nodes),
            "target_updates": sum(node.target_updates for node in self._nodes),
            "snapshots": sum(node.snapshots for node in self._nodes),
            "events": engine.events_executed,
            "pages": sum(
                vm.kernel.stats.accesses for vm in self._vms.values()
            ),
        }



def _shard_worker_main(conn) -> None:
    """Entry point of one spawned shard worker."""
    try:
        payload = conn.recv()
        task = _ShardTask(payload)
        conn.send(("phase1", task.phase1()))
        command, t_star = conn.recv()
        if command == "phase2":
            conn.send(("done", task.phase2(t_star)))
    except Exception:  # re-raised in the parent as a positioned ClusterError
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:
            pass  # parent gone or pipe closed: it reports the EOF itself
    finally:
        conn.close()


class ShardedClusterRunner:
    """Run one scenario with node groups sharded across worker processes.

    Drop-in alternative to
    :func:`~repro.scenarios.runner.run_scenario` for cluster scenarios:
    ``ShardedClusterRunner(spec, policy).run()`` returns a
    :class:`ScenarioResult` whose ``fingerprint()`` equals the
    shared-engine run's, for **every** topology — decoupled ones run
    genuinely in parallel, coupled ones run the shared engine in this
    process.

    Parameters
    ----------
    shards:
        ``"auto"`` (one worker per node group, capped at the CPU count),
        a positive integer, or ``None`` for a single worker.
    inline:
        Run the shard tasks sequentially in this process instead of
        spawning workers.  Same simulation, same fingerprints — used by
        tests and useful on single-core hosts where process spawn
        overhead cannot be amortized.
    check_invariants:
        Arm the inline invariant checker in every shard (``None`` reads
        the ``SMARTMEM_CHECK_INVARIANTS`` environment default, as
        :class:`~repro.scenarios.runner.ScenarioRunner` does).
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        policy_spec: str,
        *,
        shards: "int | str | None" = "auto",
        config: Optional[SimulationConfig] = None,
        units: Optional[MemoryUnits] = None,
        seed: Optional[int] = None,
        inline: bool = False,
        check_invariants: Optional[bool] = None,
    ) -> None:
        from ..scenarios.runner import NO_TMEM_POLICY

        self.spec = spec
        self.policy_spec = policy_spec
        self.config = _resolve_config(config, units, seed)
        self.inline = inline
        self.check_invariants = check_invariants
        self.coupled_reason = coupling_reason(
            spec, use_tmem=policy_spec != NO_TMEM_POLICY
        )
        if self.coupled_reason is None:
            assert spec.topology is not None
            groups: List[Tuple[str, ...]] = [
                (node.name,) for node in spec.topology.nodes
            ]
        else:
            node_names = (
                spec.topology.node_names() if spec.topology else ("node1",)
            )
            groups = [tuple(node_names)]
        self.shard_count = resolve_shards(shards, len(groups))
        if self.shard_count == 1:
            groups = [tuple(name for group in groups for name in group)]
            self.buckets = list(groups)
        else:
            self.buckets = _chunk(groups, self.shard_count)
        #: True when the run takes the in-process shared-engine fallback.
        self.exact = self.coupled_reason is not None or len(self.buckets) == 1
        #: Cluster-wide engine events / guest page accesses of the last
        #: run() — summed across shards; they match the shared-engine
        #: counters.
        self.events_executed = 0
        self.pages_accessed = 0

    # -- execution -----------------------------------------------------------
    def _payload(self, bucket: Tuple[str, ...]) -> Dict[str, Any]:
        return {
            "spec": self.spec,
            "policy_spec": self.policy_spec,
            "config": self.config,
            "group": bucket,
            "check_invariants": self.check_invariants,
        }

    def run(self) -> ScenarioResult:
        wall_start = _time.perf_counter()
        if self.exact:
            outcome = self._run_shared()
        elif self.inline:
            outcome = self._run_inline()
        else:
            _require_shardable(self.spec, self.config)
            outcome = self._run_processes()
        outcome.wall_clock_s = _time.perf_counter() - wall_start
        return outcome

    def _run_shared(self) -> ScenarioResult:
        from ..scenarios.runner import ScenarioRunner

        runner = ScenarioRunner(
            self.spec, self.policy_spec, config=self.config,
            check_invariants=self.check_invariants,
        )
        result = runner.run()
        self.events_executed = runner.engine.events_executed
        self.pages_accessed = sum(
            vm.kernel.stats.accesses for vm in runner.vms.values()
        )
        return result

    def _run_inline(self) -> ScenarioResult:
        tasks = [_ShardTask(self._payload(bucket)) for bucket in self.buckets]
        reports = [task.phase1() for task in tasks]
        self._check_finished(reports)
        t_star = max(report["now"] for report in reports)
        finals = [task.phase2(t_star) for task in tasks]
        return self._assemble(t_star, finals)

    def _run_processes(self) -> ScenarioResult:
        context = multiprocessing.get_context("spawn")
        workers: List[Tuple[Any, Any]] = []
        try:
            for bucket in self.buckets:
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=_shard_worker_main, args=(child_conn,), daemon=True
                )
                process.start()
                child_conn.close()
                parent_conn.send(self._payload(bucket))
                workers.append((process, parent_conn))

            reports = []
            for _, conn in workers:
                kind, data = self._recv(conn)
                if kind != "phase1":  # pragma: no cover - protocol breach
                    raise ClusterError(f"shard worker sent {kind!r} in phase 1")
                reports.append(data)
            self._check_finished(reports)
            t_star = max(report["now"] for report in reports)
            for _, conn in workers:
                conn.send(("phase2", t_star))
            finals = []
            for _, conn in workers:
                kind, data = self._recv(conn)
                if kind != "done":  # pragma: no cover - protocol breach
                    raise ClusterError(f"shard worker sent {kind!r} in phase 2")
                finals.append(data)
            return self._assemble(t_star, finals)
        finally:
            for process, conn in workers:
                conn.close()
                process.join(timeout=10.0)
                if process.is_alive():  # pragma: no cover - hung worker
                    process.terminate()

    def _recv(self, conn) -> Tuple[str, Dict[str, Any]]:
        try:
            kind, data = conn.recv()
        except (EOFError, ConnectionResetError):
            raise ClusterError(
                "shard worker exited without reporting a result (it may "
                "have been killed by the OS)"
            ) from None
        if kind == "error":
            raise ClusterError(f"shard worker failed:\n{data}")
        return kind, data

    def _check_finished(self, reports: List[Dict[str, Any]]) -> None:
        unfinished = [
            name for report in reports for name in report["running"]
        ]
        if unfinished:
            deadline = min(
                self.spec.max_duration_s, self.config.max_simulated_time_s
            )
            raise SimulationError(
                f"scenario {self.spec.name!r} under {self.policy_spec!r} did "
                f"not finish within {deadline:.0f} simulated seconds; still "
                f"running: {unfinished}"
            )

    # -- assembly ------------------------------------------------------------
    def _assemble(
        self, t_star: float, finals: List[Dict[str, Any]]
    ) -> ScenarioResult:
        topology = self.spec.topology
        assert topology is not None
        self.events_executed = sum(final["events"] for final in finals)
        self.pages_accessed = sum(final["pages"] for final in finals)
        vms: Dict[str, VmResult] = {}
        trace_data: Dict[str, Any] = {}
        node_info: Dict[str, Dict[str, Any]] = {}
        for final in finals:
            for name, data in final["vms"].items():
                vms[name] = VmResult.from_dict(data)
            for name, data in final["trace"].items():
                if name in trace_data:  # pragma: no cover - ownership bug
                    raise ClusterError(
                        f"trace series {name!r} produced by two shards"
                    )
                trace_data[name] = data
            node_info.update(final["nodes"])
        cluster_info = {
            "topology": {
                "node_count": len(topology.nodes),
                "remote_spill": topology.remote_spill,
                "coordinator": topology.coordinator,
            },
            # Shared-engine key order (node placement order), although
            # the canonical fingerprint form sorts keys anyway.
            "nodes": {
                name: node_info[name] for name in topology.node_names()
            },
            "capacity_moves": 0,
            "interconnect_pages_moved": 0,
        }
        return ScenarioResult(
            scenario_name=self.spec.name,
            policy_spec=self.policy_spec,
            seed=self.config.seed,
            total_tmem_pages=sum(final["tmem_pages"] for final in finals),
            simulated_duration_s=t_star,
            vms=vms,
            trace=TraceRecorder.from_dict(trace_data),
            target_updates=sum(final["target_updates"] for final in finals),
            snapshots=sum(final["snapshots"] for final in finals),
            wall_clock_s=0.0,
            cluster=cluster_info,
        )


def run_scenario_sharded(
    spec: ScenarioSpec,
    policy_spec: str,
    *,
    shards: "int | str | None" = "auto",
    config: Optional[SimulationConfig] = None,
    units: Optional[MemoryUnits] = None,
    seed: Optional[int] = None,
    inline: bool = False,
    check_invariants: Optional[bool] = None,
) -> ScenarioResult:
    """One-call convenience wrapper around :class:`ShardedClusterRunner`."""
    return ShardedClusterRunner(
        spec,
        policy_spec,
        shards=shards,
        config=config,
        units=units,
        seed=seed,
        inline=inline,
        check_invariants=check_invariants,
    ).run()
