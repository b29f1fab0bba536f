"""The benchmark's workloads: fixed grids of sweep points.

Each workload is a cross-product of scenarios x policies at one scale.
The workload seed (``--seed``) is the only input that varies between
runs; it becomes ``SweepSpec.seeds`` of every point.  See README.md for
why each workload was chosen and which layers it stresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

DEFAULT_SEED = 2019
SCALE = 0.25


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: Tuple[str, ...]
    #: ``None`` means every policy of ``repro.scenarios.library.PAPER_POLICIES``.
    policies: Tuple[str, ...] | None
    #: True when the points spill pages to peer nodes over the
    #: interconnect; False for single-host points, where the remote tmem
    #: layer and the interconnect must see exactly zero calls.
    remote: bool
    scale: float = SCALE

    def policy_list(self) -> Tuple[str, ...]:
        if self.policies is not None:
            return self.policies
        from repro.scenarios.library import PAPER_POLICIES

        return tuple(PAPER_POLICIES)

    def specs(self, seed: int) -> list:
        """One single-point ``SweepSpec`` per point, in sweep order."""
        from repro.experiments.spec import SweepSpec

        return [
            SweepSpec(scenarios=(scenario,), policies=(policy,), seeds=(seed,),
                      scales=(self.scale,))
            for scenario in self.scenarios
            for policy in self.policy_list()
        ]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="paper-grid",
            scenarios=("usemem-scenario", "scenario-1", "scenario-2", "scenario-3"),
            policies=None,
            remote=False,
        ),
        Workload(
            name="cluster-spill",
            scenarios=("contended:nodes=3", "cluster:nodes=4"),
            policies=("greedy", "static-alloc", "smart-alloc:P=2"),
            remote=True,
        ),
        Workload(
            name="many-vms",
            scenarios=("many-vms:n=32,ram_mb=128",),
            policies=None,
            remote=False,
        ),
    )
}
