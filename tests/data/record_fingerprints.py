"""Re-record tests/data/scenario_fingerprints*.json.

Run this only when a PR *intentionally* changes simulation semantics;
the pins exist so that pure-performance PRs can prove they changed
nothing.  Usage::

    PYTHONPATH=src python tests/data/record_fingerprints.py

Three files are written:

* ``scenario_fingerprints.json`` — the full bit-exact
  ``ScenarioResult.fingerprint()`` of every (scenario, policy) pin
  point under the default (batched) guest engine.
* ``scenario_fingerprints_epoch.json`` — the
  ``ScenarioResult.aggregate_fingerprint()`` (integer counters,
  run/phase structure and end-of-run trace values only) of the coupled
  cluster pin points run under the **epoch** cluster engine
  (``cluster_engine="epoch"``, one inline shard).  Epoch results differ
  from the exact engine's by design (window-quantized cross-node
  effects), so they carry their own pins; the engine's contract makes
  them invariant across shard counts, so recording at one shard pins
  every shard configuration.
* ``fault_fingerprints.json`` — the full fingerprint of the
  fault-injection pin points (``FAULT_SCENARIOS`` x ``FAULT_POLICIES``).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.cluster.sharded import run_scenario_sharded
from repro.config import GuestConfig, SimulationConfig
from repro.scenarios.library import PAPER_POLICIES
from repro.scenarios.registry import scenario_by_name
from repro.scenarios.runner import run_scenario
from repro.units import SCENARIO_UNITS

SCENARIOS = (
    "usemem-scenario",
    "scenario-1",
    "scenario-2",
    "scenario-3",
    "cluster:nodes=3",
)

#: Coupled cluster pin points for the epoch engine (spill+coordinator,
#: hot-node imbalance, contended interconnect).
EPOCH_SCENARIOS = (
    "cluster:nodes=3",
    "cluster:nodes=4",
    "hotnode:",
    "contended:",
)

#: Fault-injection pin points (transient failure + rejoin + failback;
#: flaky adds a lossy/throttled link and a flapping partition).  The
#: fault windows are shortened so the whole choreography — fail, breaker
#: open, heal, breaker close, rejoin, failback — completes within the
#: ~22 s the scenario simulates at scale 0.1.  A policy subset keeps the
#: recording fast; the full 9-policy sweep runs un-pinned in CI.
FAULT_SCENARIOS = (
    "faulty:nodes=3,fail_at=8,down_s=6",
    "flaky:nodes=3,fail_at=8,down_s=6",
)
FAULT_POLICIES = (
    "no-tmem",
    "greedy",
    "static-alloc",
    "reconf-static",
    "smart-alloc:P=2",
    "smart-alloc:P=6",
)


def main() -> None:
    pins = {}
    config = SimulationConfig(
        units=SCENARIO_UNITS, guest=GuestConfig(access_engine="batched")
    )
    for scenario in SCENARIOS:
        spec = scenario_by_name(scenario, scale=0.1)
        for policy in PAPER_POLICIES:
            result = run_scenario(spec, policy, config=config, seed=2019)
            pins[f"{scenario}|{policy}"] = result.fingerprint()
    here = Path(__file__).parent
    path = here / "scenario_fingerprints.json"
    path.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} pins to {path}")

    epoch_pins = {}
    for scenario in EPOCH_SCENARIOS:
        spec = scenario_by_name(scenario, scale=0.1)
        for policy in PAPER_POLICIES:
            result = run_scenario_sharded(
                spec,
                policy,
                shards=1,
                config=config,
                seed=2019,
                inline=True,
                cluster_engine="epoch",
            )
            epoch_pins[f"{scenario}|{policy}"] = (
                result.aggregate_fingerprint()
            )
    epoch_path = here / "scenario_fingerprints_epoch.json"
    epoch_path.write_text(
        json.dumps(epoch_pins, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {len(epoch_pins)} epoch pins to {epoch_path}")

    fault_pins = {}
    for scenario in FAULT_SCENARIOS:
        spec = scenario_by_name(scenario, scale=0.1)
        for policy in FAULT_POLICIES:
            result = run_scenario(spec, policy, config=config, seed=2019)
            fault_pins[f"{scenario}|{policy}"] = result.fingerprint()
    fault_path = here / "fault_fingerprints.json"
    fault_path.write_text(
        json.dumps(fault_pins, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {len(fault_pins)} fault pins to {fault_path}")


if __name__ == "__main__":
    main()
