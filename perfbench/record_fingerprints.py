"""Re-record ``expected_fingerprints.json``: the benchmark's correctness table.

Run only when a change intentionally alters simulation results::

    python3 perfbench/record_fingerprints.py

Every point of every workload is run at the workload default seed and at
the second seed the benchmark doc reports, through the same ``run_sweep`` path the benchmark uses, and its
``ScenarioResult.fingerprint()`` is stored.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.oracle import TABLE_PATH, point_key  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, SCALE, WORKLOADS  # noqa: E402

SECOND_SEED = 7


def main() -> int:
    from repro.experiments.backends import SerialBackend
    from repro.experiments.sweep import run_sweep

    seeds = [DEFAULT_SEED, SECOND_SEED]
    table = {}
    for workload in WORKLOADS.values():
        for seed in seeds:
            for spec in workload.specs(seed):
                outcome = run_sweep(spec, backend=SerialBackend(), store=None)
                for point, result in outcome.results.items():
                    table[point_key(point)] = result.fingerprint()
            print(f"{workload.name} seed={seed}: {len(workload.specs(seed))} points")
    TABLE_PATH.write_text(json.dumps(
        {"scale": SCALE, "seeds": seeds, "fingerprints": dict(sorted(table.items()))},
        indent=1,
    ) + "\n")
    print(f"wrote {len(table)} fingerprints to {TABLE_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
