"""Set-up probe: one cold process, stopped at the first point's ``run()``.

Usage::

    python3 perfbench/setup_probe.py WORKLOAD SEED SCRATCH_DIR

The probe imports the driver's closed loop and the ``repro`` package from
a cold interpreter, expands the first point's sweep spec and builds its
runner exactly as a benchmark pass does.  When ``ScenarioRunner.run()`` is
entered it prints ``CLOCK_MONOTONIC`` (a clock shared by every process on
the host) and exits, so the parent computes set-up time as that stamp
minus the stamp it took just before starting the process.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


class _RunEntered(Exception):
    pass


def main(argv: list) -> int:
    workload_name, seed, scratch = argv[0], int(argv[1]), argv[2]
    from perfbench.workloads import WORKLOADS
    from repro.experiments.backends import SerialBackend
    from repro.experiments.store import ResultStore
    from repro.experiments.sweep import run_sweep
    from repro.scenarios.runner import ScenarioRunner

    def entered(runner):
        raise _RunEntered(time.clock_gettime(time.CLOCK_MONOTONIC))

    ScenarioRunner.run = entered
    spec = WORKLOADS[workload_name].specs(seed)[0]
    try:
        run_sweep(spec, backend=SerialBackend(), store=ResultStore(scratch))
    except _RunEntered as stamp:
        print(repr(stamp.args[0]))
        return 0
    print("setup probe: first point finished without calling run()", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
