"""Expected fingerprints for sweep points.

A point's expected ``ScenarioResult.fingerprint()`` comes from, in order:

1. the repository's committed pins, ``tests/data/scenario_fingerprints.json``
   (keyed ``scenario|policy``, recorded at scale 0.1 and seed 2019);
2. the benchmark's own table, ``expected_fingerprints.json`` next to this
   file, recorded by ``record_fingerprints.py`` for every workload point
   at the seeds listed in it.

Points in neither have no expected fingerprint; the driver then checks
that every pass of the run reproduces the fingerprint of the first.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Optional

HERE = Path(__file__).resolve().parent
TABLE_PATH = HERE / "expected_fingerprints.json"
PINS_PATH = HERE.parent / "tests" / "data" / "scenario_fingerprints.json"

#: The (scale, seed) at which the committed pins were recorded.
PIN_SCALE = 0.1
PIN_SEED = 2019


def point_key(point) -> str:
    """Table key of an ``ExperimentPoint``."""
    return f"{point.scenario}|{point.policy}|seed={point.seed}|scale={point.scale:g}"


class Oracle:
    """Looks up the fingerprint a point is expected to produce."""

    def __init__(self, pins: Mapping[str, str], table: Mapping[str, str]) -> None:
        self.pins = dict(pins)
        self.table = dict(table)

    @classmethod
    def load(cls) -> "Oracle":
        return cls(json.loads(PINS_PATH.read_text()),
                   json.loads(TABLE_PATH.read_text())["fingerprints"])

    def expected(self, point) -> Optional[str]:
        """Expected fingerprint of an ``ExperimentPoint``, or None."""
        if point.scale == PIN_SCALE and point.seed == PIN_SEED:
            pinned = self.pins.get(f"{point.scenario}|{point.policy}")
            if pinned is not None:
                return pinned
        return self.table.get(point_key(point))
