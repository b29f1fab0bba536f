"""The ``print_improvements`` helper that the figure benches share.

It skips a VM or run that the candidate result lacks (``AnalysisError``)
and lets any other error through, so a bug in a result accessor fails
the bench instead of printing a shorter table.
"""

from __future__ import annotations

import dataclasses

import pytest

from conftest import print_improvements

from repro.scenarios.library import scenario_1
from repro.scenarios.runner import run_scenario


@pytest.fixture(scope="module")
def greedy():
    return run_scenario(scenario_1(scale=0.1), "greedy", seed=11)


def test_missing_vm_is_skipped(greedy, capsys):
    vms = dict(greedy.vms)
    del vms["VM1"]
    partial = dataclasses.replace(greedy, vms=vms)
    print_improvements({"base": greedy, "cand": partial},
                       baseline="base", candidate="cand")
    out = capsys.readouterr().out
    assert "VM1/" not in out
    assert "VM2/run1" in out


def test_unexpected_error_propagates(greedy):
    class Broken:
        def runtime_of(self, vm_name, run_index=0):
            raise RuntimeError("bug in runtime_of")

    with pytest.raises(RuntimeError, match="bug in runtime_of"):
        print_improvements({"base": greedy, "cand": Broken()},
                           baseline="base", candidate="cand")
