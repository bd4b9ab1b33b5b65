"""The benchmark's own output gate, run at seed 1 for every workload.

perfbench checks each operation's output and compares it with
``perfbench/reference.json``; a change that breaks that gate fails here
first.  The workloads are imported read-only by path, as the tracer is.
"""

import json
import math
from pathlib import Path

import pytest

from test_training import load_perfbench_module

workloads = load_perfbench_module("workloads")
REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_op_passes_checks_and_matches_the_reference(name, tmp_path):
    w = workloads.WORKLOADS[name](1, tmp_path)
    w.setup()
    items, outputs = w.run_op()
    assert items > 0
    assert w.check(outputs) == []
    values = w.reference_values(outputs)
    expected = REFERENCE["values"][name]["1"]
    tol = REFERENCE["rel_tolerance"]
    assert set(values) == set(expected)
    for key, ref in expected.items():
        assert math.isclose(values[key], ref, rel_tol=tol, abs_tol=tol), (key, values[key], ref)
