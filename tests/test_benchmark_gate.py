"""The benchmark's own output gate, run at seed 1 for every workload.

perfbench checks each operation's output and compares it with
``perfbench/reference.json``; a change that breaks that gate fails here
first.  The workloads are imported read-only by path, as the tracer is.
"""

import json
import math
from pathlib import Path

import pytest

from gesturesynth import pipeline
from test_pipeline import blas_threads
from test_training import load_perfbench_module

workloads = load_perfbench_module("workloads")
REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text())

# sha256 of the seed-1 outputs of the sampling workloads, under the
# benchmark's one BLAS thread.  Sampling keeps every bit across changes that
# claim to (batched chains, per-item products); another BLAS build or CPU
# kernel may need them recorded again.
SAMPLING_DIGESTS = {
    "eval": "b779f1e3721e3f7e283b31850a672fbb096eeff6c4ae72ec1f090673d5843193",
    "longform": "919524236fe934bf924c277d9705075b717b64276846d0f051a3eecc6cea1fc7",
}


@pytest.fixture
def one_blas_thread():
    """perfbench's BLAS policy, one thread, for the test; restored after it."""
    setter, before = pipeline._blas_thread_setter(), blas_threads()
    if setter is not None:
        setter(1)
    yield
    if setter is not None and before is not None:
        setter(before)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_op_passes_checks_and_matches_the_reference(name, tmp_path, one_blas_thread):
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
    if name in SAMPLING_DIGESTS:
        assert w.digest(outputs) == SAMPLING_DIGESTS[name]


def test_eval_digest_does_not_depend_on_blas_threads(tmp_path):
    """The eval workload at two BLAS threads in this process gives the one-thread bytes."""
    setter, before = pipeline._blas_thread_setter(), blas_threads()
    if setter is None:
        pytest.skip("no OpenBLAS thread setter is loaded")
    setter(2)
    try:
        w = workloads.WORKLOADS["eval"](1, tmp_path)
        w.setup()
        _, outputs = w.run_op()
    finally:
        if before is not None:
            setter(before)
    assert w.digest(outputs) == SAMPLING_DIGESTS["eval"]
