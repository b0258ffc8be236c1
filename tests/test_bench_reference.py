"""Each benchmark workload's small check problem reproduces its stored reference
and calls every layer the workload names.

The benchmark compares these outputs on every run, and checks the layers
only in traced runs; checking both here too makes output drift, or a
refactor that moves work out of a traced function, fail the test suite.
Files under bench/ are read, never written.
"""

import importlib.util
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


# run.py pins the BLAS thread count in os.environ on import; keep that
# setting out of the rest of the test session
with mock.patch.dict(os.environ):
    run = _load("run")
workloads = _load("workloads")
tracing = _load("tracing")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_check_problem_matches_reference(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    reference = json.loads(run.reference_path(name).read_text())["check"]
    units = wl.make_inputs(workloads.DEFAULT_SEED, tmp_path, True)
    out = workloads.combine([wl.run_unit(unit) for unit in units])
    assert out.ops == reference["ops"]
    assert out.skipped == 0
    # the benchmark's own comparison, at its RTOL and ATOL
    assert run.differing(out.values, reference["values"]) == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_check_problem_calls_every_expected_layer(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    units = wl.make_inputs(workloads.DEFAULT_SEED, tmp_path, True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for unit in units:
            wl.run_unit(unit)
    finally:
        tracer.remove()
    calls = tracer.calls()
    assert [call for call in wl.expected_calls if not calls.get(call)] == []
