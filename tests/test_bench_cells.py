"""Every benchmark cell, one trial each.

``bench/workloads.py`` builds its cells from the library's public per-trial
functions and checks their output invariants.  The benchmark's own tests sit
outside the test paths, so a library change that breaks a cell would
otherwise show only when the benchmark runs.  This guard loads the workloads
module from its file, as ``test_tracer_contract.py`` loads the tracer, and
runs the first trial of every cell untraced.
"""

import importlib.util
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # registered before it runs: dataclasses look a class's module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads").WORKLOADS
NULL_TRACER = _load("tracer").NullTracer()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_cell_runs_its_first_trial_without_a_problem(workload):
    """Trial t runs cell t, as the first round of a benchmark block does."""
    cells = WORKLOADS[workload][0]()
    for t, cell in enumerate(cells):
        outcome = cell.run(0, t, NULL_TRACER)
        assert outcome.problems == [], (cell.name, outcome.problems)
