"""The names the benchmark in perfbench/ calls or wraps still exist.

perfbench/ is kept unchanged between benchmark revisions, so a change to the
package that drops or renames one of these names would fail benchmark
operations instead of a test.  This enters the tracing instrumentation, which
looks up every wrapped function, method and class, and builds the inputs of
every workload.
"""

import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from rootsep import simulator, stop_solver
from rootsep.marginals import MarginalFamily

PERFBENCH = Path(__file__).parents[1] / "perfbench"


@pytest.fixture()
def perfbench(monkeypatch):
    # import the benchmark modules without writing bytecode next to them
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import probes
    import workloads
    return probes, workloads


def test_instrumentation_and_workload_inputs(perfbench, tmp_path):
    probes, workloads = perfbench
    workloads.load_rootsep()
    with probes.instrument(probes.Recorder(), tracing=True):
        for name, workload in workloads.WORKLOADS.items():
            assert workload.build(1, tmp_path), name


def test_names_the_workloads_call():
    assert callable(MarginalFamily.atoms)
    assert "h_sim" in inspect.signature(simulator.alternative_embedding).parameters
    params = list(inspect.signature(stop_solver.solve_layers).parameters)
    assert params[:4] == ["family", "partition", "grid", "keep_times"]
    params = list(inspect.signature(simulator.simulate_root).parameters)
    assert params[:5] == ["family", "barrier_family", "M", "h_sim", "seed"]
    weight = simulator.MonotonePiecewisePoly.poly(0.0, 1.0)
    assert weight.antiderivative(np.array([2.0])).tolist() == [2.0]
    assert "h_sim" in simulator.PathEnsemble.__dataclass_fields__
