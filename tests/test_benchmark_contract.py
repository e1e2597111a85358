"""The names the benchmark in perfbench/ calls or wraps still exist.

perfbench/ is kept unchanged between benchmark revisions, so a change to the
package that drops or renames one of these names would fail benchmark
operations instead of a test.  This enters the tracing instrumentation, which
looks up every wrapped function, method and class, builds the inputs of every
workload and runs one operation of each.
"""

import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import rootsep as rs
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
    # one untraced operation of each workload, as the benchmark runs it
    rec = probes.Recorder()
    with probes.instrument(rec, tracing=False):
        for name, workload in workloads.WORKLOADS.items():
            rec.begin_op(0, tracing=False)
            outcome = workload.run(workload.build(1, tmp_path), tmp_path / name)
            assert outcome.failures == [], name


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


def test_ensemble_attributes_the_benchmark_reads():
    family = rs.GaussianShiftFamily(1.0)
    grid = rs.make_grid(family, 1.25, 0.1)
    barrier = rs.extract(rs.solve_layers(family, rs.make_partition(2), grid))
    ens = simulator.simulate_root(family, barrier, 300, grid.dt, 1, snapshot_times=[0.25])
    assert (ens.M, ens.n, ens.h_sim, ens.horizon) == (300, 2, grid.dt, grid.T)
    assert ens.x0.shape == (300,)
    assert ens.sigma.shape == ens.b_sigma.shape == (3, 300)
    assert ens.censored.dtype == bool and ens.censored.shape == (300,)
    assert list(ens.snapshots) == [0.25] and ens.snapshots[0.25].shape == (300,)
    alt = simulator.alternative_embedding(300, 2, h_sim=grid.dt, horizon=120.0)
    assert (alt.M, alt.n, alt.h_sim, alt.horizon) == (300, 1, grid.dt, 120.0)
    assert alt.censored.shape == (300,) and alt.snapshots == {}


def test_traced_operations_observe_the_expected_metrics(perfbench, tmp_path):
    # a package change that stops calling a wrapped name reads 0 in the
    # benchmark's self-test; here it fails a test instead
    probes, workloads = perfbench
    import run
    import selftest

    workloads.load_rootsep()
    # cli.Run solves each surface once, so pipeline never repeats a solve
    known = {"stop_solver.solve_layers.repeat_calls"}
    rec = probes.Recorder()
    for index, (name, workload) in enumerate(workloads.WORKLOADS.items()):
        with probes.instrument(rec, tracing=True):
            op = run.run_op(workload, 1, tmp_path, rec, index, tracing=True)
        assert op["failures"] == [], name
        metrics = run.layer_metrics(rec.op_spans(index), op)
        unseen = [m for m in selftest.EXPECTED[name] if not metrics.get(m)]
        assert set(unseen) <= known, (name, unseen)
