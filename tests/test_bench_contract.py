"""The library names, plan layout and report format the benchmark reads must keep working.

``perfbench/tracer.py`` patches each ``(module, name)`` in ``TRACED`` and
fails on a missing one, and it counts each plan's size and bytes from its
arrays, so a rename, deletion or layout change here would break every
traced benchmark run; ``perfbench/gate.py`` judges every verify operation
from its ``report.json``.  These tests fail first.
"""

import importlib
import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # standard library only
    return tracer


@pytest.mark.parametrize("module, name", _tracer().TRACED)
def test_traced_name_resolves(module, name):
    obj = importlib.import_module(f"gradecalc.{module}")
    for part in name.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_cli_entry_point_exists():
    from gradecalc import cli

    assert callable(cli.main)


def test_plan_work_counts_evaluate(h1_law, ab3_law):
    from gradecalc.calculus import sublaplacian
    from gradecalc.geometry import Grid
    from gradecalc.heatflow import CentralFourierPlan, KroneckerPlan, SpectralPlan, spectral_plan

    counts = _tracer()._AFTER["heatflow.spectral_plan"]
    h1 = sublaplacian(h1_law.algebra)
    plans = [
        spectral_plan(h1, h1_law, Grid((1.5, 1.5, 1.2), (11, 11, 13)), reg_strength=0.3),
        spectral_plan(sublaplacian(ab3_law.algebra), ab3_law, Grid((2.0, 2.0, 2.0), (11, 13, 15))),
        spectral_plan(
            h1, h1_law, Grid((2.0, 2.0, 0.5 * 8 / 9), (13, 13, 9), periodic=(2,)), reg_strength=0.0
        ),
    ]
    assert [type(p) for p in plans] == [SpectralPlan, KroneckerPlan, CentralFourierPlan]
    for plan in plans:
        assert counts["heatflow.spectral_plan.n"](plan) == plan.mask.sum()
        assert counts["heatflow.plan.bytes"](plan) > 0


def test_discretize_work_count_evaluates(h1_law, ab3_law):
    # the tracer counts the nonzeros of every assembled operator
    from gradecalc.calculus import discretize, sublaplacian
    from gradecalc.geometry import Grid

    count = _tracer()._AFTER["calculus.discretize"]["calculus.discretize.nnz"]
    for law, grid in [
        (h1_law, Grid((1.5, 1.5, 1.2), (11, 11, 13))),
        (ab3_law, Grid((2.0, 2.0, 2.0), (11, 13, 15))),
        (h1_law, Grid((2.0, 2.0, 0.5 * 8 / 9), (13, 13, 9), periodic=(2,))),
    ]:
        nnz = count(discretize(sublaplacian(law.algebra).expr, law, grid))
        assert type(nnz) is int and nnz > 0


@pytest.mark.parametrize("workload", ["verify-heisenberg", "verify-abelian3"])
def test_verify_report_passes_gate(tmp_path, workload):
    # the benchmark judges each verify operation's report.json with this gate
    import json

    from click.testing import CliRunner

    from gradecalc.cli import main

    bench = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
    spec = importlib.util.spec_from_file_location("perfbench_gate", os.path.join(bench, "gate.py"))
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)  # standard library only
    with open(os.path.join(bench, "workloads.json")) as fh:
        record = json.load(fh)["workloads"][workload]
    args = [*record["config"]["args"], "--seed", str(0xC0FFEE), "--out", str(tmp_path), "verify"]
    res = CliRunner().invoke(main, args)
    report = json.loads((tmp_path / "report.json").read_text())
    assert gate.verify_problems(record, res.exit_code, "", report) == []


def test_query_worker_smoke(monkeypatch):
    # the plan-queries workload's session, first query of each kind, checked
    # against the identity the benchmark holds its output to
    import json

    bench = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
    monkeypatch.syspath_prepend(bench)  # the worker imports its tracer by name
    spec = importlib.util.spec_from_file_location("perfbench_worker", os.path.join(bench, "worker.py"))
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    with open(os.path.join(bench, "workloads.json")) as fh:
        config = json.load(fh)["workloads"]["plan-queries-heisenberg"]["config"]
    session = worker.QuerySession(config, 0xC0FFEE)
    first = {}
    for kind, q in session.stream:
        first.setdefault(kind, q)
    assert sorted(first) == sorted(worker.QUERY_KINDS)
    for kind, q in first.items():
        defect, threshold = session.check(kind, q, session.run(kind, q))
        assert defect < threshold, kind


def test_verify_heisenberg_plans_take_the_quarter_turn():
    # the verify-heisenberg workload's plans (interior 7 x 7 x 23) split by
    # the quarter turn, with no timing: a change that loses the split fails
    # here rather than only in the benchmark's eigensolve time
    import json

    from gradecalc.suite import RunConfig

    with open(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.json")) as fh:
        args = json.load(fh)["workloads"]["verify-heisenberg"]["config"]["args"]
    opts = dict(zip(args[::2], args[1::2]))
    cfg = RunConfig(group=opts["--group"], scale=float(opts["--scale"]), points=opts["--points"])
    for role in ("heat", "potential"):
        plan = cfg.plan(role)
        assert plan.block_sizes == (284, 276, 276, 291)
        assert plan.solves == (146, 138, 276, 153, 138)
        assert 0 < plan.turn_defect <= 1e-12
