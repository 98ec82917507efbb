"""The benchmark's trace mode still fits the package.

``bench/run.py --trace 1`` wraps package attributes by name and checks the
traced counts against the ledgers.  These tests load the bench's own
modules, unchanged, so a rename of a traced entry point or a path around
``OracleLedger.record``/``end_round`` fails here and not only in a traced
benchmark run.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from saddlesplit import accounting, cli

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"saddlesplit_bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer = _load("tracer").Tracer()
    originals = (cli.run_cell, cli.restricted_gap,
                 accounting.OracleLedger.record)
    tracer.install()                 # a missing attribute raises KeyError
    try:
        assert cli.restricted_gap is not originals[1]
    finally:
        tracer.uninstall()
    assert (cli.run_cell, cli.restricted_gap,
            accounting.OracleLedger.record) == originals


@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_small_grid_matches_the_ledgers(tmp_path, monkeypatch,
                                               workload):
    run, workloads = _load("run"), _load("workloads")
    tracer_module = _load("tracer")
    # The bench's cell timer replaces cli.run_cell for good; undo it.
    monkeypatch.setattr(cli, "run_cell", cli.run_cell)
    cfg = tmp_path / "experiment.ini"
    cfg.write_text(workloads.config_text(workload, 1, small=True))
    timer = run.CellTimer(cli, None)
    with tracer_module.Tracer() as tracer:
        config = workloads.finish_config(
            workload, cli.parse_config(str(cfg), seed=1))
        tracer.register_problems(config.instances)
        traced = run.run_pass(cli, config, timer, tmp_path / "grid")
    run.check_tracer(tracer, traced)
    # Every reported gap was evaluated through a traced name.
    gap_calls = tracer.by_name()["evaluation.restricted_gap"][0]
    assert gap_calls >= sum(r.gap is not None for r in traced["rows"]) > 0
    # Each inexact gap is evaluated once, for every row of its trajectory
    # that reports it: the first-step bound rules out every earlier
    # candidate of an estimated trajectory on `saddle_grid`, and rows that
    # stop on one candidate share its evaluation; `chain_closed_form` has
    # only exact closed forms.
    estimates = gap_calls - tracer.counts["restricted_gap.exact"]
    assert estimates == len({(r.instance_id, r.solver, r.rounds)
                             for r in traced["rows"] if not r.gap_exact})


@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_oracle_computes_each_shared_point_once(tmp_path, monkeypatch,
                                                       workload):
    # The rows of one (instance, solver) share one trajectory, whose
    # longest row records every query it made, unless the solver is the
    # decoupled one and the instance has a frozen block (L_xy = 0): then
    # each row runs alone.  So the oracle computes that row's queries per
    # shared group, plus each lone row's, and no point twice.
    run, workloads = _load("run"), _load("workloads")
    tracer_module = _load("tracer")
    monkeypatch.setattr(cli, "run_cell", cli.run_cell)
    cfg = tmp_path / "experiment.ini"
    cfg.write_text(workloads.config_text(workload, 1, small=True))
    timer = run.CellTimer(cli, None)
    with tracer_module.Tracer() as tracer:
        config = workloads.finish_config(
            workload, cli.parse_config(str(cfg), seed=1))
        tracer.register_problems(config.instances)
        traced = run.run_pass(cli, config, timer, tmp_path / "grid")
    problems = dict(config.instances)
    longest, alone = {}, 0
    for row in traced["rows"]:
        queries = sum(row.queries.values())
        if row.solver == "decoupled" \
                and problems[row.instance_id].L_xy == 0.0:
            alone += queries
        else:
            group = (row.instance_id, row.solver)
            longest[group] = max(longest.get(group, 0), queries)
    assert longest and bool(alone) == (workload == "chain_closed_form")
    assert tracer.by_name()["problems.oracle"][0] == \
        sum(longest.values()) + alone


@pytest.mark.parametrize("workload", ["saddle_grid", "chain_closed_form"])
def test_every_grid_row_equals_its_standalone_cell(tmp_path, workload):
    # Every solver and instance kind of the small grids: a row depends on
    # its cell alone, wherever the grid shares a trajectory.
    workloads = _load("workloads")
    cfg = tmp_path / "experiment.ini"
    cfg.write_text(workloads.config_text(workload, 1, small=True))
    config = workloads.finish_config(
        workload, cli.parse_config(str(cfg), seed=1))
    rows = cli.run_experiment(config, clock=lambda: 0.0)
    problems = dict(config.instances)
    assert len(rows) == len(problems) * len(config.solvers) \
        * len(config.epsilons)
    for row in rows:
        alone = cli.run_cell(row.instance_id, problems[row.instance_id],
                             row.solver, row.epsilon,
                             config.solver_params.get(row.solver, {}),
                             config.check_bounds, clock=lambda: 0.0)
        assert row == alone
