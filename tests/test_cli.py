"""End-to-end tests for the experiment runner CLI."""

import ast
import dataclasses
import gc
import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

from saddlesplit import cli
from saddlesplit.accounting import OracleLedger
from saddlesplit.hard_instances import make_hard_saddle
from saddlesplit.problems import load_instance, make_strongly_convex_concave

SP_CONFIG = """
[experiment]
name = demo
epsilons = [0.2, 0.1, 0.05]
solvers = decoupled, extragradient
seed = 3

[instance.shifted]
kind = bilinear
a = [[1.0]]
b = [0.6]
d_x = 1.0
d_y = 1.0
"""

# An instance with smooth blocks: the query budget then carries the large
# inner-solver term, so bound compliance holds with a wide margin.  (On purely
# bilinear instances the budget is a near-exact two-queries-per-round count
# and a run can exceed it honestly; see the bounds-evaluator notes.)
BOUNDS_CONFIG = """
[experiment]
name = strongdemo
epsilons = [0.2, 0.1]
solvers = decoupled
check_bounds = true

[instance.strong]
kind = scsc
mu_x = 1.0
mu_y = 1.0
coupling = 1.0
n = 1
"""


def _write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_grid_cardinality_and_sorting(tmp_path):
    config = cli.parse_config(_write(tmp_path, SP_CONFIG))
    rows = cli.run_experiment(config, clock=lambda: 0.0)
    assert len(rows) == 6
    keys = [(r.instance_id, r.solver, r.epsilon) for r in rows]
    assert keys == sorted(keys)
    assert all(r.status == "converged" for r in rows)


def test_csv_header_exact(tmp_path):
    config = cli.parse_config(_write(tmp_path, SP_CONFIG))
    rows = cli.run_experiment(config, clock=lambda: 0.0)
    text = cli.rows_to_csv(rows)
    assert text.splitlines()[0] == (
        "instance_id,solver,epsilon,rounds,queries_x,queries_y,"
        "weighted_cost,gap,gap_exact,bound_comm,bound_oracle,compliant,"
        "wall_ms")


def test_dmsp_row_compliant(tmp_path):
    config = cli.parse_config(_write(tmp_path, BOUNDS_CONFIG))
    rows = cli.run_experiment(config, clock=lambda: 0.0)
    row = next(r for r in rows
               if r.solver == "decoupled" and np.isclose(r.epsilon, 0.1))
    assert row.compliant == "true"
    assert row.rounds <= 42
    assert row.weighted_cost <= row.bound_oracle
    assert row.gap is not None and row.gap <= 0.1


def test_bounds_off_leaves_columns_empty(tmp_path):
    config = cli.parse_config(_write(tmp_path, SP_CONFIG))
    rows = cli.run_experiment(config, clock=lambda: 0.0)
    assert all(r.compliant == "" for r in rows)
    assert all(r.bound_comm is None for r in rows)
    line = cli.rows_to_csv(rows).splitlines()[1]
    assert line.endswith(",,,0")    # bound_comm,bound_oracle,compliant empty


def test_determinism_byte_identical(tmp_path):
    path = _write(tmp_path, SP_CONFIG)
    texts = []
    for _ in range(2):
        rows = cli.run_experiment(cli.parse_config(path), clock=lambda: 0.0)
        texts.append(cli.rows_to_csv(rows))
    assert texts[0] == texts[1]


def test_csv_round_trip(tmp_path):
    config = cli.parse_config(_write(tmp_path, SP_CONFIG))
    rows = cli.run_experiment(config, clock=lambda: 0.0)
    out = tmp_path / "out"
    cli.emit_outputs(rows, str(out))
    parsed = cli.read_results(str(out / "results.csv"))
    header = cli.csv_header(rows)
    rebuilt = "\n".join(
        [",".join(header)] + [",".join(d[h] for h in header) for d in parsed]
    ) + "\n"
    assert rebuilt == cli.rows_to_csv(rows)


def test_emit_outputs_files(tmp_path):
    config = cli.parse_config(_write(tmp_path, SP_CONFIG))
    rows = cli.run_experiment(config, clock=lambda: 0.0)
    out = tmp_path / "artifacts"
    paths = cli.emit_outputs(rows, str(out))
    assert len(paths) == 2          # one CSV + one SVG for one instance
    svg = (out / "shifted.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_emit_outputs_empty(tmp_path):
    out = tmp_path / "empty"
    paths = cli.emit_outputs([], str(out))
    assert paths == [str(out / "results.csv")]
    text = (out / "results.csv").read_text()
    assert text.splitlines()[0].startswith("instance_id,solver,epsilon")
    assert len(text.splitlines()) == 1
    assert not list(out.glob("*.svg"))


def test_diverged_row_recorded(tmp_path):
    text = """
[experiment]
epsilons = [0.01]
solvers = local_gda
check_bounds = true

[instance.strong]
kind = scsc
mu_x = 1.0
mu_y = 1.0
coupling = 2.0
n = 1

[solver.local_gda]
eta_x = 0.5
eta_y = 0.5
"""
    config = cli.parse_config(_write(tmp_path, text))
    rows = cli.run_experiment(config, clock=lambda: 0.0)
    assert len(rows) == 1
    assert rows[0].status == "diverged"
    assert rows[0].compliant == ""
    line = cli.rows_to_csv(rows).splitlines()[1]
    assert ",," in line             # gap field left empty


def test_vip_grid_and_failure_rows(tmp_path):
    text = """
[experiment]
epsilons = [0.1]
solvers = decoupled, extragradient
seed = 5
check_bounds = true

[instance.game]
kind = random_polymatrix
dims = (2, 2, 2)
coupling = 1.0
diag = 0.5
"""
    config = cli.parse_config(_write(tmp_path, text))
    rows = cli.run_experiment(config, clock=lambda: 0.0)
    assert len(rows) == 2
    dec = next(r for r in rows if r.solver == "decoupled")
    eg = next(r for r in rows if r.solver == "extragradient")
    assert dec.status == "converged" and dec.compliant == "true"
    assert set(dec.queries) == {"1", "2", "3"}
    assert eg.status.startswith("error:") and eg.compliant == ""
    header = cli.rows_to_csv(rows).splitlines()[0]
    assert "queries_1,queries_2,queries_3" in header


def test_vip_csv_numbers_parse(tmp_path):
    # VI bounds are NumPy scalars; every numeric field must still be a
    # plain float literal in the CSV.
    text = """
[experiment]
epsilons = [0.1]
solvers = decoupled
seed = 5
check_bounds = true

[instance.game]
kind = random_polymatrix
dims = (2, 2, 2)
diag = 0.5
"""
    rows = cli.run_experiment(cli.parse_config(_write(tmp_path, text)),
                              clock=lambda: 0.0)
    lines = cli.rows_to_csv(rows).splitlines()
    header = lines[0].split(",")
    text_cols = {"instance_id", "solver", "gap_exact", "compliant"}
    for line in lines[1:]:
        fields = dict(zip(header, line.split(",")))
        assert fields["bound_comm"] != ""
        for col, value in fields.items():
            if col not in text_cols and value != "":
                float(value)


def test_invariant_failure_fails_bound_check(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("scaled-prox criterion violated")

    monkeypatch.setattr(cli, "_dispatch", broken)
    path = _write(tmp_path, BOUNDS_CONFIG)
    rows = cli.run_experiment(cli.parse_config(path), clock=lambda: 0.0)
    assert all(r.status.startswith("error:") for r in rows)
    assert all(r.compliant == "false" for r in rows)
    assert cli.main(["run", "--config", path, "--check-bounds",
                     "--out", str(tmp_path / "broken")]) == 1


def test_solver_error_fails_bound_check(tmp_path, capsys):
    # lam = 0.5 passes config checks but is below twice this instance's
    # scaled coupling, so the decoupled run raises a ValueError.
    path = _write(tmp_path,
                  BOUNDS_CONFIG + "\n[solver.decoupled]\nlam = 0.5\n")
    reason = "lam is below twice the scaled coupling constant"
    rows = cli.run_experiment(cli.parse_config(path), clock=lambda: 0.0)
    assert all(r.status == f"error: {reason}" for r in rows)
    assert all(r.compliant == "false" for r in rows)
    assert cli.main(["run", "--config", path,
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    for eps in (0.1, 0.2):
        assert f"strong/decoupled at epsilon={eps}: error: {reason}" in err
        assert f"bound violation: strong/decoupled at epsilon={eps}" in err


def _oracle_fails_at(call):
    """The k = 10 hard_x chain (L = 10), whose x oracle raises on its
    `call`-th call; each instance counts its own calls.  Its gap is a
    closed form that calls no oracle."""
    p = make_hard_saddle("x", 10.0, 1.0, 10)
    calls = itertools.count(1)

    def grad_x(z):
        if next(calls) == call:
            raise FloatingPointError("oracle failed")
        return p.grad_x(z)
    return dataclasses.replace(p, grad_x=grad_x)


# Both baselines take one x query per round; their rows close at rounds
# (28, 126, 306, 590) and (12, 52, 126, 239) for epsilon 0.05, 0.02, 0.01
# and 0.005.
@pytest.mark.parametrize("solver, call", [("extragradient", 200),
                                          ("local_gda", 100)])
def test_an_oracle_failure_closes_only_the_open_rows(solver, call):
    def grid(epsilons, clock):
        config = cli.ExperimentConfig(
            instances=[("chain", _oracle_fails_at(call))], solvers=[solver],
            epsilons=epsilons, check_bounds=True)
        return cli.run_experiment(config, clock=clock)

    ticks = itertools.count()
    rows = grid([0.05, 0.02, 0.01, 0.005], lambda: next(ticks))
    # One trajectory: the rows that closed before the raise keep their
    # converged rows, and the raise closes every row still open.
    assert [(r.epsilon, r.status) for r in rows] == [
        (0.005, "error: oracle failed"), (0.01, "error: oracle failed"),
        (0.02, "converged"), (0.05, "converged")]
    # Each from the start of the trajectory (tick 0) to its own close.
    assert [r.wall_ms for r in rows] == [4000, 3000, 2000, 1000]
    pinned = grid([0.05, 0.02, 0.01, 0.005], lambda: 0.0)
    for row in pinned:
        alone = cli.run_cell("chain", _oracle_fails_at(call), solver,
                             row.epsilon, {}, True, clock=lambda: 0.0)
        assert row == alone
    assert cli.rows_to_csv(grid([0.005, 0.01, 0.02, 0.05], lambda: 0.0)) \
        == cli.rows_to_csv(pinned)


def _alone(iid, problem, solver, eps):
    """The pinned-clock row `run_cell` makes for one cell on its own."""
    return cli.run_cell(iid, problem, solver, eps, {}, True,
                        clock=lambda: 0.0)


def test_repeated_epsilons_and_instance_ids_get_rows_of_their_own():
    # A hand-built config skips `parse_config`'s checks.  Grid rows are
    # matched to their group by position, so a repeated epsilon and two
    # instances that share an id each get the row a run alone would give;
    # both used to raise KeyError: 0.1 for a baseline.
    instances = [("a", make_strongly_convex_concave(1.0, 1.0, 1.0, n=2)),
                 ("a", make_strongly_convex_concave(1.0, 1.0, 2.0, n=2))]
    config = cli.ExperimentConfig(instances=instances,
                                  solvers=list(cli.SOLVERS),
                                  epsilons=[0.1, 0.2, 0.1], check_bounds=True)
    rows = cli.run_experiment(config, clock=lambda: 0.0)
    expected = sorted((_alone(iid, problem, solver, eps)
                       for iid, problem in instances for solver in cli.SOLVERS
                       for eps in config.epsilons),
                      key=lambda r: (r.instance_id, r.solver, r.epsilon))
    assert rows == expected
    # The two instances' rows differ, so a swap would show.
    assert _alone("a", instances[0][1], "extragradient", 0.1) \
        != _alone("a", instances[1][1], "extragradient", 0.1)


def test_a_decoupled_row_whose_epsilon_is_refused_fails_alone():
    # A hand-built grid with epsilon 0: the decoupled solver refuses it as
    # it sets that row's round cap, before the shared run starts, and the
    # other rows of the trajectory run on as they would alone.
    problem = make_strongly_convex_concave(1.0, 1.0, 1.0, n=2)
    config = cli.ExperimentConfig(instances=[("s", problem)],
                                  solvers=["decoupled"],
                                  epsilons=[0.1, 0.0, 0.05])
    rows = cli.run_experiment(config, clock=lambda: 0.0)
    assert rows == [cli.run_cell("s", problem, "decoupled", eps, {}, False,
                                 clock=lambda: 0.0)
                    for eps in (0.0, 0.05, 0.1)]
    assert [r.status for r in rows] == [
        "error: accuracy must be positive and finite, got 0.0",
        "converged", "converged"]


def test_a_cell_run_inside_a_grid_gets_its_own_row(monkeypatch):
    # A `run_cell` wrapper, like the benchmark's cell timer, that also runs
    # one cell of its own: the grid's instance id on another problem.  It
    # used to take the grid's row, and the grid then died with
    # KeyError: 0.05.
    grid_problem = make_strongly_convex_concave(1.0, 1.0, 1.0, n=2)
    other = make_strongly_convex_concave(1.0, 1.0, 2.0, n=2)
    config = cli.ExperimentConfig(instances=[("s", grid_problem)],
                                  solvers=["extragradient"],
                                  epsilons=[0.1, 0.05], check_bounds=True)
    before = cli.run_experiment(config, clock=lambda: 0.0)
    run_cell, inner = cli.run_cell, []

    def wrapped(instance_id, *args, **kwargs):
        if not inner:
            inner.append(run_cell(instance_id, other, "extragradient", 0.05,
                                  {}, True, clock=lambda: 0.0))
        return run_cell(instance_id, *args, **kwargs)

    monkeypatch.setattr(cli, "run_cell", wrapped)
    assert cli.run_experiment(config, clock=lambda: 0.0) == before
    assert inner == [_alone("s", other, "extragradient", 0.05)]
    assert inner[0] != before[0]


def test_a_grid_frees_its_ledgers_without_the_cycle_collector():
    # A ledger keeps every response it records, so a reference cycle
    # through one holds that memory until a collection runs: over a few
    # passes of the benchmark's chain grid, about 2 MB more peak RSS.
    config = cli.ExperimentConfig(
        instances=[("s", make_strongly_convex_concave(1.0, 1.0, 1.0, n=2))],
        solvers=list(cli.SOLVERS), epsilons=[0.1, 0.05])
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        cli.run_experiment(config, clock=lambda: 0.0)
        gc.collect()
        cyclic = [o for o in gc.garbage if isinstance(o, OracleLedger)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert cyclic == []


def test_config_errors(tmp_path):
    with pytest.raises(cli.ConfigError):
        cli.parse_config(str(tmp_path / "missing.ini"))
    bad_eps = "[experiment]\nepsilons = [0.1, -1]\n\n[instance]\nkind = bilinear\na = [[1.0]]\nb = [0.0]\n"
    with pytest.raises(cli.ConfigError):
        cli.parse_config(_write(tmp_path, bad_eps, "bad1.ini"))
    bad_solver = "[experiment]\nepsilons = [0.1]\nsolvers = magic\n\n[instance]\nkind = bilinear\na = [[1.0]]\nb = [0.0]\n"
    with pytest.raises(cli.ConfigError):
        cli.parse_config(_write(tmp_path, bad_solver, "bad2.ini"))
    no_instance = "[experiment]\nepsilons = [0.1]\n"
    with pytest.raises(cli.ConfigError):
        cli.parse_config(_write(tmp_path, no_instance, "bad3.ini"))
    # A fractional chain order used to escape as a TypeError traceback.
    half_k = "[experiment]\nepsilons = [0.1]\n\n[instance]\nkind = hard_xy\nL = 1.0\nD = 1.0\nk = 2.5\n"
    with pytest.raises(cli.ConfigError, match="must be an integer"):
        cli.parse_config(_write(tmp_path, half_k, "bad4.ini"))
    # A repeated epsilon or solver used to write its rows twice and exit 0.
    body = "\n\n[instance.a]\nkind = bilinear\na = [[1.0]]\nb = [0.0]\n"
    for grid, match in (("epsilons = [0.1, 0.1]", "epsilon 0.1 is repeated"),
                        ("solvers = decoupled, decoupled",
                         "solver 'decoupled' is repeated")):
        path = _write(tmp_path, f"[experiment]\n{grid}{body}", "bad5.ini")
        with pytest.raises(cli.ConfigError, match=match):
            cli.parse_config(path)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == 2
        assert not out.exists()
    # Bad costs used to make `--out` and then raise in `run_cell` (exit 1);
    # `bounds` printed dmsp_oracle = 0.0, or a bare unpacking error.
    for costs in ("[-1.0, 1.0]", "[1.0]", "[1.0, 1e999]"):
        path = _write(tmp_path, "[experiment]\nepsilons = [0.1]\n\n"
                      "[instance]\nkind = scsc\nmu_x = 1.0\nmu_y = 1.0\n"
                      f"coupling = 1.0\ncosts = {costs}\n", "bad6.ini")
        with pytest.raises(cli.ConfigError, match="costs must be 2 finite"):
            cli.parse_config(path)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == 2
        assert not out.exists()
        assert cli.main(["bounds", "--config", path, "--epsilon", "0.1"]) == 2


@pytest.mark.parametrize("key, value", [("seed", "abc"),
                                        ("check_bounds", "maybe")])
def test_bad_experiment_value_exits_2(tmp_path, capsys, key, value):
    # Both used to escape parse_config as a bare ValueError traceback.
    text = SP_CONFIG.replace("seed = 3", f"{key} = {value}")
    code = cli.main(["run", "--config", _write(tmp_path, text),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err


@pytest.mark.parametrize("kind", ["bilinear", "quadratic_x"])
def test_non_finite_matrix_exits_2_before_lapack(tmp_path, capfd, kind):
    # An infinite entry of A used to reach LAPACK, which wrote "On entry to
    # DLASCL parameter number 4 had an illegal value" six times (to the
    # process's stdout) before the least-squares solve failed.
    path = _write(tmp_path, "[experiment]\nepsilons = [0.1]\n\n[instance.a]\n"
                  f"kind = {kind}\nA = [[1.0, 0.0], [0.0, 1e999]]\n")
    assert cli.main(["run", "--config", path,
                     "--out", str(tmp_path / "out")]) == 2
    out, err = capfd.readouterr()
    assert err == ("config error: cannot build instance [instance.a]: "
                   "A must be finite\n")
    assert "DLASCL" not in out + err


def test_main_exit_codes(tmp_path):
    path = _write(tmp_path, SP_CONFIG)
    out = str(tmp_path / "run_out")
    assert cli.main(["run", "--config", path, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "results.csv"))
    bounded = _write(tmp_path, BOUNDS_CONFIG, "bounds.ini")
    assert cli.main(["run", "--config", bounded,
                     "--out", str(tmp_path / "run_out2")]) == 0
    assert cli.main(["run", "--config", str(tmp_path / "nope.ini"),
                     "--out", out]) == 2


def test_main_flags_violation(tmp_path):
    # Two rounds leave the gap above epsilon, so the run ends
    # budget_exhausted, the compliance check must fail and the exit code
    # must be 1.
    text = SP_CONFIG + "\n[solver.decoupled]\nmax_rounds = 2\n"
    path = _write(tmp_path, text)
    code = cli.main(["run", "--config", path, "--check-bounds",
                     "--out", str(tmp_path / "viol")])
    assert code == 1


def test_instance_file_reference(tmp_path):
    inst = """
[instance]
kind = bilinear
name = fromfile
a = [[2.0]]
b = [1.0]
"""
    ipath = tmp_path / "inst.ini"
    ipath.write_text(inst)
    text = f"""
[experiment]
epsilons = [0.2]
solvers = decoupled

[instance.ref]
file = {ipath.name}
"""
    config = cli.parse_config(_write(tmp_path, text))
    assert len(config.instances) == 1
    assert np.isclose(config.instances[0][1].L_xy, 2.0)


def test_run_out_that_cannot_be_written_exits_2(tmp_path, capsys, monkeypatch):
    # A path below a regular file used to run the whole grid, then die in
    # emit_outputs with a NotADirectoryError traceback and exit 1.
    path = _write(tmp_path, SP_CONFIG)
    out = tmp_path / "exp.ini" / "out"
    with monkeypatch.context() as m:
        m.setattr(cli, "run_experiment", None)      # the grid never runs
        assert cli.main(["run", "--config", path, "--out", str(out)]) == 2
    printed, err = capsys.readouterr()
    assert printed == "" and err.startswith("error: ") and str(out) in err
    # A file the grid's outputs cannot be written to fails the same way.
    (tmp_path / "taken" / "results.csv").mkdir(parents=True)
    assert cli.main(["run", "--config", path,
                     "--out", str(tmp_path / "taken")]) == 2
    printed, err = capsys.readouterr()
    assert printed == "" and err.startswith("error: ") and "results.csv" in err


def test_hard_instance_subcommand(tmp_path, capsys):
    out = str(tmp_path / "hard.ini")
    assert cli.main(["hard-instance", "--kind", "xy", "--k", "2",
                     "--out", out]) == 0
    problem = load_instance(out)
    assert problem.L_xy <= 1.0 + 1e-12
    assert problem.saddle is not None
    assert cli.main(["hard-instance", "--kind", "xy", "--k", "0",
                     "--out", out]) == 2
    # An unwritable --out is an error line too, not a traceback.
    capsys.readouterr()
    missing = tmp_path / "missing" / "hard.ini"
    assert cli.main(["hard-instance", "--k", "3", "--out", str(missing)]) == 2
    printed, err = capsys.readouterr()
    assert printed == "" and err.startswith("error: ") and str(missing) in err
    assert not missing.parent.exists()


@pytest.mark.parametrize("scale", [["--L", "nan"], ["--L", "inf"],
                                   ["--D", "inf"]], ids=" ".join)
def test_hard_instance_rejects_bad_scales(tmp_path, capsys, scale):
    # `--L nan` used to write a file that `run` could not read, `--L inf`
    # to die inside LAPACK and `--D inf` to write a file.
    out = tmp_path / "hard.ini"
    assert cli.main(["hard-instance", "--k", "3", "--out", str(out)]
                    + scale) == 2
    assert capsys.readouterr().err.startswith("error: scale")
    assert not out.exists()


def test_hard_instance_writes_the_recipe(tmp_path):
    # The chain is rebuilt from (kind, L, D, k), not written out dense.
    out = tmp_path / "hard.ini"
    assert cli.main(["hard-instance", "--kind", "xy", "--k", "500",
                     "--L", "2.0", "--out", str(out)]) == 0
    assert out.stat().st_size < 1024
    got = load_instance(str(out))
    want = make_hard_saddle("xy", L=2.0, D=1.0, k=500)
    for key in ("A", "b"):
        assert np.array_equal(got.structure[key], want.structure[key])
    for g, w in zip(got.saddle, want.saddle):
        assert np.array_equal(g, w)
    assert got.name == want.name


def test_unknown_subcommand_exits_2(capsys):
    # The invariant checks live in the test suite, not in a subcommand.
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify"])
    assert exc.value.code == 2
    assert "invalid choice: 'verify'" in capsys.readouterr().err


def test_bounds_subcommand(tmp_path, capsys):
    text = """
[instance]
kind = bilinear
a = [[1.0]]
b = [0.0]
"""
    path = _write(tmp_path, text, "inst.ini")
    assert cli.main(["bounds", "--config", path, "--epsilon", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "dmsp_comm = 42.0" in out
    assert "theta = 2.0" in out


def test_eg_final_gap_meets_bound(tmp_path):
    # eg_comm = 20 at eps = 0.1, and a run capped at twenty rounds
    # converges within them.
    text = SP_CONFIG.replace(
        "epsilons = [0.2, 0.1, 0.05]",
        "epsilons = [0.1]\ncheck_bounds = true") + (
        "\n[solver.extragradient]\nmax_rounds = 20\n")
    path = _write(tmp_path, text)
    rows = cli.run_experiment(cli.parse_config(path), clock=lambda: 0.0)
    eg = next(r for r in rows if r.solver == "extragradient")
    assert eg.rounds <= 20 and eg.rounds <= eg.bound_comm
    assert eg.weighted_cost <= eg.bound_oracle
    assert eg.gap <= 0.1
    assert (eg.status, eg.compliant) == ("converged", "true")
    assert cli.main(["run", "--config", path,
                     "--out", str(tmp_path / "out")]) == 0


def test_bounds_follows_file_reference(tmp_path, capsys):
    inst = _write(tmp_path, "[instance]\nkind = bilinear\n"
                  "a = [[2.0, 0.5]]\nb = [1.0]\n", "inst.ini")
    assert cli.main(["bounds", "--config", inst, "--epsilon", "0.1"]) == 0
    direct = capsys.readouterr().out
    os.makedirs(tmp_path / "cfg")
    ref = _write(tmp_path, "[instance]\nfile = ../inst.ini\n", "cfg/ref.ini")
    assert cli.main(["bounds", "--config", ref, "--epsilon", "0.1"]) == 0
    assert capsys.readouterr().out == direct
    assert "dmsp_comm" in direct


POLY_INSTANCE = """
[instance]
kind = random_polymatrix
dims = [3, 3, 2]
diag = 0.5
"""


@pytest.mark.parametrize("experiment", ["", "[experiment]\nseed = 4\n"])
def test_bounds_random_polymatrix(tmp_path, capsys, experiment):
    # `bounds` draws the instance `run` draws: the config's seed, else 0.
    path = _write(tmp_path, experiment + POLY_INSTANCE, "poly.ini")
    assert cli.main(["bounds", "--config", path, "--epsilon", "0.1"]) == 0
    out = capsys.readouterr().out
    config = cli.parse_config(_write(
        tmp_path, (experiment or "[experiment]\n") + POLY_INSTANCE, "exp.ini"))
    want = cli.complexity_bounds(config.instances[0][1], 0.1).dmvip_comm
    assert f"dmvip_comm = {want!r}" in out


def test_bounds_lines_parse(tmp_path, capsys):
    path = _write(tmp_path, "[instance]\nkind = polymatrix\ndims = [1, 1]\n"
                  "a_0_0 = [[0.5]]\na_0_1 = [[1.0]]\na_1_0 = [[-1.0]]\n"
                  "b_0 = [0.6]\nb_1 = [0.3]\n", "poly.ini")
    assert cli.main(["bounds", "--config", path, "--epsilon", "0.1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert {ln.split(" = ", 1)[0] for ln in lines} == {
        "dmvip_comm", "A_terms", "B_terms"}
    for ln in lines:
        value = ast.literal_eval(ln.split(" = ", 1)[1])
        assert all(isinstance(v, float) for v in
                   (value if isinstance(value, list) else [value]))


BILINEAR_BODY = "kind = bilinear\na = [[1.0]]\nb = [0.0]\n"


def test_bounds_on_named_instance_section(tmp_path, capsys):
    # `run` configs name their sections [instance.<id>]; a lone one prints
    # the same block a lone [instance] section does.
    path = _write(tmp_path, "[instance]\n" + BILINEAR_BODY, "plain.ini")
    assert cli.main(["bounds", "--config", path, "--epsilon", "0.1"]) == 0
    plain = capsys.readouterr().out
    path = _write(tmp_path, "[instance.a]\n" + BILINEAR_BODY, "named.ini")
    assert cli.main(["bounds", "--config", path, "--epsilon", "0.1"]) == 0
    assert capsys.readouterr().out == plain
    assert "dmsp_comm = 42.0" in plain


def test_bounds_prints_every_instance(tmp_path, capsys):
    text = ("[experiment]\nseed = 4\n\n[instance.a]\n" + BILINEAR_BODY
            + "\n[instance.poly]" + POLY_INSTANCE.split("[instance]", 1)[1])
    path = _write(tmp_path, text, "two.ini")
    assert cli.main(["bounds", "--config", path, "--epsilon", "0.1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "[a]" and "dmsp_comm = 42.0" in lines
    poly = lines.index("[poly]")
    assert all(not ln.startswith("[") for ln in lines[1:poly])
    # The polymatrix block is the instance `run` draws from this config.
    want = cli.complexity_bounds(
        cli.parse_config(path).instances[1][1], 0.1).dmvip_comm
    assert f"dmvip_comm = {want!r}" in lines[poly + 1:]


def test_unknown_solver_key_rejected(tmp_path, capsys):
    # A misspelt key used to surface as an unassessed `error:` row.
    path = _write(tmp_path, SP_CONFIG + "\n[solver.decoupled]\ngap_strid = 3\n")
    with pytest.raises(cli.ConfigError, match="gap_strid"):
        cli.parse_config(path)
    assert cli.main(["run", "--config", path, "--check-bounds",
                     "--out", str(tmp_path / "out")]) == 2
    assert "gap_strid" in capsys.readouterr().err
    # `epsilon` comes from the grid, and local GDA takes no d_hat.
    for section, key in (("decoupled", "epsilon = 0.1"),
                         ("local_gda", "d_hat = (1.0, 1.0)")):
        path = _write(tmp_path, SP_CONFIG + f"\n[solver.{section}]\n{key}\n")
        with pytest.raises(cli.ConfigError):
            cli.parse_config(path)


def test_solver_keys_reach_their_params(tmp_path):
    text = SP_CONFIG + ("\n[solver.decoupled]\nlam = 3.0\nd_hat = (1.0, 2.0)\n"
                        "\n[solver.local_gda]\neta_x = 0.1\nsteps_per_round = 2\n")
    config = cli.parse_config(_write(tmp_path, text))
    assert config.solver_params == {
        "decoupled": {"lam": 3.0, "d_hat": (1.0, 2.0)},
        "local_gda": {"eta_x": 0.1, "steps_per_round": 2}}


@pytest.mark.parametrize("epsilons", ["['a', 0.1]", "[0.1, None]",
                                      "[True]", "[0.1, [0.2]]", "[1j]"])
def test_non_numeric_epsilons_rejected(tmp_path, epsilons):
    text = f"[experiment]\nepsilons = {epsilons}\n\n[instance]\n" + \
        "kind = bilinear\na = [[1.0]]\nb = [0.0]\n"
    path = _write(tmp_path, text)
    with pytest.raises(cli.ConfigError, match="numbers"):
        cli.parse_config(path)
    assert cli.main(["run", "--config", path,
                     "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("check", [[], ["--check-bounds"]])
def test_non_finite_epsilons_rejected(tmp_path, capsys, check):
    text = "[experiment]\nepsilons = [1e999, 0.1]\n\n[instance]\n" + \
        "kind = bilinear\na = [[1.0]]\nb = [0.0]\n"
    path = _write(tmp_path, text)
    with pytest.raises(cli.ConfigError, match="finite"):
        cli.parse_config(path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", path, "--out", str(out)] + check) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize("extra", [
    ["--d-hat", "foo"],
    ["--d-hat", "(1.0,)"],
    ["--d-hat", "(0.0, 1.0)"],
    ["--d-hat", "(-1.0, 1.0)"],
    ["--d-hat", "5"],
    ["--d-hat", "('a', 1.0)"],
    ["--epsilon", "0"],
    ["--epsilon", "nan"],
    ["--epsilon", "inf"],
])
def test_bounds_argument_errors_exit_2(tmp_path, capsys, extra):
    path = _write(tmp_path, "[instance]\n" + BILINEAR_BODY, "inst.ini")
    argv = ["bounds", "--config", path, "--epsilon", "0.1"] + extra
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


def test_bounds_accepts_a_d_hat_pair(tmp_path, capsys):
    path = _write(tmp_path, "[instance]\n" + BILINEAR_BODY, "inst.ini")
    assert cli.main(["bounds", "--config", path, "--epsilon", "0.1",
                     "--d-hat", "(1.0, 3.0)"]) == 0
    assert "theta = " in capsys.readouterr().out


@pytest.mark.parametrize("header", ["[instance.a,b]",
                                    "[instance]\nname = a\n  b"],
                         ids=["comma", "line-break"])
def test_instance_id_that_breaks_a_csv_row_rejected(tmp_path, header):
    # `[instance.a,b]` used to write a results row with one field too many,
    # which read back as instance_id='a', solver='b'.
    text = ("[experiment]\nepsilons = [0.1]\n\n" + header
            + "\nkind = scsc\nmu_x = 1.0\nmu_y = 1.0\ncoupling = 1.0\nn = 1\n")
    path = _write(tmp_path, text)
    with pytest.raises(cli.ConfigError, match="comma or a line break"):
        cli.parse_config(path)
    assert cli.main(["run", "--config", path,
                     "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_instance_ids_sharing_a_plot_file_rejected(tmp_path):
    # Both ids map to a_b.svg: the second plot used to replace the first.
    scsc = "kind = scsc\nmu_x = 1.0\nmu_y = 1.0\ncoupling = 1.0\nn = 1\n"
    text = ("[experiment]\nepsilons = [0.1]\n\n[instance.a b]\n" + scsc
            + "\n[instance.a_b]\n" + scsc)
    path = _write(tmp_path, text)
    with pytest.raises(cli.ConfigError, match="'a b' and 'a_b'.*a_b.svg"):
        cli.parse_config(path)
    assert cli.main(["run", "--config", path,
                     "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def _row(instance_id):
    return cli.ResultRow(
        instance_id=instance_id, solver="decoupled", epsilon=0.1, rounds=4,
        queries={"x": 2, "y": 2}, weighted_cost=4.0, gap=0.05,
        gap_exact=True, bound_comm=None, bound_oracle=None, compliant="",
        wall_ms=0, status="converged")


@pytest.mark.parametrize("ids, match", [
    (["a b", "a_b"], "'a b' and 'a_b'.*a_b.svg"),
    (["a,b"], "comma or a line break"),
], ids=["shared-plot", "comma"])
def test_emit_outputs_rejects_ids_before_writing(tmp_path, ids, match):
    # Library callers that skip parse_config get the same id check, and
    # nothing is written: two plots used to land in one file.
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=match):
        cli.emit_outputs([_row(iid) for iid in ids], str(out))
    assert not out.exists()


def test_read_results_rejects_a_row_of_the_wrong_width(tmp_path):
    config = cli.parse_config(_write(tmp_path, SP_CONFIG))
    rows = cli.run_experiment(config, clock=lambda: 0.0)
    lines = cli.rows_to_csv(rows).splitlines()
    for bad in (lines[1] + ",extra", lines[1].rsplit(",", 1)[0]):
        path = tmp_path / "results.csv"
        path.write_text("\n".join([lines[0], bad] + lines[2:]) + "\n")
        with pytest.raises(ValueError, match="row 2 has"):
            cli.read_results(str(path))


def test_read_results_rejects_an_empty_file(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text("\n")
    with pytest.raises(ValueError, match="results.csv: no header line"):
        cli.read_results(str(path))


def test_config_without_random_instances_skips_numpy_random(tmp_path):
    # Only a `kind = random_polymatrix` section makes the seeded rng, so
    # parsing this config never imports numpy.random (about 10 ms and 5 MB
    # in every fresh process that parses one).
    text = BOUNDS_CONFIG + "\n[instance.chain]\nkind = hard_xy\nL = 1.0\n" \
        "D = 1.0\nk = 5\n"
    path = _write(tmp_path, text)
    code = ("import sys\nfrom saddlesplit import cli\n"
            f"config = cli.parse_config({path!r})\n"
            "assert [i for i, _ in config.instances] == ['strong', 'chain']\n"
            "print('numpy.random' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
    assert callable(cli.random_polymatrix)


def _run_and_bounds(tmp_path, capsys, path):
    """Exit code and stderr of `run` and of `bounds` on one config."""
    got = []
    for argv in (["run", "--config", path, "--check-bounds",
                  "--out", str(tmp_path / "out")],
                 ["bounds", "--config", path, "--epsilon", "0.1"]):
        code = cli.main(argv)
        got.append((code, capsys.readouterr().err))
    return got


SCSC_SECTION = """
[instance.s]
kind = scsc
mu_x = 1.0
mu_y = 1.0
coupling = 1.0
n = 1
"""


@pytest.mark.parametrize("text, key, section", [
    ("[experiment]\nepsilon = [0.05]\n" + SCSC_SECTION,
     "epsilon", "[experiment]"),
    ("[experiment]\n" + SCSC_SECTION + "Dx = 5.0\n", "dx", "[instance.s]"),
    ("[experiment]\n[instance.h]\nkind = hard_xy\nL = 1.0\nD = 1.0\nk = 3\n"
     "costs = (1.0, 100.0)\n", "costs", "[instance.h]"),
    ("[experiment]\n[instance.f]\nfile = inst.ini\nk = 3\n",
     "k", "[instance.f]"),
    ("[experiment]\n[instance.p]\nkind = random_polymatrix\ndims = [2, 2]\n"
     "dig = 0.5\n", "dig", "[instance.p]"),
    ("[experiment]\n" + SCSC_SECTION + "\n[solver.extragradient]\neta = 0.5\n",
     "eta", "[solver.extragradient]"),
], ids=["experiment", "inline", "chain", "file", "random_polymatrix",
        "extragradient"])
def test_unknown_keys_are_config_errors(tmp_path, capsys, text, key,
                                         section):
    _write(tmp_path, SCSC_SECTION.replace("[instance.s]", "[instance]"),
           "inst.ini")
    path = _write(tmp_path, text)
    for code, err in _run_and_bounds(tmp_path, capsys, path):
        assert code == 2
        assert err.startswith("config error:")
        assert f"unknown key {key!r}" in err and section in err


def test_unknown_solver_key_is_a_config_error(tmp_path, capsys):
    text = "[experiment]\n" + SCSC_SECTION + "\n[solver.decoupled]\nlamda = 2\n"
    code = cli.main(["run", "--config", _write(tmp_path, text),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("config error:")
    assert "unknown key 'lamda'" in err and "[solver.decoupled]" in err


@pytest.mark.parametrize("line", ["mu_x = 1.0.0", "mu_x = 'abc'", "n = 2.5",
                                  "costs = 5", "D_x = -1.0", "D_y = 0.0"])
def test_malformed_instance_values_are_config_errors(tmp_path, capsys, line):
    # A literal that does not parse, a value of the wrong type and a
    # diameter that is not positive each stop both commands with exit 2.
    key = line.split()[0]
    text = "[experiment]\n" + "\n".join(
        ln for ln in SCSC_SECTION.splitlines() if not ln.startswith(key)) \
        + f"\n{line}\n"
    path = _write(tmp_path, text)
    for code, err in _run_and_bounds(tmp_path, capsys, path):
        assert code == 2
        assert err.startswith("config error: cannot build instance [instance.s]")


@pytest.mark.parametrize("section, line, what", [
    ("decoupled", "max_rounds = 'many'", "a positive integer"),
    ("decoupled", "max_rounds = 2.0", "a positive integer"),
    ("decoupled", "max_rounds = None", "a positive integer"),
    ("extragradient", "max_rounds = 0", "a positive integer"),
    ("local_gda", "steps_per_round = 0", "a positive integer"),
    ("local_gda", "steps_per_round = True", "a positive integer"),
    ("decoupled", "lam = 1e999", "a positive finite number"),
    ("decoupled", "lam = -2.0", "a positive finite number"),
    ("local_gda", "eta_x = -1.0", "a positive finite number"),
    ("local_gda", "eta_y = 'fast'", "a positive finite number"),
])
def test_malformed_solver_values_are_config_errors(tmp_path, capsys, section,
                                                   line, what):
    # These used to become `error:` rows with exit 0, or (a zero step
    # count, a negative step) to run.
    text = "[experiment]\n" + SCSC_SECTION + f"\n[solver.{section}]\n{line}\n"
    path = _write(tmp_path, text)
    key = line.split()[0]
    for code, err in _run_and_bounds(tmp_path, capsys, path):
        assert code == 2
        assert err.startswith(f"config error: {key} must be {what}, got ")
        assert err.endswith(f" in [solver.{section}]\n")
    assert not (tmp_path / "out").exists()


def test_run_and_bounds_read_the_seed_alike(tmp_path, capsys):
    text = "[experiment]\nseed = 1.5\n" + SCSC_SECTION
    (run_code, run_err), (bounds_code, bounds_err) = _run_and_bounds(
        tmp_path, capsys, _write(tmp_path, text))
    assert run_code == bounds_code == 2
    assert run_err == bounds_err
    assert run_err.startswith("config error: seed must be an integer")
    # An overriding `--seed` does not hide the file's bad one.
    path = _write(tmp_path, text)
    assert cli.main(["run", "--config", path, "--seed", "2",
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == run_err


@pytest.mark.parametrize("value", ["(1.0, -1.0)", "5", "(1.0, 1e999)"])
def test_bad_solver_d_hat_is_a_config_error(tmp_path, capsys, value):
    # With bounds checked, the first two used to escape `run_cell` as a
    # traceback (exit 1); without, a negative entry gave an error row and
    # exit 0.
    text = ("[experiment]\n" + SCSC_SECTION
            + f"\n[solver.decoupled]\nd_hat = {value}\n")
    path = _write(tmp_path, text)
    for code, err in _run_and_bounds(tmp_path, capsys, path):
        assert code == 2
        assert err.startswith("config error: d_hat must be a pair of "
                              "positive finite numbers")
    assert cli.main(["run", "--config", path,
                     "--out", str(tmp_path / "out")]) == 2


def test_decoupled_d_hat_needs_two_blocks(tmp_path, capsys):
    # The pair used to reach `decoupled_vi_run` on a 3-block VI, which
    # wrote an error row with an empty `compliant` and exited 0.
    section = "\n[solver.decoupled]\nd_hat = (1.0, 1.0)\n"
    poly = "[experiment]\n[instance.p]\nkind = random_polymatrix\ndims = {}\n"
    path = _write(tmp_path, poly.format("[2, 2, 2]") + section)
    for code, err in _run_and_bounds(tmp_path, capsys, path):
        assert code == 2
        assert err == ("config error: [solver.decoupled] d_hat has 2 entries "
                       "but instance 'p' has 3 blocks\n")
    # A two-block VI takes the pair.
    cli.parse_config(_write(tmp_path, poly.format("[2, 2]") + section))


def test_bounds_d_hat_needs_one_entry_per_block(tmp_path, capsys):
    # `--d-hat` used to print dmvip_comm for a 3-block VI and exit 0.
    poly = "[experiment]\n[instance.p]\nkind = random_polymatrix\ndims = {}\n"
    argv = ["bounds", "--epsilon", "0.1", "--d-hat", "(2.0, 3.0)", "--config"]
    assert cli.main(argv + [_write(tmp_path, poly.format("[2, 2, 2]"))]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: --d-hat has 2 entries but instance 'p' has 3 "
                   "blocks\n")
    assert cli.main(argv + [_write(tmp_path, poly.format("[2, 2]"))]) == 0
    assert "dmvip_comm = " in capsys.readouterr().out
