"""Golden-bytes guard: small grids' results.csv must not change by a bit.

Hot-loop refactors (fewer NumPy calls, cached constants, dropped copies)
must leave every round, query count, status and gap digit as it was.  The
fixture was written by the code before such a refactor; to regenerate it
after a deliberate change of results, run this module as a script:

    PYTHONPATH=src python tests/test_golden.py

It prints every moved row, with ``fixture -> got`` per column, then the
number of moved cells and the largest relative move in each numeric
column, before it rewrites a fixture.

Two fixtures hold the full benchmark grids, ``saddle_grid`` and
``chain_closed_form`` at seed 1, from the configs `bench/workloads.py`
writes, so a performance change is checked on the bytes it is measured
on.
"""

import collections
import csv
import importlib.util
import math
import os

import pytest

from saddlesplit import baselines, cli, decoupled

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "golden_results.csv")
VI_FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                          "golden_vi_results.csv")
CHAIN_FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                             "golden_chain_results.csv")
BENCH_WORKLOADS = ("saddle_grid", "chain_closed_form")


def bench_fixture(workload):
    return os.path.join(os.path.dirname(__file__), "data",
                        f"golden_bench_{workload}.csv")


def bench_config(workload):
    """The benchmark's experiment file for `workload` at seed 1."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                        "workloads.py")
    spec = importlib.util.spec_from_file_location(
        "saddlesplit_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.config_text(workload, 1)

# Both chain side instances (local solves), the bilinear chain and one scsc
# instance, whose gap takes the projected-gradient path.
GOLDEN_CONFIG = """
[experiment]
epsilons = [0.05, 0.02]
solvers = decoupled, extragradient, local_gda
seed = 1
check_bounds = true

[instance.hard_x]
kind = hard_x
L = 100.0
D = 1.0
k = 5

[instance.hard_y]
kind = hard_y
L = 100.0
D = 1.0
k = 5

[instance.hard_xy]
kind = hard_xy
L = 1.0
D = 1.0
k = 20

[instance.scsc]
kind = scsc
mu_x = 1.0
mu_y = 1.0
coupling = 1.0
n = 2
"""

# The VI path: three coupled blocks of dim 5 drawn from the seed, solved by
# the decoupled driver with K = 3 agents.
GOLDEN_VI_CONFIG = """
[experiment]
epsilons = [0.1, 0.05]
solvers = decoupled
seed = 1
check_bounds = true

[instance.polymatrix]
kind = random_polymatrix
dims = (5, 5, 5)
diag = 0.5
"""


# The nonzero-triplet product kernel: at k = 63 the bilinear chain (128 x
# 127, 254 nonzeros) is the smallest with 64 * nnz <= m * n, so its oracles
# and gaps leave the BLAS path that the k = 20 chain above takes.
GOLDEN_CHAIN_CONFIG = """
[experiment]
epsilons = [0.05, 0.02]
solvers = decoupled, extragradient, local_gda
seed = 1
check_bounds = true

[instance.hard_xy_sparse]
kind = hard_xy
L = 1.0
D = 1.0
k = 63
"""


def golden_csv(tmp_dir, config=GOLDEN_CONFIG):
    path = os.path.join(tmp_dir, "golden.ini")
    with open(path, "w") as fh:
        fh.write(config)
    rows = cli.run_experiment(cli.parse_config(path), clock=lambda: 0.0)
    return cli.rows_to_csv(rows)


def row_differences(got, want):
    """Every row where `got` departs from the fixture `want`: the row's
    ``(instance, solver, epsilon)`` and each differing column as
    ``fixture -> got``, then the line counts if they differ or no row
    does."""
    got_rows = list(csv.reader(got.splitlines()))
    want_rows = list(csv.reader(want.splitlines()))
    header = want_rows[0]
    moved = []
    for g, w in zip(got_rows, want_rows):
        if g != w:
            columns = {name: f"{a} -> {b}"
                       for name, a, b in zip(header, w, g) if a != b}
            moved.append(f"row {tuple(w[:3])} differs: {columns}")
    if len(got_rows) != len(want_rows) or not moved:
        moved.append(f"the fixture has {len(want_rows)} lines, "
                     f"the run {len(got_rows)}")
    return moved


def move_summary(got, want):
    """How far `got` moved from the fixture `want`: the number of moved
    cells, then per moved numeric column its largest relative move,
    ``|got - fixture| / |fixture|`` (infinite from a zero fixture cell)."""
    got_rows = list(csv.reader(got.splitlines()))
    want_rows = list(csv.reader(want.splitlines()))
    header = want_rows[0]
    cells = 0
    largest = {}
    for g, w in zip(got_rows[1:], want_rows[1:]):
        for name, a, b in zip(header, w, g):
            if a == b:
                continue
            cells += 1
            try:
                a, b = float(a), float(b)
            except ValueError:
                continue
            move = abs(b - a) / abs(a) if a else math.inf
            largest[name] = max(largest.get(name, 0.0), move)
    return [f"{cells} moved cells"] + [
        f"largest relative move of {name}: {move:.3g}"
        for name, move in largest.items()]


def first_difference(got, want):
    """Where `got` first departs from the fixture `want`."""
    return row_differences(got, want)[0]


def assert_matches_fixture(got, fixture):
    with open(fixture) as fh:
        want = fh.read()
    assert got == want, first_difference(got, want)


def test_results_csv_matches_fixture(tmp_path):
    assert_matches_fixture(golden_csv(str(tmp_path)), FIXTURE)


def test_vi_results_csv_matches_fixture(tmp_path):
    assert_matches_fixture(golden_csv(str(tmp_path), GOLDEN_VI_CONFIG),
                           VI_FIXTURE)


def test_chain_triplet_results_csv_matches_fixture(tmp_path):
    assert_matches_fixture(golden_csv(str(tmp_path), GOLDEN_CHAIN_CONFIG),
                           CHAIN_FIXTURE)


# Gap evaluations per method in one seed-1 pass of each benchmark grid.
BENCH_GAP_EVALUATIONS = {
    "saddle_grid": {"pga-estimate": 30, "bilinear-closed-form": 137},
    "chain_closed_form": {"bilinear-closed-form": 237,
                          "quadratic-closed-form": 84},
}


@pytest.mark.parametrize("workload", BENCH_WORKLOADS)
def test_bench_grid_results_csv_matches_fixture(tmp_path, monkeypatch,
                                                workload):
    # The solvers look up their module's `restricted_gap` when a run
    # starts, so these patches count every gap evaluation of the grid.
    methods = collections.Counter()
    for module in (baselines, decoupled):
        def counted(problem, candidate, evaluate=module.restricted_gap):
            result = evaluate(problem, candidate)
            methods[result.method] += 1
            return result
        monkeypatch.setattr(module, "restricted_gap", counted)
    assert_matches_fixture(golden_csv(str(tmp_path), bench_config(workload)),
                           bench_fixture(workload))
    assert methods == BENCH_GAP_EVALUATIONS[workload]


def test_first_difference_names_the_row_and_its_columns():
    want = "instance_id,solver,epsilon,rounds,gap\na,decoupled,0.1,2,0.5\n"
    got = "instance_id,solver,epsilon,rounds,gap\na,decoupled,0.1,3,0.5\n"
    assert first_difference(got, want) == \
        "row ('a', 'decoupled', '0.1') differs: {'rounds': '2 -> 3'}"
    assert first_difference(want + "b,x,1,1,1\n", want) == \
        "the fixture has 2 lines, the run 3"
    # Several rows: the first names the first moved row, and the full list
    # names every moved row in order.
    want3 = want + "b,decoupled,0.1,4,0.25\nc,decoupled,0.1,5,0.125\n"
    got3 = want + "b,decoupled,0.1,4,0.5\nc,decoupled,0.1,6,0.25\n"
    assert first_difference(got3, want3) == \
        "row ('b', 'decoupled', '0.1') differs: {'gap': '0.25 -> 0.5'}"
    assert row_differences(got3, want3) == [
        "row ('b', 'decoupled', '0.1') differs: {'gap': '0.25 -> 0.5'}",
        "row ('c', 'decoupled', '0.1') differs: "
        "{'rounds': '5 -> 6', 'gap': '0.125 -> 0.25'}"]


def test_move_summary_counts_cells_and_the_largest_relative_moves():
    want = ("instance_id,solver,epsilon,rounds,gap,status\n"
            "a,decoupled,0.1,2,0.5,converged\n"
            "b,decoupled,0.1,4,0.25,converged\n"
            "c,decoupled,0.1,5,0,converged\n")
    got = ("instance_id,solver,epsilon,rounds,gap,status\n"
           "a,decoupled,0.1,2,0.5000000000000001,converged\n"
           "b,decoupled,0.1,5,0.5,diverged\n"
           "c,decoupled,0.1,5,0,converged\n")
    assert move_summary(got, want) == [
        "4 moved cells",
        "largest relative move of gap: 1",
        "largest relative move of rounds: 0.25"]
    assert move_summary(want, want) == ["0 moved cells"]
    zero = want.replace("c,decoupled,0.1,5,0,", "c,decoupled,0.1,5,1e-300,")
    assert move_summary(zero, want)[-1] == "largest relative move of gap: inf"


if __name__ == "__main__":
    import tempfile

    for fixture, config in ((FIXTURE, GOLDEN_CONFIG),
                            (VI_FIXTURE, GOLDEN_VI_CONFIG),
                            (CHAIN_FIXTURE, GOLDEN_CHAIN_CONFIG),
                            *((bench_fixture(w), bench_config(w))
                              for w in BENCH_WORKLOADS)):
        with tempfile.TemporaryDirectory() as tmp:
            text = golden_csv(tmp, config)
        if os.path.exists(fixture):
            with open(fixture) as fh:
                old = fh.read()
            if text != old:
                for line in row_differences(text, old):
                    print(line)
            for line in move_summary(text, old):
                print(line)
        with open(fixture, "w") as fh:
            fh.write(text)
        print(f"wrote {fixture}")
