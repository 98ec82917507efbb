"""Tests of the benchmark itself (not of saddlesplit).

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
The end-to-end tests start ``bench/run.py`` as a child process on the
reduced (``--small``) grids, one workload per process as in a real run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from workloads import WHY, WORKLOADS  # noqa: E402


def _bench(*args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=300)
    return proc


def _small(workload, seed, trace=0):
    proc = _bench("--workload", workload, "--seed", str(seed),
                  "--seconds", "0", "--trace", str(trace), "--small")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            name, _, rest = line[len("metric "):].partition(" = ")
            value, unit = rest.rsplit(" ", 1)
            printed[name.split(".", 1)[1]] = (float(value), unit)
        elif line.startswith("info "):
            info = json.loads(line[len("info "):])
    return json.loads(lines[-1]), printed, info


@pytest.fixture(scope="module")
def small_runs():
    return {w: _small(w, seed=1) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct(small_runs, workload):
    result, printed, _ = small_runs[workload]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {n for n, *_ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(small_runs, workload):
    result, printed, info = small_runs[workload]
    expected = {n: u for n, u, *_ in run.END_TO_END + run.END_TO_END_EXTRA}
    if run.tail(range(info["cells"])) is None:
        del expected["solve_ms_tail"]      # too few cells for a tail
    assert {n: u for n, (_, u) in printed.items()} == expected
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.UNITS[name]
        assert printed[name][0] == metric["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_same_metric_set(small_runs, workload):
    first, printed_first, _ = small_runs[workload]
    second, printed_second, _ = _small(workload, seed=2)
    assert set(second["metrics"]) == set(first["metrics"])
    assert set(printed_second) == set(printed_first)
    assert printed_second["failed_share"][0] == 0.0
    assert second["failed"] == 0


def test_traced_run_prints_every_layer_metric():
    result, printed, _ = _small("vi_polymatrix", seed=1, trace=1)
    names = [n for n, *_ in run.PER_LAYER]
    assert result["correct"] is True
    assert list(result["metrics"]) == names
    assert {n: u for n, (_, u) in printed.items()} == {
        n: u for n, u, _ in run.PER_LAYER}
    assert printed["decoupled.anchored_eg.calls"][0] > 0
    assert printed["decoupled.residual_agd.calls"][0] > 0
    assert printed["accounting.end_round.calls"][0] > 0


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        assert workload["why"] == WHY[workload["name"]]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "saddle_grid", "--seed", "1", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path,
                  script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------------
# pieces
# ---------------------------------------------------------------------------

def _row(status, gap, eps=0.1, solver="decoupled"):
    return SimpleNamespace(instance_id="i", solver=solver, epsilon=eps,
                           status=status, gap=gap)


def test_row_failure_rules():
    assert run.row_failure(_row("converged", 0.05)) is None
    assert run.row_failure(_row("diverged", 1e8, solver="local_gda")) is None
    assert run.row_failure(_row("converged", 0.2)) is not None
    assert run.row_failure(_row("local_solve", float("nan"))) is not None
    assert run.row_failure(_row("solution_found", None)) is not None
    assert run.row_failure(_row("budget_exhausted", 0.05)) is not None
    assert run.row_failure(_row("error: boom", None)) is not None


def test_gate_counts_unstable_cells_in_every_pass():
    rows = [_row("converged", 0.05, eps=e) for e in (0.1, 0.2)]

    def make_pass(gap_text):
        return {"rows": rows, "svgs": 1,
                "fields": {("i", "decoupled", 0.1): ("a", gap_text),
                           ("i", "decoupled", 0.2): ("b", "0.1")}}
    attempted, failures = run.gate([make_pass("0.05"), make_pass("0.05")],
                                   n_cells=2, n_instances=1)
    assert (attempted, failures) == (4, [])
    attempted, failures = run.gate([make_pass("0.05"), make_pass("0.04")],
                                   n_cells=2, n_instances=1)
    assert attempted == 4
    assert [(k, key) for k, key, _ in failures] == [
        (1, ("i", "decoupled", 0.1)), (2, ("i", "decoupled", 0.1))]


def test_tail_needs_ten_samples_beyond_the_median():
    assert run.tail(list(range(19))) is None
    value, pct = run.tail(list(range(48)))
    assert value == 37 and sum(v > value for v in range(48)) == 10
    assert pct == pytest.approx(100.0 * 38 / 48)


def test_self_time_excludes_children():
    from tracer import Tracer
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    table = tracer.span_table()
    by = tracer.by_name(table)
    assert by["inner"][0] == 3 and by["outer"][0] == 1
    outer_dur = table["dur"][table["name"] == tracer.names.index("outer")][0]
    assert by["outer"][2] == pytest.approx(outer_dur - by["inner"][1])
    assert by["outer"][1] == pytest.approx(outer_dur)
