"""Benchmark for the saddlesplit experiment runner.

Usage (from the repository root)::

    python3 bench/run.py --workload saddle_grid --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

One workload runs in one fresh process, with no worker threads or pools of
its own (NumPy's BLAS keeps its default threads), and drives the
package only through ``cli.parse_config``, ``cli.run_experiment`` (which
calls ``cli.run_cell``) and ``cli.emit_outputs``, as ``saddlesplit run``
does.  After set-up it repeats the whole grid ("a pass") until
``--seconds`` have passed, and always runs at least two passes: the second
pass is the determinism half of the correctness gate.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
passes as well, then sets up again and runs one pass under the span tracer
(``bench/tracer.py``) and prints the per-layer metrics, including the
tracing overhead (traced minus untraced grid time).  Spans are written to
``bench/out/<workload>/spans.npz``.

Grid and cell times are reported in seconds and as ratios to a fixed
reference kernel timed between cells (see ``ReferenceKernel``); of these
only the grid ratio ``grid_ref`` is in the JSON line.  ``setup_s`` is the
median of this process's set-up and four set-ups in fresh child processes
(``--setup-only``) spread over the run.  Every metric is printed on a
``metric`` line with its unit; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs each workload in its own child process, one after
another.
"""

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 4           # fresh processes timed for setup_s, besides this one
MIN_PASSES = 2
GOOD_STATUSES = ("converged", "solution_found", "local_solve")

# (name, unit, better) of every metric the JSON line carries.  A `ref` is
# the time of the reference kernel, timed in the same pass (see
# ReferenceKernel and run_pass).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("grid_ref", "ref", "lower"),
    ("rounds_total", "count", "lower"),
    ("oracle_cost_total", "count", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
# Printed with their unit but kept out of the JSON line.  The wall-clock
# figures swing with the host's speed by more than any bound allows, and
# the per-cell median rests on only three passes on `chain_closed_form`
# (about 10 % spread over seeds even as a ratio); the others are zero on
# some workloads (or undefined on small grids), so they cannot carry a
# relative bound.  `failed_share` is also the JSON's failed / attempted.
END_TO_END_EXTRA = (
    ("solve_ref_p50", "ref"),
    ("grid_s", "s"),
    ("solve_ms_p50", "ms"),
    ("solve_ms_tail", "ms"),
    ("ref_kernel_ms", "ms"),
    ("bound_violations", "count"),
    ("failed_share", "ratio"),
)
RESIDUAL_AGD_EXITS = ("anchor", "constant", "certificate-lip",
                      "certificate-mu", "schedule")
PER_LAYER = (
    ("evaluation.restricted_gap.calls", "count", "lower"),
    ("evaluation.restricted_gap.self_s", "s", "lower"),
    ("evaluation.restricted_gap.ms_p50", "ms", "lower"),
    ("evaluation.restricted_gap.ms_p99", "ms", "lower"),
    ("evaluation.restricted_gap.exact_share", "ratio", "higher"),
    ("evaluation.restricted_gap.decisive_share", "ratio", "higher"),
    ("evaluation.restricted_gap.share", "ratio", "lower"),
    ("problems.spectral_norm.calls", "count", "lower"),
    ("problems.spectral_norm.self_s", "s", "lower"),
    ("problems.oracle.calls", "count", "lower"),
    ("problems.oracle.self_s", "s", "lower"),
    ("problems.oracle.bytes_computed", "bytes", "lower"),
    ("problems.random_polymatrix.self_s", "s", "lower"),
    ("accounting.record.calls", "count", "lower"),
    ("accounting.record.self_s", "s", "lower"),
    ("accounting.retained_bytes_max", "bytes", "lower"),
    ("accounting.end_round.calls", "count", "lower"),
    ("decoupled.split_prox_step.calls", "count", "lower"),
    ("decoupled.split_prox_step.self_s", "s", "lower"),
    ("decoupled.residual_agd.calls", "count", "lower"),
    ("decoupled.residual_agd.self_s", "s", "lower"),
    ("decoupled.residual_agd.queries", "count", "lower"),
    *((f"decoupled.residual_agd.exit.{tag}", "count",
       "lower" if tag == "schedule" else "higher")
      for tag in RESIDUAL_AGD_EXITS),
    ("decoupled.residual_agd.certified_share", "ratio", "higher"),
    ("decoupled.anchored_eg.calls", "count", "lower"),
    ("decoupled.anchored_eg.self_s", "s", "lower"),
    ("decoupled.anchored_eg.queries", "count", "lower"),
    ("decoupled.decoupled_saddle_run.self_s", "s", "lower"),
    ("decoupled.decoupled_vi_run.self_s", "s", "lower"),
    ("baselines.extragradient_run.self_s", "s", "lower"),
    ("baselines.local_gda_run.self_s", "s", "lower"),
    ("metrics.ScaledMetric.calls", "count", "lower"),
    ("metrics.ProductMetric.calls", "count", "lower"),
    ("metrics.ProductMetric.self_s", "s", "lower"),
    ("cli.parse_config.self_s", "s", "lower"),
    ("cli.run_cell.self_s", "s", "lower"),
    ("cli.emit_outputs.self_s", "s", "lower"),
    ("cli.emit_outputs.bytes", "bytes", "lower"),
    ("hard_instances.make_hard_saddle.self_s", "s", "lower"),
    ("trace.grid_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)
UNITS = {name: unit for name, unit, *_ in END_TO_END + END_TO_END_EXTRA
         + PER_LAYER}


class BenchError(Exception):
    """The benchmark cannot run here, or its own checks failed."""


def import_package():
    """Import saddlesplit from this checkout's ``src``; returns (cli, seconds)."""
    src = ROOT / "src"
    if not (src / "saddlesplit" / "__init__.py").is_file():
        raise BenchError(f"no saddlesplit package under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    from saddlesplit import cli
    import_s = time.perf_counter() - t0
    if Path(cli.__file__).resolve().parents[1] != src:
        raise BenchError(f"imported saddlesplit from {cli.__file__}, not {src}")
    sys.path.insert(0, str(BENCH_DIR))
    return cli, import_s


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class ReferenceKernel:
    """Fixed work that never calls saddlesplit, run before every cell.

    On a 2-vCPU virtual machine shared with other tenants, speed changed
    by up to a factor of two over seconds and minutes, and that moves every
    wall-clock figure of a run together.
    ``grid_ref`` divides a pass's grid time by this kernel's median time in
    the same pass, and ``solve_ref_p50`` divides each cell by the kernel
    runs around it, which cancels most of that swing.  The kernel mixes the
    two kinds of work the workloads do: small NumPy operations driven from
    Python, and products with an 8 MB matrix.
    """

    def __init__(self):
        import numpy as np
        self._np = np
        self._matrix = np.random.default_rng(0).standard_normal((1000, 1000))
        self._vector = np.ones(1000)

    def __call__(self):
        np = self._np
        t0 = time.perf_counter()
        for _ in range(3):
            self._matrix @ self._vector
        x, acc = np.ones(8), 0.0
        for _ in range(300):
            y = x * 1.0001 + 0.5
            acc += float(np.sqrt(np.dot(y, y)))
            x = y / (1.0 + acc * 1e-12)
        return time.perf_counter() - t0


class CellTimer:
    """Times every ``cli.run_cell`` call that ``run_experiment`` makes, in
    call order, and (unless `reference` is None) the reference kernel just
    before each of them."""

    def __init__(self, cli, reference):
        self.reference = reference
        self.cells, self.ref_times = [], []
        run_cell = cli.run_cell

        def timed(instance_id, problem, solver, eps, *args, **kwargs):
            if self.reference is not None:
                self.ref_times.append(self.reference())
            t0 = time.perf_counter()
            try:
                return run_cell(instance_id, problem, solver, eps,
                                *args, **kwargs)
            finally:
                self.cells.append(((instance_id, solver, float(eps)),
                                   time.perf_counter() - t0))
        cli.run_cell = timed


def read_csv_fields(path):
    """``(instance, solver, epsilon) -> non-timing CSV fields`` of a results file."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    keep = [i for i, h in enumerate(header) if h != "wall_ms"]
    fields = {}
    for line in lines[1:]:
        rec = line.split(",")
        if len(rec) != len(header):
            raise BenchError(f"malformed CSV line in {path}: {line!r}")
        key = (rec[0], rec[1], float(rec[2]))
        if key in fields:
            raise BenchError(f"duplicate CSV row {key} in {path}")
        fields[key] = tuple(rec[i] for i in keep)
    return fields


def run_pass(cli, config, timer, out_dir):
    """One whole grid through ``emit_outputs``; returns its record.

    ``grid_s`` leaves out the reference kernel runs.  With the kernel on,
    ``ref_s`` is its median over the pass, and ``cell_ref`` is each cell's
    time divided by the mean of the kernel runs just before and just after
    it (one more kernel run follows the pass, outside ``grid_s``).
    """
    timer.cells, timer.ref_times = [], []
    t0 = time.perf_counter()
    rows = cli.run_experiment(config)
    paths = cli.emit_outputs(rows, str(out_dir))
    grid_s = time.perf_counter() - t0 - sum(timer.ref_times)
    record = {"rows": rows, "grid_s": grid_s, "cell_s": dict(timer.cells),
              "fields": read_csv_fields(paths[0]), "svgs": len(paths) - 1}
    if timer.reference is not None:
        ref = timer.ref_times + [timer.reference()]
        record["ref_s"] = statistics.median(ref)
        record["cell_ref"] = {key: t / (0.5 * (ref[i] + ref[i + 1]))
                              for i, (key, t) in enumerate(timer.cells)}
    return record


def row_key(row):
    return (row.instance_id, row.solver, float(row.epsilon))


def row_failure(row):
    """Why a result row counts as a failed cell, or None."""
    if row.status.startswith("error"):
        return row.status
    if row.status == "budget_exhausted":
        return "budget_exhausted"
    if row.status in GOOD_STATUSES and (
            row.gap is None or not math.isfinite(row.gap)
            or row.gap > row.epsilon):
        return f"{row.status} with gap {row.gap} above epsilon {row.epsilon}"
    return None


def gate(passes, n_cells, n_instances):
    """Correctness gate over all passes: (attempted, failures).

    A cell run fails on an error row, on ``budget_exhausted``, on a good
    status whose gap is missing, non-finite or above epsilon, and when its
    non-timing CSV fields differ between passes (then every pass of that
    cell counts).  A pass whose CSV or plots do not cover the grid raises.
    """
    first = passes[0]["fields"]
    unstable = {key for p in passes[1:] for key in first
                if p["fields"].get(key) != first[key]}
    failures = []
    for k, p in enumerate(passes):
        keys = {row_key(r) for r in p["rows"]}
        if len(p["rows"]) != n_cells or set(p["fields"]) != keys:
            raise BenchError(f"pass {k + 1}: CSV rows do not match the grid")
        if p["svgs"] != n_instances:
            raise BenchError(f"pass {k + 1}: {p['svgs']} plots for "
                             f"{n_instances} instances")
        for row in p["rows"]:
            why = row_failure(row)
            if why is None and row_key(row) in unstable:
                why = "non-timing CSV fields differ between passes"
            if why is not None:
                failures.append((k + 1, row_key(row), why))
    return n_cells * len(passes), failures


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(values, beyond=10):
    """Highest order statistic with `beyond` samples above it, with its
    percentile rank; None when there are too few samples for a tail above
    the median."""
    n = len(values)
    if n < 2 * beyond:
        return None
    return sorted(values)[n - beyond - 1], 100.0 * (n - beyond) / n


def end_to_end_metrics(passes, setup_s):
    """End-to-end metrics plus the per-cell median times (ms)."""
    rows = passes[0]["rows"]
    keys = list(passes[0]["cell_s"])
    cell_ms = [1000.0 * statistics.median(p["cell_s"][k] for p in passes)
               for k in keys]
    cell_ref = [statistics.median(p["cell_ref"][k] for p in passes)
                for k in keys]
    return {
        "setup_s": setup_s,
        "grid_ref": statistics.median(p["grid_s"] / p["ref_s"]
                                      for p in passes),
        "solve_ref_p50": statistics.median(cell_ref),
        "rounds_total": sum(r.rounds for r in rows),
        "oracle_cost_total": sum(r.weighted_cost for r in rows),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "grid_s": statistics.median(p["grid_s"] for p in passes),
        "solve_ms_p50": statistics.median(cell_ms),
        "ref_kernel_ms": 1000.0 * statistics.median(p["ref_s"]
                                                    for p in passes),
    }, cell_ms


def layer_metrics(tracer, traced, untraced_grid_s):
    import numpy as np
    table = tracer.span_table()
    by = tracer.by_name(table)

    def calls(name):
        return by.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return by.get(name, (0, 0.0, 0.0))[2]

    gap = "evaluation.restricted_gap"
    gap_ms = 1000.0 * tracer.durations(gap, table)
    gap_calls = calls(gap)
    agd = "decoupled.residual_agd"
    agd_calls = calls(agd)
    exits = {tag: tracer.counts[f"residual_agd.exit.{tag}"]
             for tag in RESIDUAL_AGD_EXITS}
    grid_incl = (by.get("cli.run_experiment", (0, 0.0, 0.0))[1]
                 + by.get("cli.emit_outputs", (0, 0.0, 0.0))[1])
    out = {
        f"{gap}.calls": gap_calls,
        f"{gap}.self_s": self_s(gap),
        f"{gap}.ms_p50": float(np.percentile(gap_ms, 50)) if gap_calls else 0.0,
        f"{gap}.ms_p99": float(np.percentile(gap_ms, 99)) if gap_calls else 0.0,
        f"{gap}.exact_share": (tracer.counts["restricted_gap.exact"]
                               / gap_calls if gap_calls else 0.0),
        f"{gap}.decisive_share": (len(traced["rows"]) / gap_calls
                                  if gap_calls else 0.0),
        f"{gap}.share": by.get(gap, (0, 0.0, 0.0))[1] / grid_incl,
        "problems.oracle.bytes_computed": tracer.tallies["oracle.bytes_computed"],
        "accounting.retained_bytes_max": max(tracer.retained.values(),
                                             default=0),
        f"{agd}.queries": tracer.tallies["residual_agd.queries"],
        f"{agd}.certified_share": ((exits["certificate-lip"]
                                    + exits["certificate-mu"]) / agd_calls
                                   if agd_calls else 0.0),
        "decoupled.anchored_eg.queries": tracer.tallies["anchored_eg.queries"],
        "metrics.ScaledMetric.calls": tracer.counts["metrics.ScaledMetric"],
        "cli.emit_outputs.bytes": tracer.tallies["emit_outputs.bytes"],
        "trace.grid_s": traced["grid_s"],
        "trace.overhead_s": traced["grid_s"] - untraced_grid_s,
        "trace.spans": len(table["dur"]),
    }
    for tag, n in exits.items():
        out[f"{agd}.exit.{tag}"] = n
    for name, unit, _ in PER_LAYER:
        if name in out:
            continue
        layer, stat = name.rsplit(".", 1)
        out[name] = calls(layer) if stat == "calls" else self_s(layer)
    return out


def check_tracer(tracer, traced):
    """The traced counts must equal the ledger counts of the traced pass."""
    rows = traced["rows"]
    queries = sum(sum(r.queries.values()) for r in rows)
    rounds = sum(r.rounds for r in rows)
    by = tracer.by_name()
    got = {name: by.get(name, (0,))[0]
           for name in ("accounting.record", "accounting.end_round",
                        "cli.run_cell")}
    want = {"accounting.record": queries, "accounting.end_round": rounds,
            "cli.run_cell": len(rows)}
    bad = [f"{k}: traced {got[k]} != ledger {want[k]}"
           for k in want if got[k] != want[k]]
    if bad:
        raise BenchError("tracer inconsistent with the ledgers: "
                         + "; ".join(bad))


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def child_command(args, workload, *extra):
    """This script with `args` for one workload, as a child process."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    return cmd + ["--small"] if args.small else cmd


def fresh_setup_s(args):
    """Set-up time of one fresh process: import, parse, instance generation."""
    proc = subprocess.run(child_command(args, args.workload, "--setup-only"),
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def run_workload(args):
    workload, seed, trace = args.workload, args.seed, bool(args.trace)
    cli, import_s = import_package()
    from workloads import config_text, finish_config

    work = OUT_DIR / workload
    work.mkdir(parents=True, exist_ok=True)
    cfg_path = work / "experiment.ini"
    cfg_path.write_text(config_text(workload, seed, args.small))

    def setup():
        return finish_config(workload, cli.parse_config(str(cfg_path),
                                                        seed=seed))

    t0 = time.perf_counter()
    config = setup()
    setups = [import_s + time.perf_counter() - t0]
    if args.setup_only:
        return {"setup_s": setups[0]}
    timer = CellTimer(cli, ReferenceKernel())
    n_cells = len(config.instances) * len(config.solvers) * len(config.epsilons)

    passes = []
    t0 = time.perf_counter()
    min_passes = 1 if trace else MIN_PASSES
    while len(passes) < min_passes or time.perf_counter() - t0 < args.seconds:
        passes.append(run_pass(cli, config, timer, work / "grid"))
        if not trace and len(setups) <= SETUP_PROBES:
            # Spread over the run, so the median sees more than one moment
            # of the host's speed.
            setups.append(fresh_setup_s(args))
    if not trace:
        setups += [fresh_setup_s(args)
                   for _ in range(SETUP_PROBES + 1 - len(setups))]
    untraced_grid_s = statistics.median(p["grid_s"] for p in passes)

    if trace:
        from tracer import Tracer
        timer.reference = None
        with Tracer() as tracer:
            config = setup()
            tracer.register_problems(config.instances)
            traced = run_pass(cli, config, timer, work / "grid")
        passes.append(traced)
        check_tracer(tracer, traced)
        tracer.save(work / "spans.npz")

    attempted, failures = gate(passes, n_cells, len(config.instances))
    for k, key, why in failures:
        print(f"failed cell (pass {k}): {'/'.join(map(str, key))}: {why}")
    info = {"workload": workload, "seed": seed, "cells": n_cells,
            "setup_s": setups, "pass_grid_s": [p["grid_s"] for p in passes]}
    if trace:
        metrics = layer_metrics(tracer, traced, untraced_grid_s)
        names = [name for name, *_ in PER_LAYER]
    else:
        metrics, cell_ms = end_to_end_metrics(
            passes, statistics.median(setups))
        names = [name for name, *_ in END_TO_END]
        rows = passes[0]["rows"]
        t = tail(cell_ms)
        if t is not None:
            metrics["solve_ms_tail"] = t[0]
            info["solve_ms_tail_percentile"] = t[1]
        info["solve_ms_samples"] = len(cell_ms)
        metrics["bound_violations"] = sum(r.compliant == "false" for r in rows)
        metrics["failed_share"] = len(failures) / attempted
        for r in rows:
            if r.compliant == "false":
                print(f"bound violation: {r.instance_id}/{r.solver} at "
                      f"epsilon={r.epsilon}")
    print("info " + json.dumps(info))
    for name, value in metrics.items():
        print(f"metric {workload}.{name} = {value!r} {UNITS[name]}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]}
                    for name in names},
    }


def run_all(args):
    """Each workload in its own child process, one after another."""
    from workloads import WORKLOADS
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(child_command(args, workload),
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {workload} exited with "
                             f"{proc.returncode}")
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced grids of the same shape (smoke tests)")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and exit")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH_DIR))
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            from workloads import WORKLOADS
            if args.workload not in WORKLOADS:
                parser.error(f"unknown workload {args.workload!r}; choose "
                             f"from {', '.join(WORKLOADS)} or all")
            result = run_workload(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
