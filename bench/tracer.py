"""In-memory span tracer that wraps saddlesplit's public functions.

Spans are recorded from the benchmark's side only: each wrapper is
installed on the module attribute where the package looks the function up
at call time (``decoupled.residual_agd``, ``baselines.restricted_gap``,
``OracleLedger.record``, ...), so nothing under ``src/`` changes.  Every
span keeps a name, start, end, parent span and cell id in flat arrays;
self time is a span's duration minus the durations of its direct children
(calls are sequential, so children never overlap).

Very frequent, very cheap calls (``ScaledMetric`` methods) are counted
without spans, so their time stays in the caller's self time.
"""

from array import array
from collections import Counter, defaultdict
import os
import time

import numpy as np

from saddlesplit import (
    accounting, baselines, cli, decoupled, evaluation, hard_instances, metrics,
    problems,
)

_PRODUCT_METRIC_METHODS = ("norm", "dual_norm", "inner", "apply",
                           "apply_inv", "split", "join")
_SCALED_METRIC_METHODS = ("norm", "dual_norm", "inner", "apply", "apply_inv")


def array_bytes(obj):
    """Bytes of every ndarray in `obj` (arrays, tuples, lists, nesting)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(array_bytes(o) for o in obj)
    return 0


def oracle_matrix_bytes(problem):
    """Computed bytes of matrix data each of `problem`'s oracles reads.

    Keyed by ``id`` of the oracle function handed to ``OracleLedger.bind``.
    Derived from the generator's recorded structure; instances without
    matrix structure (``scsc``) read only their input and output vectors.
    """
    st = problem.structure or {}
    kind = st.get("kind")
    if kind == "polymatrix":
        return {id(op): sum(m.nbytes for m in st["blocks"][i]) + st["b"][i].nbytes
                for i, op in enumerate(problem.operators)}
    if kind == "bilinear":
        a, b = st["A"].nbytes, st["b"].nbytes
        return {id(problem.grad_x): a, id(problem.grad_y): a + b}
    if kind in ("quadratic_x", "quadratic_y"):
        # Active side: A^T (A w - b) reads A twice; the inert side reads none.
        active = problem.grad_x if kind == "quadratic_x" else problem.grad_y
        return {id(active): 2 * st["A"].nbytes + st["b"].nbytes}
    return {}


class Tracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.cell_of = array("q")
        self._stack = []
        self.cell = -1
        self.cells = []
        self.counts = Counter()
        self.tallies = defaultdict(float)
        self.retained = defaultdict(int)       # cell id -> ledger bytes held
        self._oracle_bytes = {}
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.cell_of.append(self.cell)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, after=None):
        """`fn` inside a span called `name`; `after(args, result)` runs
        once the span is closed, so its bookkeeping is not timed."""
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, out)
            return out
        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_span(self, owner, attr, name, after=None):
        self._patch(owner, attr, self.wrap(name, getattr(owner, attr), after))

    def register_problems(self, instances):
        """Learn the matrix bytes behind each instance's oracles."""
        for _, problem in instances:
            self._oracle_bytes.update(oracle_matrix_bytes(problem))

    def install(self):
        """Wrap every traced entry point; undo with `uninstall`."""
        self._patch(cli, "run_cell", self._cell_wrapper(cli.run_cell))
        for attr in ("parse_config", "run_experiment", "emit_outputs"):
            after = self._after_emit if attr == "emit_outputs" else None
            self._patch_span(cli, attr, f"cli.{attr}", after)
        for mod in (decoupled, baselines, cli):
            self._patch_span(mod, "restricted_gap",
                             "evaluation.restricted_gap", self._after_gap)
        for mod in (evaluation, problems):
            self._patch_span(mod, "spectral_norm", "problems.spectral_norm")
        self._patch_span(cli, "random_polymatrix", "problems.random_polymatrix")
        self._patch_span(hard_instances, "make_hard_saddle",
                         "hard_instances.make_hard_saddle")
        self._patch_span(decoupled, "split_prox_step",
                         "decoupled.split_prox_step")
        self._patch_span(decoupled, "residual_agd", "decoupled.residual_agd",
                         self._after_residual_agd)
        self._patch_span(decoupled, "anchored_eg", "decoupled.anchored_eg",
                         self._after_anchored_eg)
        for attr in ("decoupled_saddle_run", "decoupled_vi_run"):
            self._patch_span(cli, attr, f"decoupled.{attr}")
        for attr in ("extragradient_run", "local_gda_run"):
            self._patch_span(cli, attr, f"baselines.{attr}")
        ledger = accounting.OracleLedger
        self._patch_span(ledger, "record", "accounting.record",
                         self._after_record)
        self._patch_span(ledger, "end_round", "accounting.end_round")
        self._patch(ledger, "bind", self._bind_wrapper(ledger.bind))
        for attr in _PRODUCT_METRIC_METHODS:
            self._patch_span(metrics.ProductMetric, attr,
                             "metrics.ProductMetric")
        for attr in _SCALED_METRIC_METHODS:
            self._patch(metrics.ScaledMetric, attr,
                        self._counted("metrics.ScaledMetric",
                                      getattr(metrics.ScaledMetric, attr)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- wrappers with bookkeeping -------------------------------------------

    def _cell_wrapper(self, run_cell):
        traced = self.wrap("cli.run_cell", run_cell)

        def cell(instance_id, problem, solver, eps, *args, **kwargs):
            self.cell = len(self.cells)
            self.cells.append((instance_id, solver, float(eps)))
            try:
                return traced(instance_id, problem, solver, eps,
                              *args, **kwargs)
            finally:
                self.cell = -1
        return cell

    def _bind_wrapper(self, bind):
        tracer = self
        nid = self._name_id("problems.oracle")

        def traced_bind(ledger, agent, fn):
            matrix_bytes = tracer._oracle_bytes.get(id(fn), 0)

            def oracle(point):
                idx = tracer._open(nid)
                try:
                    response = fn(point)
                finally:
                    tracer._close(idx)
                tracer.tallies["oracle.bytes_computed"] += (
                    matrix_bytes + array_bytes(point)
                    + np.asarray(response).nbytes)
                return response
            return bind(ledger, agent, oracle)
        return traced_bind

    def _counted(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _after_gap(self, args, result):
        self.counts["restricted_gap.exact"] += bool(result.exact)

    def _after_record(self, args, result):
        _, _, point, response = args
        self.retained[self.cell] += (array_bytes(point)
                                     + np.asarray(response, dtype=float).nbytes)

    def _after_residual_agd(self, args, result):
        self.counts[f"residual_agd.exit.{result.exit}"] += 1
        self.tallies["residual_agd.queries"] += result.queries

    def _after_anchored_eg(self, args, result):
        self.tallies["anchored_eg.queries"] += result.queries

    def _after_emit(self, args, paths):
        self.tallies["emit_outputs.bytes"] += sum(
            os.path.getsize(p) for p in paths)

    # -- analysis ------------------------------------------------------------

    def span_table(self):
        """Columns of every recorded span, with self time computed."""
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=float, count=n)
        end = np.frombuffer(self.end, dtype=float, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        name = np.frombuffer(self.name_of, dtype=np.uint16, count=n)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        return {"name": name, "start": start, "end": end, "parent": parent,
                "cell": np.frombuffer(self.cell_of, dtype=np.int64, count=n),
                "dur": dur, "self": dur - child}

    def by_name(self, table=None):
        """``name -> (calls, inclusive seconds, self seconds)``.

        Inclusive time skips spans whose parent has the same name (such as
        ``ProductMetric.norm`` calling ``split``), so a layer's time is not
        counted twice.
        """
        t = self.span_table() if table is None else table
        k = len(self.names)
        calls = np.bincount(t["name"], minlength=k)
        self_s = np.bincount(t["name"], weights=t["self"], minlength=k)
        parent_name = np.where(t["parent"] >= 0,
                               t["name"][np.maximum(t["parent"], 0)], -1)
        outer = parent_name != t["name"]
        incl = np.bincount(t["name"][outer], weights=t["dur"][outer],
                           minlength=k)
        return {nm: (int(calls[i]), float(incl[i]), float(self_s[i]))
                for i, nm in enumerate(self.names)}

    def durations(self, name, table=None):
        t = self.span_table() if table is None else table
        nid = self._name_ids.get(name)
        if nid is None:
            return np.zeros(0)
        return t["dur"][t["name"] == nid]

    def save(self, path):
        """Write every span (and the name and cell tables) to `path`."""
        t = self.span_table()
        np.savez(path, name=t["name"], start=t["start"], end=t["end"],
                 parent=t["parent"], cell=t["cell"], self_s=t["self"],
                 names=np.array(self.names),
                 cells=np.array([f"{i}/{s}/{e!r}" for i, s, e in self.cells]))

