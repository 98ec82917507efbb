"""Experiment runner for the distributed saddle/VI solvers.

Subcommands
-----------
run           execute an (instance x solver x epsilon) grid from a config
              file, with per-run oracle ledgers, and write a CSV table plus
              one SVG plot (rounds against 1/epsilon) per instance.
hard-instance emit a worst-case chain construction as a recipe file.
bounds        print the closed-form complexity bounds for an instance.

Config files are flat INI text.  ``[experiment]`` holds the grid (epsilon
list, solver list, seed, bound toggle); ``[instance]`` or ``[instance.*]``
sections declare instances inline in the problems module's serialization
format, or point at a file with ``file = path``; ``[solver.*]`` sections
override solver parameters.  Runs are deterministic for a fixed config and
seed; wall-clock fields come from an injectable clock so tests can pin
them.
"""

import argparse
import ast
import configparser
import dataclasses
import functools
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from saddlesplit.accounting import GOOD_STATUSES, OracleLedger
from saddlesplit.baselines import (
    ExtragradientParams, LocalGdaParams, extragradient_run, local_gda_run,
)
from saddlesplit.decoupled import (
    DecoupledParams, decoupled_saddle_run, decoupled_vi_run,
)
from saddlesplit.evaluation import complexity_bounds
# Unused here; the benchmark tracer patches `cli.restricted_gap` by name.
from saddlesplit.evaluation import restricted_gap  # noqa: F401
from saddlesplit.hard_instances import make_hard_saddle
from saddlesplit.problems import (
    VipProblem, _read_key, check_keys, instance_from_section, load_instance,
    random_polymatrix, save_instance,
)

# Each solver's parameter dataclass; its fields (but `epsilon`, which the
# grid sets) are the keys a ``[solver.<name>]`` section may hold.
SOLVER_PARAMS = {"decoupled": DecoupledParams,
                 "extragradient": ExtragradientParams,
                 "local_gda": LocalGdaParams}
SOLVERS = tuple(SOLVER_PARAMS)
EXPERIMENT_KEYS = ("epsilons", "solvers", "seed", "check_bounds", "out", "name")
# Read by ``kind = random_polymatrix``, as well as ``kind`` and ``name``.
RANDOM_POLYMATRIX_KEYS = ("dims", "coupling", "diag")

CSV_HEAD = ("instance_id", "solver", "epsilon", "rounds")
CSV_TAIL = ("weighted_cost", "gap", "gap_exact", "bound_comm",
            "bound_oracle", "compliant", "wall_ms")


class ConfigError(Exception):
    """Raised for malformed experiment configuration."""


@dataclass
class ExperimentConfig:
    instances: list                 # (instance_id, problem) pairs
    solvers: list
    epsilons: list
    seed: int = 0
    check_bounds: bool = False
    out_dir: str = "results"
    solver_params: dict = field(default_factory=dict)
    name: str = "experiment"


@dataclass
class ResultRow:
    instance_id: str
    solver: str
    epsilon: float
    rounds: int
    queries: dict
    weighted_cost: float
    gap: float              # None when unavailable
    gap_exact: bool
    bound_comm: float       # None when not applicable
    bound_oracle: float
    compliant: str          # "true" / "false" / ""
    wall_ms: int
    status: str = ""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _is_real(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_positive_real(v):
    return _is_real(v) and math.isfinite(v) and v > 0


def _is_positive_int(v):
    return isinstance(v, int) and not isinstance(v, bool) and v > 0


# What each ``[solver.<name>]`` value must be; ``d_hat`` is checked as it
# is read (`_parse_d_hat`).
SOLVER_VALUE_RULES = {
    "max_rounds": (_is_positive_int, "a positive integer"),
    "steps_per_round": (_is_positive_int, "a positive integer"),
    "eta_x": (_is_positive_real, "a positive finite number"),
    "eta_y": (_is_positive_real, "a positive finite number"),
    "lam": (_is_positive_real, "a positive finite number"),
}


def _literal(sec, key):
    """`_read_key` (`_parse_d_hat` for ``d_hat``), its error a
    `ConfigError` naming the section."""
    try:
        return _parse_d_hat(sec[key]) if key == "d_hat" else _read_key(sec, key)
    except ValueError as exc:
        raise ConfigError(f"{exc} in [{sec.name}]") from None


def _read_ini(path):
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser()
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}")
    return cp


def _check_keys(sec, keys):
    try:
        check_keys(sec, keys, f"in [{sec.name}]")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _build_instance(sec, iid, base, rng):
    """The instance an ``[instance...]`` section declares.

    ``file =`` paths resolve against `base` (the config's directory);
    ``kind = random_polymatrix`` draws from the generator `rng()` returns;
    anything else is inline.  A key the section's kind does not read, or a
    value its builder rejects, is a `ConfigError`.
    """
    try:
        if "file" in sec:
            _check_keys(sec, ("file", "kind", "name"))
            return load_instance(os.path.join(base, sec["file"]))
        if sec.get("kind") == "random_polymatrix":
            _check_keys(sec, RANDOM_POLYMATRIX_KEYS + ("kind", "name"))
            kwargs = {key: _read_key(sec, key)
                      for key in RANDOM_POLYMATRIX_KEYS if key in sec}
            dims = tuple(kwargs.pop("dims"))
            return random_polymatrix(len(dims), dims, rng(), name=iid,
                                     **kwargs)
        return instance_from_section(sec)
    except (KeyError, ValueError, TypeError, OSError,
            configparser.Error) as exc:
        raise ConfigError(f"cannot build instance [{sec.name}]: {exc}")


def _config_instances(cp, path, seed):
    """``(id, problem)`` for each ``[instance]``/``[instance.<id>]`` section.

    Sections are built in file order from one rng seeded with `seed`, so
    `run` and `bounds` draw the same random instances from one config.  The
    rng is made at the first random section, so a config without one never
    imports ``numpy.random``.  The ids pass `check_instance_ids` before
    any instance is built.
    """
    rng = functools.cache(lambda: np.random.default_rng(seed))
    base = os.path.dirname(os.path.abspath(path))
    sections = [cp[name] for name in cp.sections()
                if name == "instance" or name.startswith("instance.")]
    ids = [sec.name.split(".", 1)[1] if "." in sec.name
           else sec.get("name", "instance") for sec in sections]
    try:
        check_instance_ids(ids)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    instances = [(iid, _build_instance(sec, iid, base, rng))
                 for iid, sec in zip(ids, sections)]
    if not instances:
        raise ConfigError("config declares no [instance] sections")
    return instances


def check_instance_ids(ids):
    """Raise ValueError unless every id can name its own CSV rows and plot.

    An id may not hold a comma or a line break, which would break the CSV
    row it names, and no two of the distinct instances `ids` lists may
    share the plot file `svg_stem` names.
    """
    id_of_stem = {}
    for iid in ids:
        if any(c in iid for c in ",\r\n"):
            raise ValueError(f"instance id {iid!r} may not contain a comma "
                             "or a line break")
        stem = svg_stem(iid)
        if stem in id_of_stem:
            raise ValueError(f"instance ids {id_of_stem[stem]!r} and {iid!r} "
                             f"would both write {stem}.svg")
        id_of_stem[stem] = iid


def _read_seed(cp, seed=None):
    """`seed`, else ``[experiment] seed``, else 0, as an integer; the
    file's seed is checked either way."""
    try:
        own = int(cp.get("experiment", "seed", fallback="0"))
        return own if seed is None else int(seed)
    except ValueError as exc:
        raise ConfigError(f"seed must be an integer: {exc}") from None


def parse_config(path, seed=None):
    """Parse an experiment file; `seed` overrides the config's own seed."""
    cp = _read_ini(path)
    if "experiment" not in cp:
        raise ConfigError("missing [experiment] section")
    exp = cp["experiment"]
    _check_keys(exp, EXPERIMENT_KEYS)
    epsilons = _literal(exp, "epsilons") if "epsilons" in exp else [0.1]
    if not isinstance(epsilons, (list, tuple)) or not epsilons:
        raise ConfigError("epsilons must be a nonempty list")
    if not all(_is_real(e) for e in epsilons):
        raise ConfigError(f"epsilon grid entries must be numbers: {epsilons!r}")
    if not all(math.isfinite(e) and e > 0 for e in epsilons):
        raise ConfigError(
            f"epsilon grid entries must be positive and finite: {epsilons!r}")
    solvers = [s.strip() for s in exp.get("solvers", "decoupled").split(",")
               if s.strip()]
    for s in solvers:
        if s not in SOLVERS:
            raise ConfigError(
                f"unknown solver {s!r}; available: {', '.join(SOLVERS)}")
    # A repeat would run its cells twice and write their rows twice.
    for kind, grid in (("solver", solvers), ("epsilon", epsilons)):
        for i, v in enumerate(grid):
            if v in grid[:i]:
                raise ConfigError(f"{kind} {v!r} is repeated")
    seed = _read_seed(cp, seed)
    try:
        check_bounds = exp.getboolean("check_bounds", fallback=False)
    except ValueError as exc:
        raise ConfigError(f"check_bounds must be a boolean: {exc}") from None
    out_dir = exp.get("out", "results")
    name = exp.get("name", "experiment")

    instances = _config_instances(cp, path, seed)
    return ExperimentConfig(
        instances=instances, solvers=solvers, epsilons=list(epsilons),
        seed=seed, check_bounds=check_bounds, out_dir=out_dir,
        solver_params=_solver_params(cp, instances), name=name)


def _solver_params(cp, instances):
    """``{solver: {key: value}}`` from the ``[solver.<name>]`` sections.

    Each value must meet its `SOLVER_VALUE_RULES` entry.  A
    ``[solver.decoupled] d_hat`` pair gives one distance estimate per
    block, so every one of `instances` must have two blocks.
    """
    solver_params = {}
    for section in cp.sections():
        if not section.startswith("solver."):
            continue
        sname = section.split(".", 1)[1]
        if sname not in SOLVERS:
            raise ConfigError(f"parameters for unknown solver {sname!r}")
        _check_keys(cp[section], [f.name for f in dataclasses.fields(
            SOLVER_PARAMS[sname]) if f.name != "epsilon"])
        params = solver_params[sname] = {k: _literal(cp[section], k)
                                         for k in cp[section]}
        for key, value in params.items():
            valid, what = SOLVER_VALUE_RULES.get(key, (None, None))
            if valid is not None and not valid(value):
                raise ConfigError(f"{key} must be {what}, got {value!r} "
                                  f"in [{section}]")
    d_hat = solver_params.get("decoupled", {}).get("d_hat")
    for iid, problem in instances:
        if d_hat is not None and len(problem.agents) != len(d_hat):
            raise ConfigError(
                f"[solver.decoupled] d_hat has {len(d_hat)} entries but "
                f"instance {iid!r} has {len(problem.agents)} blocks")
    return solver_params


# ---------------------------------------------------------------------------
# running the grid
# ---------------------------------------------------------------------------

def _dispatch(problem, solver, eps, params, ledger):
    is_vi = isinstance(problem, VipProblem)
    if is_vi and solver != "decoupled":
        raise ValueError(f"solver {solver!r} handles saddle problems only")
    p = SOLVER_PARAMS[solver](epsilon=eps, **params)
    if solver == "decoupled":
        run = decoupled_vi_run if is_vi else decoupled_saddle_run
    else:
        run = extragradient_run if solver == "extragradient" else local_gda_run
    return run(problem, p, ledger=ledger)


def _bounds_for(problem, solver, eps, params):
    """Communication/oracle bounds that apply to this cell, or Nones."""
    if solver == "local_gda":
        return None, None
    report = complexity_bounds(problem, eps, d_hat=params.get("d_hat"))
    if isinstance(problem, VipProblem):
        if solver == "decoupled":
            return report.dmvip_comm, None
        return None, None
    if solver == "decoupled":
        return report.dmsp_comm, report.dmsp_oracle
    return report.eg_comm, report.eg_oracle


def run_cell(instance_id, problem, solver, eps, params, check_bounds,
             clock=time.perf_counter):
    ledger = OracleLedger(problem.agents, costs=problem.costs)
    t0 = clock()
    status, gap, invariant_broken = "", None, False
    try:
        result = _dispatch(problem, solver, eps, params, ledger)
        status, gap = result.status, result.gap
    except Exception as exc:                      # recorded, run continues
        status = f"error: {exc}"
        invariant_broken = isinstance(exc, AssertionError)
    wall_ms = int(round((clock() - t0) * 1000.0))

    bound_comm = bound_oracle = None
    compliant = ""
    if check_bounds:
        bound_comm, bound_oracle = _bounds_for(problem, solver, eps, params)
        # A run that stops without the target accuracy violates the bound
        # just as surely as one that overruns the counts, and a solver
        # invariant that broke (AssertionError) fails it outright; other
        # errored runs (incomplete ledgers) stay unassessed.
        if invariant_broken:
            compliant = "false"
        elif bound_comm is not None and not status.startswith("error"):
            ok = status in GOOD_STATUSES and ledger.round <= bound_comm + 1e-9
            if bound_oracle is not None:
                ok = ok and ledger.weighted_cost() <= bound_oracle + 1e-9
            compliant = "true" if ok else "false"
    return ResultRow(
        instance_id=instance_id, solver=solver, epsilon=float(eps),
        rounds=ledger.round, queries=ledger.queries(),
        weighted_cost=float(ledger.weighted_cost()),
        gap=None if gap is None else float(gap.value),
        gap_exact=bool(gap.exact) if gap is not None else False,
        bound_comm=bound_comm, bound_oracle=bound_oracle,
        compliant=compliant, wall_ms=wall_ms, status=status)


def run_experiment(config, clock=time.perf_counter):
    """Execute the full grid; rows come back sorted by (instance, solver, eps)."""
    rows = [run_cell(iid, prob, solver, eps,
                     config.solver_params.get(solver, {}),
                     config.check_bounds, clock)
            for iid, prob in config.instances
            for solver in config.solvers
            for eps in config.epsilons]
    rows.sort(key=lambda r: (r.instance_id, r.solver, r.epsilon))
    return rows


# ---------------------------------------------------------------------------
# output artifacts
# ---------------------------------------------------------------------------

def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))       # NumPy 2 scalars repr as np.float64(...)
    return str(v)


def csv_header(rows):
    agents = []
    for row in rows:
        for a in row.queries:
            if a not in agents:
                agents.append(a)
    return list(CSV_HEAD) + [f"queries_{a}" for a in agents] + list(CSV_TAIL)


def rows_to_csv(rows):
    header = csv_header(rows)
    agent_cols = [h[len("queries_"):] for h in header
                  if h.startswith("queries_")]
    lines = [",".join(header)]
    for r in rows:
        rec = [r.instance_id, r.solver, _fmt(r.epsilon), str(r.rounds)]
        rec += [_fmt(r.queries.get(a)) for a in agent_cols]
        rec += [_fmt(r.weighted_cost), _fmt(r.gap),
                "true" if r.gap_exact else "false",
                _fmt(r.bound_comm), _fmt(r.bound_oracle), r.compliant,
                str(r.wall_ms)]
        lines.append(",".join(rec))
    return "\n".join(lines) + "\n"


def read_results(path):
    """Parse a results.csv back into a list of field dictionaries."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: no header line")
    header = lines[0].split(",")
    rows = []
    for number, ln in enumerate(lines[1:], start=2):
        fields = ln.split(",")
        if len(fields) != len(header):
            raise ValueError(f"{path}: row {number} has {len(fields)} fields, "
                             f"the header {len(header)}")
        rows.append(dict(zip(header, fields)))
    return rows


_PALETTE = ("#1b6ca8", "#c84b31", "#3a7d44", "#8d5fd3", "#c49b0b")


def _svg_plot(instance_id, rows):
    """Hand-written log-log polyline plot: rounds against 1/epsilon."""
    width, height, margin = 640, 440, 60
    pts_by_solver = {}
    for r in rows:
        if r.rounds > 0:
            pts_by_solver.setdefault(r.solver, []).append(
                (1.0 / r.epsilon, max(r.rounds, 1)))
    xs = [x for pts in pts_by_solver.values() for x, _ in pts]
    ys = [y for pts in pts_by_solver.values() for _, y in pts]
    if not xs:
        xs, ys = [1.0, 10.0], [1.0, 10.0]
    lx0, lx1 = math.floor(math.log10(min(xs))), math.ceil(math.log10(max(xs)))
    ly0, ly1 = math.floor(math.log10(min(ys))), math.ceil(math.log10(max(ys)))
    lx1, ly1 = max(lx1, lx0 + 1), max(ly1, ly0 + 1)

    def sx(v):
        return margin + (math.log10(v) - lx0) / (lx1 - lx0) * (width - 2 * margin)

    def sy(v):
        return height - margin - (math.log10(v) - ly0) / (ly1 - ly0) * \
            (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 15}" text-anchor="middle" '
        f'font-size="13">1/epsilon (log)</text>',
        f'<text x="18" y="{height // 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 18 {height // 2})">rounds (log)</text>',
        f'<text x="{width // 2}" y="25" text-anchor="middle" '
        f'font-size="14">{instance_id}</text>',
    ]
    for d in range(lx0, lx1 + 1):
        x = sx(10.0 ** d)
        parts.append(f'<line x1="{x:.2f}" y1="{height - margin}" '
                     f'x2="{x:.2f}" y2="{height - margin + 6}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{height - margin + 20}" '
                     f'text-anchor="middle" font-size="11">1e{d}</text>')
    for d in range(ly0, ly1 + 1):
        y = sy(10.0 ** d)
        parts.append(f'<line x1="{margin - 6}" y1="{y:.2f}" x2="{margin}" '
                     f'y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{margin - 10}" y="{y + 4:.2f}" '
                     f'text-anchor="end" font-size="11">1e{d}</text>')
    for idx, (solver, pts) in enumerate(sorted(pts_by_solver.items())):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = sorted(pts)
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" '
                         f'fill="{color}"/>')
        ly = 40 + 16 * idx
        parts.append(f'<line x1="{width - margin - 110}" y1="{ly}" '
                     f'x2="{width - margin - 80}" y2="{ly}" stroke="{color}" '
                     f'stroke-width="2"/>')
        parts.append(f'<text x="{width - margin - 74}" y="{ly + 4}" '
                     f'font-size="12">{solver}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def svg_stem(instance_id):
    """File stem of `instance_id`'s plot: characters other than letters,
    digits, ``-`` and ``_`` become ``_``."""
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in instance_id)


def emit_outputs(rows, directory):
    """Write results.csv and one SVG per instance; returns the paths.

    Raises ValueError, before any file is written, when the rows' instance
    ids fail `check_instance_ids`.
    """
    by_instance = {}
    for r in rows:
        by_instance.setdefault(r.instance_id, []).append(r)
    check_instance_ids(by_instance)
    os.makedirs(directory, exist_ok=True)
    paths = []
    csv_path = os.path.join(directory, "results.csv")
    with open(csv_path, "w") as fh:
        fh.write(rows_to_csv(rows))
    paths.append(csv_path)
    for iid in sorted(by_instance):
        svg_path = os.path.join(directory, f"{svg_stem(iid)}.svg")
        with open(svg_path, "w") as fh:
            fh.write(_svg_plot(iid, by_instance[iid]))
        paths.append(svg_path)
    return paths


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_run(args):
    try:
        config = parse_config(args.config, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.check_bounds:
        config.check_bounds = True
    out_dir = args.out if args.out is not None else config.out_dir
    rows = run_experiment(config)
    paths = emit_outputs(rows, out_dir)
    for p in paths:
        print(f"wrote {p}")
    bad = [r for r in rows if r.compliant == "false"]
    for r in bad:
        print(f"bound violation: {r.instance_id}/{r.solver} at "
              f"epsilon={r.epsilon}", file=sys.stderr)
    return 1 if bad else 0


def _cmd_hard_instance(args):
    try:
        problem = make_hard_saddle(args.kind, L=args.L, D=args.D, k=args.k)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    save_instance(problem, args.out)
    print(f"wrote {args.out} (kind={args.kind}, L={args.L}, D={args.D}, "
          f"k={args.k})")
    return 0


def _cmd_bounds(args):
    try:
        cp = _read_ini(args.config)
        if "experiment" in cp:
            _check_keys(cp["experiment"], EXPERIMENT_KEYS)
        # The instances `run` would build: same file resolution, same seed.
        instances = _config_instances(cp, args.config, _read_seed(cp))
        _solver_params(cp, instances)    # checked as `run` checks them
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        d_hat = _parse_d_hat(args.d_hat)
        # Every report before any output: a bad argument prints nothing.
        reports = [(iid, complexity_bounds(problem, args.epsilon, d_hat=d_hat))
                   for iid, problem in instances]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for iid, report in reports:
        if len(reports) > 1:
            print(f"[{iid}]")
        for key, value in report.as_dict().items():
            print(f"{key} = {value}")
    return 0


def _parse_d_hat(text):
    """``--d-hat`` or a ``d_hat`` key as a pair of positive finite numbers,
    or None when empty; ValueError otherwise."""
    if not text:
        return None
    try:
        d_hat = tuple(ast.literal_eval(text))
    except (ValueError, SyntaxError, TypeError):
        d_hat = ()
    if len(d_hat) != 2 or not all(_is_positive_real(v) for v in d_hat):
        raise ValueError("d_hat must be a pair of positive finite numbers, "
                         f"got {text!r}")
    return d_hat


def build_parser():
    parser = argparse.ArgumentParser(
        prog="saddlesplit",
        description="benchmark runner for decoupled saddle/VI solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment grid")
    run_p.add_argument("--config", required=True, help="experiment INI file")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--check-bounds", action="store_true")
    run_p.set_defaults(func=_cmd_run)

    hard_p = sub.add_parser("hard-instance",
                            help="emit a worst-case chain construction")
    hard_p.add_argument("--kind", choices=("xy", "x", "y"), default="xy")
    hard_p.add_argument("--L", type=float, default=1.0)
    hard_p.add_argument("--D", type=float, default=1.0)
    hard_p.add_argument("--k", type=int, required=True)
    hard_p.add_argument("--out", required=True)
    hard_p.set_defaults(func=_cmd_hard_instance)

    bnd_p = sub.add_parser("bounds", help="print complexity bounds")
    bnd_p.add_argument("--config", required=True)
    bnd_p.add_argument("--epsilon", type=float, required=True)
    bnd_p.add_argument("--d-hat", default=None,
                       help="distance estimates, e.g. '(2.0, 2.0)'")
    bnd_p.set_defaults(func=_cmd_bounds)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
