"""Reference solvers: extragradient and local gradient descent-ascent.

Both treat the two agents symmetrically and exchange information once per
round.  Extragradient does one operator evaluation per agent per round (two
rounds per iteration) and returns the step-weighted ergodic average.  Local
GDA exchanges the latest iterates each round, then performs a fixed number
of gradient steps against the frozen remote point; it is the classic
communication-saving heuristic and diverges on strongly coupled instances,
which the runner reports rather than hides.
"""

import math
from dataclasses import dataclass

import numpy as np

from saddlesplit.accounting import OracleLedger, RunResult
from saddlesplit.evaluation import restricted_gap

_DIVERGENCE_NORM = 1e8


@dataclass
class ExtragradientParams:
    """Step and scaling choices for the extragradient baseline.

    With ``alpha_x = (L_x Dhat_x + L_xy Dhat_y) / Dhat_x`` (and symmetrically
    for ``y``) the assembled operator is 1-Lipschitz, so the default unit
    step is admissible.
    """
    epsilon: float
    d_hat: tuple = None
    eta: float = 1.0
    max_rounds: int = 100000
    gap_stride: int = 1


@dataclass
class LocalGdaParams:
    epsilon: float
    eta_x: float = None
    eta_y: float = None
    steps_per_round: int = 1
    max_rounds: int = 10000
    gap_stride: int = 1


def default_scaling(problem, d_hat=None):
    """Per-agent metric weights making the scaled operator 1-Lipschitz."""
    if d_hat is None:
        d_hat = (problem.D_x, problem.D_y)
    dx, dy = d_hat
    ax = (problem.L_x * dx + problem.L_xy * dy) / dx
    ay = (problem.L_y * dy + problem.L_xy * dx) / dy
    return max(ax, 1e-12), max(ay, 1e-12)


def extragradient_run(problem, params, ledger=None, domain=None):
    """Run extragradient on a saddle problem until the gap closes.

    Each iteration queries both oracles at the current anchor, takes a
    prox step, queries at the trial point, and re-steps from the anchor;
    candidates are the eta-weighted ergodic averages of the trial points,
    handed to the ledger after every round.
    """
    p = problem
    if ledger is None:
        ledger = OracleLedger(p.agents, costs=p.costs)
    ax, ay = default_scaling(p, params.d_hat)
    ox, oy = (ledger.bind(a, g)
              for a, g in zip(p.agents, (p.grad_x, p.grad_y)))

    def query(z):
        return ox(z), p.vy_from_raw(oy(z))

    def prox_from(v, V, eta):
        # blockwise: argmin <eta V_i, w> + (alpha_i / 2)|w - v_i|_i^2 + eta psi_i
        wx = p.psi_x.prox(p.metric_x,
                          v[0] - (eta / ax) * p.metric_x.apply_inv(V[0]),
                          eta / ax)
        wy = p.psi_y.prox(p.metric_y,
                          v[1] - (eta / ay) * p.metric_y.apply_inv(V[1]),
                          eta / ay)
        return (wx, wy)

    v = p.z0
    weight = 0.0
    acc = (np.zeros(p.nx), np.zeros(p.ny))
    candidate = p.z0
    gap = None
    status = "budget_exhausted"
    while ledger.round < params.max_rounds:
        Vv = query(v)
        ledger.end_round()
        ledger.keep(candidate)               # first half-iteration: retained
        z = prox_from(v, Vv, params.eta)
        Vz = query(z)
        ledger.end_round()
        v = prox_from(v, Vz, params.eta)
        weight += params.eta
        acc = (acc[0] + params.eta * z[0], acc[1] + params.eta * z[1])
        candidate = (acc[0] / weight, acc[1] / weight)
        ledger.keep(candidate)
        it = ledger.round // 2
        if it % params.gap_stride == 0:
            gap = restricted_gap(p, candidate, domain)
            if gap.value <= params.epsilon:
                status = "converged"
                break
        if not (np.isfinite(v[0]).all() and np.isfinite(v[1]).all()):
            status = "diverged"
            break
    if status == "budget_exhausted":
        gap = restricted_gap(p, candidate, domain)
        if gap.value <= params.epsilon:
            status = "converged"
    return RunResult(status=status, candidate=candidate, gap=gap,
                     ledger=ledger,
                     info={"alpha": (ax, ay), "eta": params.eta})


def local_gda_run(problem, params, ledger=None, domain=None):
    """Local GDA with one exchange per round and frozen remote iterates.

    Per round each agent receives the other's last-round iterate, then takes
    ``steps_per_round`` gradient steps on its own variable (descent in x,
    ascent in y).  Divergence (iterate norm above 1e8) ends the run with a
    "diverged" status.  Each round's candidate goes to the ledger.
    """
    p = problem
    if ledger is None:
        ledger = OracleLedger(p.agents, costs=p.costs)
    Lx_tot = p.L_x + p.L_xy
    Ly_tot = p.L_y + p.L_xy
    eta_x = params.eta_x if params.eta_x is not None else 1.0 / (2.0 * max(Lx_tot, 1e-12))
    eta_y = params.eta_y if params.eta_y is not None else 1.0 / (2.0 * max(Ly_tot, 1e-12))
    ox, oy = (ledger.bind(a, g)
              for a, g in zip(p.agents, (p.grad_x, p.grad_y)))

    x, y = p.z0
    candidate = p.z0
    gap = None
    status = "budget_exhausted"
    while ledger.round < params.max_rounds:
        # x and y are rebound, never written in place, so no copies.
        x_frozen, y_frozen = x, y
        for _ in range(params.steps_per_round):
            gx = ox((x, y_frozen))
            x = x - eta_x * p.metric_x.apply_inv(gx)
            x = p.psi_x.prox(p.metric_x, x, eta_x)
            gy_raw = oy((x_frozen, y))
            y = y + eta_y * p.metric_y.apply_inv(p.ascent_y_from_raw(gy_raw))
            y = p.psi_y.prox(p.metric_y, y, eta_y)
        ledger.end_round()
        candidate = (x, y)
        ledger.keep(candidate)
        # Each norm is tested on its own: max(nx, nan) is nx.
        nx, ny = math.sqrt(x @ x), math.sqrt(y @ y)
        if not (math.isfinite(nx) and math.isfinite(ny)) \
                or max(nx, ny) > _DIVERGENCE_NORM:
            status = "diverged"
            break
        if ledger.round % params.gap_stride == 0:
            gap = restricted_gap(p, candidate, domain)
            if gap.value <= params.epsilon:
                status = "converged"
                break
    if status == "budget_exhausted":
        gap = restricted_gap(p, candidate, domain)
        if gap.value <= params.epsilon:
            status = "converged"
    return RunResult(status=status, candidate=candidate, gap=gap,
                     ledger=ledger,
                     info={"eta": (eta_x, eta_y),
                           "steps_per_round": params.steps_per_round})
