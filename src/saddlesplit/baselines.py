"""Reference solvers: extragradient and local gradient descent-ascent.

Both treat the two agents symmetrically and exchange information once per
round.  Extragradient does one operator evaluation per agent per round (two
rounds per iteration) and returns the step-weighted ergodic average.  Local
GDA exchanges the latest iterates each round, then performs a fixed number
of gradient steps against the frozen remote point; it is the classic
communication-saving heuristic and diverges on strongly coupled instances,
which the runner reports rather than hides.

Both read epsilon only in their stop test, so one `Trajectory` can serve
several accuracies, each an `accounting.Row` with its own ledger; a
single-epsilon run is the one-row case.  Each row scores each candidate
with a `GapTest` of its own, as its run alone would.
"""

import math
from dataclasses import dataclass

import numpy as np

from saddlesplit.accounting import Trajectory
from saddlesplit.evaluation import restricted_gap
from saddlesplit.metrics import all_finite
from saddlesplit.problems import ZeroTerm

_DIVERGENCE_NORM = 1e8
# A joint |v|^2 below this keeps both block norms below the divergence
# norm, with room for the rounding of either sum.
_SAFE_SQUARED_NORM = 0.5 * _DIVERGENCE_NORM ** 2


@dataclass
class ExtragradientParams:
    """Step and scaling choices for the extragradient baseline.

    With ``alpha_x = (L_x Dhat_x + L_xy Dhat_y) / Dhat_x`` (and symmetrically
    for ``y``) the assembled operator is 1-Lipschitz, so the unit step,
    which the baseline takes, is admissible.
    """
    epsilon: float
    d_hat: tuple = None
    max_rounds: int = 100000


@dataclass
class LocalGdaParams:
    epsilon: float
    eta_x: float = None
    eta_y: float = None
    steps_per_round: int = 1
    max_rounds: int = 10000


def default_scaling(problem, d_hat=None):
    """Per-agent metric weights making the scaled operator 1-Lipschitz:
    ``alpha_i = sum_j L_ij Dhat_j / Dhat_i``, at least 1e-12."""
    d_hat = problem.D if d_hat is None else d_hat
    return tuple(max(sum(l * d for l, d in zip(row, d_hat)) / own, 1e-12)
                 for row, own in zip(problem.L, d_hat))


def _joint_space(p, step_x, step_y):
    """Block views, joint response and prox step of a joint (x, y) iterate.

    ``respond(gx, gy)`` checks the oracle responses (the partial gradients
    of ``f``) against their blocks and concatenates them.  ``step(v, G)``
    takes that joint response and returns ``v - steps * (G / weights)``:
    the weights are ``concat(P_x, P_y)``, and the y steps are ``-step_y``,
    which turns ``grad_y`` into ``V_y = -grad_y``.  IEEE rounding is
    symmetric in sign, so this is the arithmetic, element for element
    and bit for bit, of the two block steps ``v_i - step_i P_i^{-1} V_i``.
    With identity metrics the division is skipped, as ``G / 1.0`` is ``G``
    bit for bit.
    A block's prox runs only when its term is not `ZeroTerm` (whose prox
    is the identity), in place on the fresh step output.
    """
    nx, ny = p.nx, p.ny
    weights = np.concatenate((p.metric_x.weights, p.metric_y.weights))
    identity = p.metric_x.identity and p.metric_y.identity
    steps = np.concatenate((np.full(nx, step_x), np.full(ny, -step_y)))
    proxes = [term for term in ((slice(None, nx), p.psi_x, p.metric_x, step_x),
                                (slice(nx, None), p.psi_y, p.metric_y, step_y))
              if type(term[1]) is not ZeroTerm]

    def blocks(v):
        return (v[:nx], v[nx:])

    def respond(gx, gy):
        if _shape(gx) != (nx,) or _shape(gy) != (ny,):
            raise ValueError("oracle response does not match its block")
        return np.concatenate((gx, gy), dtype=float)

    def step(v, G):
        w = v - steps * (G if identity else G / weights)
        for part, psi, block_metric, block_step in proxes:
            w[part] = psi.prox(block_metric, w[part], block_step)
        return w
    return blocks, respond, step


def _shape(a):
    return a.shape if type(a) is np.ndarray else np.shape(a)


def extragradient_run(problem, params, ledger=None, rows=None):
    """Run extragradient on a saddle problem until the gap closes.

    Each iteration queries both oracles at the current anchor, takes a
    prox step, queries at the trial point, and re-steps from the anchor;
    candidates are the ergodic averages of the trial points.  Each round
    closes on the ledger with the candidate it produced, and each
    iteration's candidate is scored against the instance's gap set.
    Anchor, trial point, sum and candidate are joint (x, y) vectors; the
    blocks are views into them, and no array is written once a view of it
    has been handed out.  With `rows` (`accounting.Row`s) in place of
    ``params.epsilon`` and `ledger`, one trajectory serves every row and
    the call returns None.
    """
    p = problem
    ax, ay = default_scaling(p, params.d_hat)
    trajectory = Trajectory(p, params, ledger, rows, restricted_gap,
                             lambda ledger: {"alpha": (ax, ay)})
    ox, oy = (trajectory.bind(a, g)
              for a, g in zip(p.agents, (p.grad_x, p.grad_y)))
    blocks, respond, step = _joint_space(p, 1.0 / ax, 1.0 / ay)

    def query(v):
        z = blocks(v)
        return respond(ox(z), oy(z))

    v = np.concatenate(p.z0)
    weight = 0.0
    acc = np.zeros(v.size)
    candidate = blocks(v)
    status = "budget_exhausted"
    while trajectory.running(candidate):
        Gv = query(v)
        trajectory.end_round(candidate)      # first half-iteration: retained
        # blockwise: argmin <V_i, w> + (alpha_i / 2)|w - v_i|_i^2 + psi_i
        z = step(v, Gv)
        Gz = query(z)
        v = step(v, Gz)
        weight += 1.0
        acc += z
        candidate = blocks(acc / weight)
        trajectory.end_round(candidate)      # second half: its new candidate
        trajectory.stop(candidate)
        if not all_finite(v):
            status = "diverged"
            break
    return trajectory.close(status, candidate)


def local_gda_run(problem, params, ledger=None, rows=None):
    """Local GDA with one exchange per round and frozen remote iterates.

    Per round each agent receives the other's last-round iterate, then takes
    ``steps_per_round`` gradient steps on its own variable (descent in x,
    ascent in y).  Divergence (iterate norm above 1e8) ends the run with a
    "diverged" status.  Each round closes on the ledger with its candidate,
    which is scored against the instance's gap set.  The
    iterate is one joint (x, y) vector: the y ascent step is the descent
    step on ``V_y = -grad_y f``, which gives the same bits.  With `rows`
    (`accounting.Row`s) in place of ``params.epsilon`` and `ledger`, one
    trajectory serves every row and the call returns None.
    """
    p = problem
    # A step 1 / (2 L_i), with L_i block i's row sum of the Lipschitz matrix.
    eta_x, eta_y = (1.0 / (2.0 * max(sum(row), 1e-12)) if eta is None else eta
                    for eta, row in zip((params.eta_x, params.eta_y), p.L))
    trajectory = Trajectory(p, params, ledger, rows, restricted_gap,
                             lambda ledger: {
                                 "eta": (eta_x, eta_y),
                                 "steps_per_round": params.steps_per_round})
    ox, oy = (trajectory.bind(a, g)
              for a, g in zip(p.agents, (p.grad_x, p.grad_y)))
    blocks, respond, step = _joint_space(p, eta_x, eta_y)

    v = np.concatenate(p.z0)
    x, y = candidate = blocks(v)
    status = "budget_exhausted"
    while trajectory.running(candidate):
        # v is rebound, never written once its views are out, so no copies.
        x_frozen, y_frozen = x, y
        for _ in range(params.steps_per_round):
            v = step(v, respond(ox((x, y_frozen)), oy((x_frozen, y))))
            x, y = blocks(v)
        candidate = (x, y)
        trajectory.end_round(candidate)
        # NaN and infinity fall through to the block test.
        if not v.dot(v) < _SAFE_SQUARED_NORM:
            # Each norm is tested on its own: max(nx, nan) is nx.
            nx, ny = math.sqrt(x.dot(x)), math.sqrt(y.dot(y))
            if not (math.isfinite(nx) and math.isfinite(ny)) \
                    or max(nx, ny) > _DIVERGENCE_NORM:
                status = "diverged"
                break
        trajectory.stop(candidate)
    return trajectory.close(status, candidate)
