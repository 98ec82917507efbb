"""Reference solvers: extragradient and local gradient descent-ascent.

Both treat the agents symmetrically and exchange information once per
round, and read a saddle problem or block VI alike, through its blocks
(``psis``, ``metrics``, ``z0``, ``L``) and its `oracles`, the blocks of
``V``.  Extragradient does one operator evaluation per agent per round
(two rounds per iteration) and returns the step-weighted ergodic
average.  Local GDA exchanges the latest iterates each round, then
performs a fixed number of operator steps against the frozen remote
blocks; it is the classic communication-saving heuristic and diverges on
strongly coupled instances, which the runner reports rather than hides.

Both read epsilon only in their stop test, so one `Trajectory` can serve
several accuracies, each an `accounting.Row` with its own ledger; a
single-epsilon run is the one-row case.  Each row scores each candidate
with a `GapTest` of its own, as its run alone would.
"""

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter

import numpy as np

from saddlesplit.accounting import Trajectory
from saddlesplit.evaluation import default_scaling, restricted_gap
from saddlesplit.metrics import all_finite
from saddlesplit.problems import ZeroTerm

_DIVERGENCE_NORM = 1e8
# A joint |v|^2 below this keeps every block norm below the divergence
# norm, with room for the rounding of the sums.
_SAFE_SQUARED_NORM = 0.5 * _DIVERGENCE_NORM ** 2


@dataclass
class ExtragradientParams:
    """With the weights of `default_scaling` at `d_hat` the assembled
    operator is 1-Lipschitz, so the unit step the baseline takes is
    admissible."""
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


def _joint_space(p, steps):
    """Block views, joint response and prox step of a joint iterate.

    ``respond(responses)`` checks the blocks of ``V`` against their
    blocks and concatenates them.  ``step(v, G)`` takes that joint
    response and returns ``v - steps * (G / weights)``, with the weights
    and the per-block `steps` laid out block by block: element for
    element, and bit for bit, the block steps ``v_i - step_i P_i^{-1}
    V_i``.  With identity metrics the division is skipped, as ``G / 1.0``
    is ``G`` bit for bit.  A block's prox runs only when its term is not
    `ZeroTerm` (whose prox is the identity), in place on the fresh step
    output.
    """
    sizes = [b.size for b in p.z0]
    parts = [slice(end - n, end) for n, end in zip(sizes, accumulate(sizes))]
    weights = np.concatenate([m.weights for m in p.metrics])
    identity = all(m.identity for m in p.metrics)
    step_vector = np.concatenate([np.full(n, s) for n, s in zip(sizes, steps)])
    proxes = [term for term in zip(parts, p.psis, p.metrics, steps)
              if type(term[1]) is not ZeroTerm]
    shapes = [(n,) for n in sizes]
    get = itemgetter(*parts)
    blocks = get if len(parts) > 1 else lambda v: (get(v),)

    def respond(responses):
        if [g.shape if type(g) is np.ndarray else np.shape(g)
                for g in responses] != shapes:
            raise ValueError("oracle response does not match its block")
        return np.concatenate(responses, dtype=float)

    def step(v, G):
        w = v - step_vector * (G if identity else G / weights)
        for part, psi, block_metric, block_step in proxes:
            w[part] = psi.prox(block_metric, w[part], block_step)
        return w
    return blocks, respond, step


def extragradient_run(problem, params, ledger=None, rows=None):
    """Run extragradient until the gap closes.

    Each iteration queries every oracle at the current anchor, takes a
    prox step, queries at the trial point, and re-steps from the anchor;
    candidates are the ergodic averages of the trial points.  Each round
    closes on the ledger with the candidate it produced, and each
    iteration's candidate is scored against the instance's gap set.
    Anchor, trial point, sum and candidate are joint vectors; the
    blocks are views into them, and no array is written once a view of it
    has been handed out.  With `rows` (`accounting.Row`s) in place of
    ``params.epsilon`` and `ledger`, one trajectory serves every row and
    the call returns None.
    """
    p = problem
    alphas = default_scaling(p, params.d_hat)
    trajectory = Trajectory(p, params, ledger, rows, restricted_gap,
                             lambda ledger: {"alpha": alphas})
    oracles = p.oracles(trajectory)
    blocks, respond, step = _joint_space(p, [1.0 / a for a in alphas])

    def query(v):
        z = blocks(v)
        return respond([oracle(z) for oracle in oracles])

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

    Per round each agent receives the others' last-round blocks, then
    takes ``steps_per_round`` steps along its own block of ``V`` (descent
    in x, ascent in y on a saddle).  Block ``i`` steps by
    ``1 / (2 L_i)``, with ``L_i`` its row sum of the Lipschitz matrix,
    unless the params set it (``eta_x`` and ``eta_y``, two-block
    problems only).  Divergence (a block norm above 1e8) ends the run with
    a "diverged" status.  Each round closes on the ledger with its
    candidate, which is scored against the instance's gap set.  The
    iterate is one joint vector.  With `rows` (`accounting.Row`s) in place
    of ``params.epsilon`` and `ledger`, one trajectory serves every row
    and the call returns None.
    """
    p = problem
    etas = [1.0 / (2.0 * max(sum(row), 1e-12)) for row in p.L]
    given = (params.eta_x, params.eta_y)
    if given != (None, None) and len(etas) != 2:
        raise ValueError("eta_x and eta_y are the steps of two blocks, but "
                         f"the problem has {len(etas)}")
    etas[:2] = [default if eta is None else eta
                for eta, default in zip(given, etas)]
    trajectory = Trajectory(p, params, ledger, rows, restricted_gap,
                             lambda ledger: {
                                 "eta": tuple(etas),
                                 "steps_per_round": params.steps_per_round})
    oracles = p.oracles(trajectory)
    blocks, respond, step = _joint_space(p, etas)

    v = np.concatenate(p.z0)
    candidate = blocks(v)
    status = "budget_exhausted"
    while trajectory.running(candidate):
        # v is rebound, never written once its views are out, so no copies.
        frozen = current = candidate
        for _ in range(params.steps_per_round):
            # Block i queries the frozen blocks with its own current one.
            v = step(v, respond([
                oracle(frozen[:i] + (current[i],) + frozen[i + 1:])
                for i, oracle in enumerate(oracles)]))
            current = blocks(v)
        candidate = current
        trajectory.end_round(candidate)
        # NaN and infinity fall through to the block test, and fail it.
        if not v.dot(v) < _SAFE_SQUARED_NORM and not all(
                math.sqrt(b.dot(b)) <= _DIVERGENCE_NORM for b in candidate):
            status = "diverged"
            break
        trajectory.stop(candidate)
    return trajectory.close(status, candidate)
