"""Anchored proximal-point solver with communication-free inner solves.

Outer loop.  Each iteration approximately solves the metric-regularised
inclusion ``0 in V(z) + psi'(z) + lam P (z - v)`` to relative accuracy
(the scaled-prox criterion below), queries the operator at the new point,
forms the step weight

    a = 2 <V_psi(z), v - z> / ||V_psi(z)||_*^2   (always >= 1/lam),

updates the ergodic candidate with weight ``a`` and moves the anchor by a
projected dual step.  Two communication rounds per iteration: one to
exchange the block solutions, one to exchange operator values.

Inner solves.  The regularised subproblem splits across agents once the
remote blocks are frozen at the anchor: block ``i`` minimises its own
strongly-convex model to relative accuracy ``delta_i = alpha_i lam / 2``
(the relative-residual criterion).  Two inner engines are provided: a
staged accelerated gradient method with restarts for blocks whose operator
is a gradient, and an anchored extragradient loop for general monotone
blocks.  Neither touches a remote oracle, which is what keeps the round
count independent of the single-agent conditioning.  A solve or exchange
never pays twice for one point: each solve holds its last answer, and the
exchange reuses a block's own answer when its point has not moved.

Drivers.  One private function runs a block problem with coupling matrix
``L``: scalings, frozen blocks, outer loop and `RunResult`s.  A two-agent
saddle problem is the two-block case with ``V = (grad_x f, -grad_y f)``
and ``L = [[L_x, L_xy], [L_xy, L_y]]``; `decoupled_saddle_run` binds its
oracles and `decoupled_vi_run` those of a block VI.  The default round cap
is the `complexity_bounds` round bound (the one ``run --check-bounds``
applies) rounded up, plus two.  Blocks that no other block depends on are
solved once locally and frozen.  When every block is frozen, the gap is
the sum of the blocks' own gaps, and each local solve stops as soon as a
Frank-Wolfe bound certifies its share ``eps / K``.  Without frozen blocks,
one run serves several accuracies, as the baselines' trajectories do
(`accounting.Row`): the inner tolerances of active blocks depend on lam,
not on epsilon.
"""

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from saddlesplit.accounting import Trajectory
from saddlesplit.evaluation import (
    _gap_set, complexity_bounds, restricted_gap, theta_factor,
)
from saddlesplit.metrics import ProductMetric, all_finite
from saddlesplit.problems import QuadraticReg, RegularizedTerm

_ZERO_OPERATOR_TOL = 1e-14
_CHECK_SLACK = 1e-10
_FEG_QUERY_CAP = 1000000


# ---------------------------------------------------------------------------
# tasks and accuracy checks
# ---------------------------------------------------------------------------

@dataclass
class BlockTask:
    """One agent's regularised subproblem.

    ``operator`` maps a block vector to a covector (queries are counted by
    whoever constructed the closure).  ``psi`` is the full composite term of
    the subproblem, including any anchor regulariser.  ``strong`` is a known
    strong-monotonicity modulus of ``operator + psi'`` in the block metric
    (0 when unknown); ``lipschitz`` bounds the operator's variation.
    """
    operator: object
    psi: object
    anchor: np.ndarray
    metric: object
    lipschitz: float
    strong: float = 0.0
    delta: float = None


@dataclass
class BlockSolveResult:
    point: np.ndarray
    subgrad: np.ndarray
    queries: int
    residual: float
    operator_value: np.ndarray
    exit: str
    info: dict = field(default_factory=dict)


def relative_residual_check(task, point, subgrad, operator_value=None):
    """Relative stationarity: ``||V(w) + psi'(w)||_* <= delta ||w - v||``.

    Passing `operator_value` avoids spending an oracle query on the check.
    Returns ``(ok, residual, threshold)``.
    """
    if operator_value is None:
        operator_value = task.operator(point)
    r = task.metric.dual_norm(np.asarray(operator_value) + np.asarray(subgrad))
    thr = task.delta * task.metric.norm(point - task.anchor)
    return r <= thr + _CHECK_SLACK, r, thr


def scaled_prox_check(V_value, psi_prime, z_plus, anchor, lam, metric):
    """Joint relative criterion for the regularised inclusion.

    ``||V(z) + psi'(z) + lam P (z - v)||_* <= lam ||z - v||`` in the
    assembled metric.  All arguments are joint vectors; the operator value
    is always supplied by the caller (reuse the exchanged one).
    """
    step = np.asarray(z_plus) - anchor
    lhs = metric.dual_norm(np.asarray(V_value) + np.asarray(psi_prime)
                           + lam * metric.apply(step))
    rhs = lam * metric.norm(step)
    return lhs <= rhs + _CHECK_SLACK, lhs, rhs


def anchor_weight(v_psi, anchor, z_plus, metric, lam):
    """Step weight ``a = 2 <V_psi, v - z> / ||V_psi||_*^2``; always >= 1/lam."""
    dual = metric.dual_norm(v_psi)
    a = 2.0 * float(np.dot(v_psi, anchor - z_plus)) / dual ** 2
    if a < (1.0 / lam) * (1.0 - 1e-9) - 1e-12:
        raise AssertionError(
            f"step weight {a} fell below 1/lambda = {1.0 / lam}")
    return a


def vip_coupling(L, alphas, D):
    """Scaled coupling constant of a block VIP (cross terms only).

    ``Lc^2 = max_j (alpha_j D_j)^{-1} sum_{i != j} L_ij
    (sum_{l != i} L_il D_l) / alpha_i``.
    """
    K = len(alphas)
    worst = 0.0
    for j in range(K):
        s = 0.0
        for i in range(K):
            if i == j:
                continue
            inner = sum(L[i][l] * D[l] for l in range(K) if l != i)
            s += L[i][j] * inner / alphas[i]
        worst = max(worst, s / (alphas[j] * D[j]))
    return math.sqrt(worst)


# ---------------------------------------------------------------------------
# inner engine: staged accelerated gradient on the residual
# ---------------------------------------------------------------------------

@dataclass
class AgdSchedule:
    """Stage plan of `residual_agd`: stage ``k`` regularises with
    ``sigmas[k]`` and runs ``counts[k]`` iterations; the number of stages
    is ``len(sigmas)`` and the plan's iteration total ``sum(counts)``."""
    sigmas: list
    counts: list


def agd_schedule(L, xi):
    """Stage plan: regularisations ``sigma_k = 4^{k-3} (2 xi / 3)`` and
    per-stage iteration counts ``N_k = ceil(16 sqrt(L / sigma_k))``."""
    if xi <= 0:
        raise ValueError("target accuracy xi must be positive")
    if L <= 0:
        raise ValueError("schedule needs a positive Lipschitz constant")
    tau = 2 + max(0, math.ceil(math.log(3.0 * L / (2.0 * xi), 4.0)))
    sigmas = [4.0 ** (k - 3) * (2.0 * xi / 3.0) for k in range(1, tau + 1)]
    counts = [math.ceil(16.0 * math.sqrt(L / s)) for s in sigmas]
    return AgdSchedule(sigmas=sigmas, counts=counts)


def _counting_operator(task):
    """``task.operator`` with a query counter and a finiteness check.

    It holds the last queried point's bytes and its answer: a query with
    the same bytes returns that answer without calling ``task.operator``
    and is not counted, so a solve never pays twice for one point.  Bytes,
    not ``==``, decide, as ``==`` equates -0.0 and +0.0.
    """
    counter = [0]
    last = [None, None]

    def op(w):
        key = np.asarray(w).tobytes()
        if key == last[0]:
            return last[1]
        counter[0] += 1
        out = np.asarray(task.operator(w), dtype=float)
        if not all_finite(out):
            raise FloatingPointError("operator returned nonfinite values")
        last[:] = key, out
        return out
    return op, counter


def _solve_constant_operator(task, op, counter):
    """Constant-operator fast path: one probe fixes the whole subproblem."""
    c = op(task.anchor)
    w = task.psi.argmin_linear(task.metric, c, fallback=task.anchor)
    # Optimality of the linear-plus-composite problem gives -c in the
    # subdifferential exactly, so the residual vanishes.
    return BlockSolveResult(point=w, subgrad=-c, queries=counter[0],
                            residual=0.0, operator_value=c, exit="constant")


def residual_agd(task, xi, gap_ball=None):
    """Drive the subproblem residual below ``xi * ||v - w_opt||``.

    Runs stages of FISTA on increasingly weakly regularised models; a
    subgradient of ``psi`` at every prox output comes for free from the
    prox optimality condition, so the stationarity residual is measurable.

    Two certificates can end the run early, both implying the target:
    with a known strong-monotonicity modulus ``mu``, a residual below
    ``xi mu / (mu + xi) * ||w - v||`` suffices; with differentiable ``psi``
    (``psi.smooth``) the first query gives ``r0 = ||grad at v||`` and a
    residual below ``xi r0 / L_total`` suffices, where ``L_total =
    lipschitz + psi.modulus`` counts every quadratic in ``psi``.  Both are
    tested at probes, and the run returns the first probe that certifies.
    With differentiable ``psi`` every query at an extrapolated point is a
    probe for free (``psi'`` is its gradient there).  Probes at the prox
    outputs cost one counted query each and run on a doubling schedule;
    they are the only ones a nonsmooth ``psi`` has.  If nothing fires,
    the full stage plan runs to completion, which guarantees the target
    on its own.  A query at the point just queried (a stalled iterate, or
    a stage's second iteration with no momentum yet) returns the held
    answer: a solve never pays twice for one point.

    ``gap_ball = (c, r, target)`` adds a third exit, ``certificate-gap``,
    for a block whose operator is monotone and ignores every other block:
    the first probe ``w`` with ``<g, w - c> + r ||g||_* <= target``,
    ``g = V(w) + psi'(w)``.  By monotonicity and convexity that bounds the
    block's share of the gap over the ball ``||. - c|| <= r``.
    """
    metric, psi, v = task.metric, task.psi, task.anchor
    op, counter = _counting_operator(task)
    if task.lipschitz == 0.0:
        return _solve_constant_operator(task, op, counter)

    L_total = task.lipschitz + psi.modulus
    smooth_psi = psi.smooth

    g_anchor = op(v)
    start_sub = psi.subgradient(metric, v)
    r0 = metric.dual_norm(g_anchor + start_sub)
    if r0 <= _ZERO_OPERATOR_TOL:
        return BlockSolveResult(point=v.copy(), subgrad=start_sub,
                                queries=counter[0], residual=r0,
                                operator_value=g_anchor, exit="anchor")

    lip_floor = xi * r0 / L_total if smooth_psi else -1.0
    mu = task.strong

    def probe(w, g, sub, stage):
        """The solve's result at `w`; its exit names the certificate that
        holds there, or ``schedule`` if none does."""
        v_psi = g + sub
        r = metric.dual_norm(v_psi)
        if r <= lip_floor:
            tag = "certificate-lip"
        elif mu > 0 and r <= (xi * mu / (mu + xi)) * metric.norm(w - v):
            tag = "certificate-mu"
        elif gap_ball is not None and (
                float(np.dot(v_psi, w - gap_ball[0]))
                + gap_ball[1] * r <= gap_ball[2]):
            tag = "certificate-gap"
        else:
            tag = "schedule"
        return BlockSolveResult(
            point=w, subgrad=sub, queries=counter[0], residual=r,
            operator_value=g, exit=tag, info={"stage": stage})

    plan = agd_schedule(task.lipschitz, xi)
    w_stage = v.copy()
    w_tilde = v.copy()
    g_cached = g_anchor           # operator value at w_stage when available
    best = None
    for k, (sigma, count) in enumerate(zip(plan.sigmas, plan.counts)):
        gamma = 1.0 if k == 0 else 1.0 - plan.sigmas[k - 1] / sigma
        w_tilde = (1.0 - gamma) * w_tilde + gamma * w_stage
        Lk = task.lipschitz + sigma
        x = w_stage.copy()
        y = w_stage.copy()
        t = 1.0
        g_y = g_cached      # operator value at y == w_stage is already known
        next_check = 1
        for i in range(count):
            if g_y is None:
                g_y = op(y)
                if smooth_psi:
                    at_y = probe(y, g_y, psi.subgradient(metric, y), k + 1)
                    if at_y.exit != "schedule":
                        return at_y
            model_grad = g_y + sigma * metric.apply(y - w_tilde)
            x_next = psi.prox(metric, y - metric.apply_inv(model_grad) / Lk,
                              1.0 / Lk)
            if not all_finite(x_next):
                raise FloatingPointError("inner iterate became nonfinite")
            check = i + 1 == next_check or i == count - 1
            if check:
                # The prox optimality condition's subgradient at x_next.
                sub = -model_grad - Lk * metric.apply(x_next - y)
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = x_next + ((t - 1.0) / t_next) * (x_next - x)
            x, t = x_next, t_next
            g_y = None
            if check:
                next_check *= 2
                best = probe(x, op(x), sub, k + 1)
                if best.exit != "schedule":
                    return best
        w_stage = x
        g_cached = best.operator_value
    best.queries = counter[0]
    return best


# ---------------------------------------------------------------------------
# inner engine: anchored extragradient for general monotone blocks
# ---------------------------------------------------------------------------

def anchored_eg(task):
    """Anchored extragradient until the relative-residual criterion holds.

    Iterates pull toward the anchor with Halpern weights ``1/(t+2)``; the
    prox optimality condition at the trial point supplies the subgradient,
    and the second operator query of the iteration doubles as the residual
    measurement.  With a known strong modulus the stricter certified
    threshold is used so the result also meets the distance-based target.
    """
    metric, psi, v = task.metric, task.psi, task.anchor
    if task.delta is None:
        raise ValueError("the anchored loop needs a relative target delta")
    op, counter = _counting_operator(task)
    if task.lipschitz == 0.0:
        return _solve_constant_operator(task, op, counter)
    xi = 2.0 * task.delta / 3.0
    if task.strong > 0:
        factor = min(task.delta, xi * task.strong / (task.strong + xi))
    else:
        factor = task.delta

    eta = 1.0 / (2.0 * task.lipschitz)
    w = v.copy()
    t = 0
    while counter[0] < _FEG_QUERY_CAP:
        w_tilde = w + (v - w) / (t + 2.0)
        g_tilde = op(w_tilde)
        if t == 0:
            sub0 = psi.subgradient(metric, w_tilde)
            r_start = metric.dual_norm(g_tilde + sub0)
            if r_start <= _ZERO_OPERATOR_TOL:
                return BlockSolveResult(point=w_tilde, subgrad=sub0,
                                        queries=counter[0], residual=r_start,
                                        operator_value=g_tilde, exit="anchor")
        u = psi.prox(metric, w_tilde - eta * metric.apply_inv(g_tilde), eta)
        sub = metric.apply(w_tilde - u) / eta - g_tilde
        g_u = op(u)
        r = metric.dual_norm(g_u + sub)
        if r <= factor * metric.norm(u - v) + _CHECK_SLACK:
            return BlockSolveResult(point=u, subgrad=sub, queries=counter[0],
                                    residual=r, operator_value=g_u,
                                    exit="residual", info={"iterations": t + 1})
        w = psi.prox(metric, w_tilde - eta * metric.apply_inv(g_u), eta)
        if not all_finite(w):
            raise FloatingPointError("inner iterate became nonfinite")
        t += 1
    raise RuntimeError("anchored extragradient hit its query cap without "
                       "meeting the relative criterion")


# ---------------------------------------------------------------------------
# frozen-remote splitting step
# ---------------------------------------------------------------------------

def split_prox_step(operators, psis, metrics, alphas, anchors, lam,
                    lipschitz, inner_flags):
    """One decoupled solve of the regularised inclusion.

    Each block minimises its own model with the remote blocks frozen at the
    anchor: the composite is ``psi_i`` plus the quadratic anchor term with
    modulus ``alpha_i * lam``; the relative target is ``alpha_i * lam / 2``.
    Returns the block solutions, the de-regularised subgradients of the
    original ``psi_i``, and per-block diagnostics.  The relative-residual
    criterion is asserted on every block before returning.
    """
    K = len(operators)
    z_parts, sub_parts, diags = [], [], []
    for i in range(K):
        mu = alphas[i] * lam
        reg = RegularizedTerm(QuadraticReg(mu, anchors[i]), psis[i])
        task = BlockTask(operator=operators[i], psi=reg, anchor=anchors[i],
                         metric=metrics[i], lipschitz=lipschitz[i],
                         strong=mu, delta=mu / 2.0)
        if inner_flags[i]:
            res = residual_agd(task, xi=mu / 3.0)
        else:
            res = anchored_eg(task)
        ok, r, thr = relative_residual_check(
            task, res.point, res.subgrad, operator_value=res.operator_value)
        if not ok:
            raise AssertionError(
                f"block {i} inner solve missed its relative target: "
                f"residual {r} > {thr}")
        # Remove the anchor regulariser's gradient to recover a subgradient
        # of the original composite term.
        dereg = res.subgrad - reg.quad.subgradient(metrics[i], res.point)
        z_parts.append(res.point)
        sub_parts.append(dereg)
        diags.append(res)
    return z_parts, sub_parts, diags


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

@dataclass
class DecoupledParams:
    epsilon: float
    d_hat: tuple = None
    lam: float = 2.0
    max_rounds: int = None


def _decoupled_run(problem, bind, psis, metrics, L, d_hat, gradient,
                   params, comm_bound, ledger, rows, reference, info):
    """The decoupled solver on a block problem; both drivers call this.

    ``bind(sink)`` gives the oracles: block ``i``'s operator on the tuple
    of all blocks, its queries recorded through ``sink.bind``.  ``L`` is
    the block Lipschitz matrix.  Scalings ``alpha_i = sum_{j != i} L_ij
    Dhat_j / Dhat_i`` balance the cross-coupling.  Blocks with
    ``gradient[i]`` use the staged accelerated engine, the rest the
    anchored extragradient loop; those with ``alpha_i = 0`` are solved
    once by the former and frozen, so they must be gradients.
    ``comm_bound(eps)`` sets the default round cap and ``reference`` (a
    known solution or None) arms the telescoping check; ``d_hat`` has one
    entry per block, and `info` holds entries added to every ``info``.
    The anchor, the exchanged values and the ergodic sum are joint vectors
    over the active blocks (in the `ProductMetric` of their scalings), the
    blocks are views into them, and no array is written once a view of it
    has been handed out.  Candidates are full-block tuples; each round
    closes on the ledger with the candidate it produced, and each
    candidate is scored by the run's `GapTest`.

    With `rows` (`accounting.Row`s) in place of ``params.epsilon`` and
    `ledger`, the call returns None.  With no frozen block, epsilon
    reaches the run only in its stop test and its default cap, so one
    trajectory serves every row: each closes at its own cap, with the
    ``info`` of the run at its close.  A frozen block's local solve
    depends on epsilon, so then the rows run one by one, each a run of its
    own, whose exception is its outcome.
    """
    K = len(psis)
    if len(d_hat) != K:
        raise ValueError(f"d_hat has {len(d_hat)} entries but the problem "
                         f"has {K} blocks")
    alphas = [sum(L[i][j] * d_hat[j] for j in range(K) if j != i) / d_hat[i]
              for i in range(K)]
    active = [i for i in range(K) if alphas[i] > 0]
    frozen = [i for i in range(K) if i not in active]
    # Block i's Lipschitz constant in its own metric: ||g||_* <= ||g|| /
    # sqrt(min P_i) and ||w|| <= ||w||_P / sqrt(min P_i).
    lips = [float(L[i][i]) / float(metrics[i].weights.min()) for i in range(K)]
    for i in frozen:
        if any(L[j][i] != 0.0 for j in range(K) if j != i):
            raise ValueError(
                f"block {i} has no outgoing coupling but others depend on "
                "it; freezing it would change their subproblems")
        if not gradient[i]:
            raise ValueError(
                f"block {i} is uncoupled but not a gradient; no engine here "
                "certifies its local solve")
    if frozen and rows is not None:
        for row in rows:
            try:
                outcome = _decoupled_run(
                    problem, bind, psis, metrics, L, d_hat, gradient,
                    dataclasses.replace(params, epsilon=row.epsilon),
                    comm_bound, row.ledger, None, reference, info)
            except Exception as exc:         # the row's own run raises it
                outcome = exc
            row.close(outcome)
        return None

    def cap(eps):
        bound = comm_bound(eps)             # refuses a bad eps either way
        return (math.ceil(bound) + 2 if params.max_rounds is None
                else params.max_rounds)

    def run_info(ledger):
        if not active:
            return {"local": True, "alpha": tuple(alphas), **info}
        return {"alpha": tuple(alphas), "lam": lam, "coupling": coupling,
                "a_history": list(a_history),
                "iterations": ledger.round // 2, "frozen_blocks": frozen,
                "telescope_lhs": telescope_lhs, **info}

    trajectory = Trajectory(problem, params, ledger, rows, restricted_gap,
                             run_info, cap)
    oracles = bind(trajectory)

    def block_operator(i, base):
        """Block ``i``'s operator with the other blocks fixed at `base`."""
        def op(w):
            return oracles[i](base[:i] + (w,) + base[i + 1:])
        return op

    full = [b.copy() for b in problem.z0]
    eps = params.epsilon
    # With every block frozen, the gap is the sum of the blocks' own gaps
    # over their balls, so each block may stop once it certifies eps / K.
    gap_set = None if active else _gap_set(problem)
    for i in frozen:
        # Fully decoupled block: its operator ignores the others, so one
        # local solve pins it for the rest of the run.  The residual target
        # eps / (4 Dhat_i^2) bounds its gap contribution over the
        # restriction ball by eps / 2; while other blocks are active it is
        # the only target, as any gap left here would come out of theirs.
        task = BlockTask(operator=block_operator(i, tuple(full)), psi=psis[i],
                         anchor=full[i], metric=metrics[i],
                         lipschitz=lips[i])
        gap_ball = gap_set and (gap_set[i].center, gap_set[i].radius, eps / K)
        full[i] = residual_agd(task, xi=eps / (4.0 * d_hat[i] * d_hat[i]),
                               gap_ball=gap_ball).point

    if not active:
        candidate = tuple(full)
        for _ in range(2):
            trajectory.end_round(candidate)
        trajectory.stop(candidate, "local_solve")
        return trajectory.close("budget_exhausted", candidate)

    def full_point(parts):
        """All blocks: the frozen ones plus `parts` for the active ones."""
        for pos, i in enumerate(active):
            full[i] = parts[pos]
        return tuple(full)

    act_alphas = [alphas[i] for i in active]
    act_psis = [psis[i] for i in active]
    act_metrics = [metrics[i] for i in active]
    act_lips = [lips[i] for i in active]
    coupling = vip_coupling([[float(L[i][j]) for j in active] for i in active],
                            act_alphas, [d_hat[i] for i in active])
    lam = params.lam
    if lam < 2.0 * coupling - 1e-9:
        raise ValueError("lam is below twice the scaled coupling constant")

    # The outer loop; see the module docstring for the iteration.
    metric = ProductMetric(list(zip(act_metrics, act_alphas)))
    v = metric.join([full[i] for i in active])
    if reference is not None:
        ref = metric.join([reference[i] for i in active])
        budget0 = 0.5 * metric.norm(v - ref) ** 2
    acc = np.zeros_like(v)
    a_sum = telescope_lhs = 0.0
    a_history = []
    candidate = tuple(full)
    status = "budget_exhausted"
    while trajectory.running(candidate):
        v_parts = metric.split(v)
        anchor = full_point(v_parts)
        z_parts, sub_parts, diags = split_prox_step(
            [block_operator(i, anchor) for i in active], act_psis,
            act_metrics, act_alphas, v_parts, lam, act_lips,
            inner_flags=[gradient[i] for i in active])
        trajectory.end_round(candidate)
        point = full_point(z_parts)
        # Block i's solve took its operator value at `point` itself when
        # every other active block returned its anchor bit for bit, unless
        # it exited `constant` (that value was taken at the anchor).
        moved = [z.tobytes() != h.tobytes() for z, h in zip(z_parts, v_parts)]
        V = metric.join([
            res.operator_value
            if res.exit != "constant" and sum(moved) == moved[pos]
            else oracles[i](point)
            for pos, (i, res) in enumerate(zip(active, diags))])
        # The exchange round closes below, once its candidate exists.

        z = metric.join(z_parts)
        sub = metric.join(sub_parts)
        v_psi = V + sub

        if metric.dual_norm(v_psi) <= _ZERO_OPERATOR_TOL:
            candidate, status = point, "solution_found"
            trajectory.end_round(candidate)
            break

        ok, lhs, rhs = scaled_prox_check(V, sub, z, v, lam, metric)
        if not ok:
            raise AssertionError(
                f"scaled-prox criterion violated: {lhs} > {rhs}")

        a = anchor_weight(v_psi, v, z, metric, lam)
        a_history.append(a)
        a_sum += a
        acc = acc + a * z
        candidate = full_point(metric.split(acc / a_sum))

        v = v - a * metric.apply_inv(v_psi)
        for psi, m, h in zip(act_psis, act_metrics, metric.split(v)):
            h[:] = psi.project_domain(m, h)

        if reference is not None:
            telescope_lhs += a * float(np.dot(v_psi, z - ref))
            budget = budget0 - 0.5 * metric.norm(v - ref) ** 2
            if telescope_lhs > budget + 1e-8:
                raise AssertionError(
                    f"telescoped progress inequality violated: "
                    f"{telescope_lhs} > {budget}")

        trajectory.end_round(candidate)
        trajectory.stop(candidate)
    return trajectory.close(status, candidate)


def decoupled_saddle_run(problem, params, ledger=None, rows=None):
    """Decoupled solver for two-agent saddle problems.

    The two-block case of `_decoupled_run`: the scalings reduce to
    ``alpha_x = L_xy Dhat_y / Dhat_x`` (and symmetrically), which make the
    scaled coupling constant equal to one, so the default ``lam = 2`` meets
    the weak-coupling requirement with equality.  When the agents do not
    interact at all (``L_xy = 0``) the run is one local solve per agent and
    a single exchange.  The y block of ``V`` is ``-grad_y``; the ledger
    records the ``y`` agent's own responses, ``grad_y``.  The default
    round cap comes from ``dmsp_comm``, and ``info["theta"]`` is the
    diameter factor of the same report.  Gaps are over the instance's gap
    set.  With `rows` (`accounting.Row`s) in place of ``params.epsilon``
    and `ledger`, one run serves every row and the call returns None.
    """
    p = problem
    d_hat = params.d_hat if params.d_hat is not None else (p.D_x, p.D_y)

    def oracles(sink):
        ox, oy = (sink.bind(a, g)
                  for a, g in zip(p.agents, (p.grad_x, p.grad_y)))
        return [ox, lambda z: -oy(z)]
    return _decoupled_run(
        p, oracles, [p.psi_x, p.psi_y], [p.metric_x, p.metric_y],
        [[p.L_x, p.L_xy], [p.L_xy, p.L_y]], d_hat, [True, True], params,
        lambda eps: complexity_bounds(p, eps, d_hat=d_hat).dmsp_comm,
        ledger, rows, p.saddle,
        {"theta": theta_factor(p.D_x, p.D_y, d_hat[0], d_hat[1])})


def decoupled_vi_run(problem, params, ledger=None, rows=None):
    """Decoupled solver for block variational inequalities.

    See `_decoupled_run`; the default round cap comes from ``dmvip_comm``,
    ``2 + 2 sum_{i != j} L_ij D_i D_j / eps``.  Gaps are over the
    instance's gap set, balls of radius ``D[i]`` around ``z0`` in dom psi.
    With `rows` (`accounting.Row`s) in place of ``params.epsilon`` and
    `ledger`, one run serves every row and the call returns None.
    """
    p = problem
    return _decoupled_run(
        p, lambda sink: [sink.bind(a, op)
                         for a, op in zip(p.agents, p.operators)],
        p.psis, p.metrics, p.L,
        params.d_hat if params.d_hat is not None else list(p.D),
        p.block_is_gradient, params,
        lambda eps: complexity_bounds(p, eps).dmvip_comm, ledger, rows,
        p.solution, {})
