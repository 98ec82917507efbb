"""Tests for the decoupled prox-point solver and its inner engines."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from saddlesplit.accounting import OracleLedger
from saddlesplit.decoupled import (
    BlockTask, DecoupledParams, agd_schedule, anchor_weight, anchored_eg,
    decoupled_saddle_run, decoupled_vi_run, relative_residual_check,
    residual_agd, scaled_prox_check, split_prox_step, vip_coupling,
)
from saddlesplit.hard_instances import make_hard_saddle
from saddlesplit.metrics import ProductMetric, ScaledMetric
from saddlesplit.problems import (
    BallIndicator, BoxIndicator, QuadraticReg, RegularizedTerm, VipProblem,
    ZeroTerm, make_bilinear, make_polymatrix, make_quadratic,
    make_strongly_convex_concave, random_polymatrix,
)

ID1 = ScaledMetric(1)
ID2 = ScaledMetric(2)


def test_agd_schedule_frozen():
    plan = agd_schedule(L=1.0, xi=0.5)
    assert len(plan.sigmas) == 3
    assert np.allclose(plan.sigmas, [1.0 / 48, 1.0 / 12, 1.0 / 3])
    assert plan.counts == [111, 56, 28]
    assert sum(plan.counts) == 195


def test_agd_schedule_small_ratio():
    # 3L/(2 xi) <= 1 keeps the minimum of two stages.
    plan = agd_schedule(L=1.0, xi=10.0)
    assert len(plan.sigmas) == 2
    with pytest.raises(ValueError):
        agd_schedule(1.0, 0.0)
    with pytest.raises(ValueError):
        agd_schedule(0.0, 1.0)


def test_residual_agd_first_step_frozen():
    # One-dimensional quadratic: the first prox step lands on 1/49 and the
    # smoothness certificate ends the run with two queries.
    task = BlockTask(operator=lambda w: np.asarray(w, float), psi=ZeroTerm(),
                     anchor=np.array([1.0]), metric=ID1, lipschitz=1.0)
    res = residual_agd(task, xi=0.5)
    assert res.exit == "certificate-lip"
    assert res.queries == 2
    assert np.allclose(res.point, [1.0 / 49])
    assert np.isclose(res.residual, 1.0 / 49)


def test_residual_agd_zero_at_anchor():
    task = BlockTask(operator=lambda w: np.asarray(w, float), psi=ZeroTerm(),
                     anchor=np.zeros(1), metric=ID1, lipschitz=1.0)
    res = residual_agd(task, xi=0.5)
    assert res.exit == "anchor"
    assert res.queries == 1
    assert res.residual == 0.0


def test_residual_agd_constant_operator():
    reg = RegularizedTerm(QuadraticReg(2.0, np.array([1.0])), ZeroTerm())
    task = BlockTask(operator=lambda w: np.array([3.0]), psi=reg,
                     anchor=np.array([1.0]), metric=ID1, lipschitz=0.0)
    res = residual_agd(task, xi=0.1)
    assert res.exit == "constant"
    assert res.queries == 1
    assert np.allclose(res.point, [-0.5])
    assert np.allclose(res.subgrad, [-3.0])
    assert res.residual == 0.0


def test_residual_agd_accuracy_and_budget():
    rng = np.random.default_rng(7)
    n = 8
    U = np.linalg.qr(rng.normal(size=(n, n)))[0]
    eigs = np.linspace(0.5, 2.0, n)
    Q = U @ np.diag(eigs) @ U.T
    target = rng.normal(size=n)
    anchor = target + rng.normal(size=n)
    for xi in (1.0, 0.1, 0.01):
        task = BlockTask(operator=lambda w: Q @ (w - target), psi=ZeroTerm(),
                         anchor=anchor.copy(), metric=ScaledMetric(n),
                         lipschitz=2.0, strong=0.5)
        res = residual_agd(task, xi=xi)
        dist = np.linalg.norm(anchor - target)
        assert res.residual <= xi * dist * (1 + 1e-9)
        assert res.queries <= 34 * math.sqrt(3 * 2.0 / (2 * xi))


def _full_stage_plan_task():
    """A ball psi is not differentiable and strong = 0 is unknown, so no
    certificate can fire: `residual_agd` runs its whole stage plan."""
    Q = np.array([4.0, 2.0, 1.0, 0.5])
    w_opt = np.array([0.1, -0.2, 0.3, 0.1])        # inside the ball
    v = np.array([0.4, 0.4, -0.4, 0.4])
    task = BlockTask(operator=lambda w: Q * (w - w_opt),
                     psi=BallIndicator(np.zeros(4), 1.0), anchor=v,
                     metric=ScaledMetric(4), lipschitz=4.0)
    return task, np.linalg.norm(v - w_opt)


@pytest.mark.parametrize("xi", [
    pytest.param(0.1, marks=pytest.mark.xfail(
        strict=True, reason="Defect E (ROADMAP item 5): the full stage "
                            "plan spends 444 queries against 263")),
    0.01])
def test_residual_agd_runs_the_full_stage_plan(xi):
    # The run ends with the last stage of the plan, which alone guarantees
    # the target, within acceptance 5's query budget 34 sqrt(3L / (2 xi)).
    task, dist = _full_stage_plan_task()
    res = residual_agd(task, xi=xi)
    plan = agd_schedule(4.0, xi)
    assert res.exit == "schedule"
    assert res.info["stage"] == len(plan.sigmas)
    assert res.residual <= xi * dist
    assert res.queries <= 34 * math.sqrt(3 * 4.0 / (2 * xi))


def _recording(task, queried):
    """`task` with an operator that appends each point it is called at."""
    def operator(w):
        queried.append(np.array(w, copy=True))
        return task.operator(w)
    return dataclasses.replace(task, operator=operator)


def _assert_pays_once(res, queried):
    """The solve paid for every point it passed to its operator, and no
    two consecutive points share bytes."""
    assert res.queries == len(queried)
    assert all(a.tobytes() != b.tobytes()
               for a, b in zip(queried, queried[1:]))


@pytest.mark.parametrize("xi", [0.1, 0.01])
def test_full_stage_plan_never_pays_twice_for_one_point(xi):
    # Once FISTA's iterate stops moving in floating point, and at the
    # second iteration of each stage, the solve asks for the point it has
    # just queried: 553 of 997 queries at xi = 0.1 and 2723 of 3169 at
    # xi = 0.01 repeated the previous point before the solve kept it.
    task, dist = _full_stage_plan_task()
    queried = []
    res = residual_agd(_recording(task, queried), xi=xi)
    _assert_pays_once(res, queried)
    assert res.queries == {0.1: 444, 0.01: 446}[xi]
    assert res.exit == "schedule" and res.residual <= xi * dist


def test_frozen_block_solves_never_pay_twice_for_one_point(monkeypatch):
    from saddlesplit import decoupled

    solves = []

    def spy(task, xi, gap_ball=None):
        queried = []
        res = residual_agd(_recording(task, queried), xi, gap_ball)
        solves.append((res, queried))
        return res

    monkeypatch.setattr(decoupled, "residual_agd", spy)
    res = decoupled_saddle_run(make_hard_saddle("x", 100.0, 1.0, 50),
                               DecoupledParams(epsilon=0.002))
    assert res.status == "local_solve" and len(solves) == 2
    for solve, queried in solves:
        _assert_pays_once(solve, queried)
    assert [solve.queries for solve, _ in solves] == [438, 1]


def test_anchored_eg_never_pays_twice_for_one_point():
    R = np.array([[0.0, 1.0], [-1.0, 0.0]])
    reg = RegularizedTerm(QuadraticReg(0.1, np.zeros(2)), ZeroTerm())
    task = BlockTask(operator=lambda w: R @ (w - np.array([1.0, 0.0])),
                     psi=reg, anchor=np.zeros(2), metric=ID2, lipschitz=1.0,
                     delta=0.05)
    queried = []
    res = anchored_eg(_recording(task, queried))
    assert res.exit == "residual"
    _assert_pays_once(res, queried)


def test_signed_zeros_are_two_points():
    # -0.0 == +0.0, yet an operator may tell them apart: the memo compares
    # bytes, so each sign is a point of its own and is paid for.
    from saddlesplit.decoupled import _counting_operator

    queried = []
    task = _recording(BlockTask(operator=lambda w: np.copysign(1.0, w),
                                psi=ZeroTerm(), anchor=np.zeros(1),
                                metric=ID1, lipschitz=1.0), queried)
    op, counter = _counting_operator(task)
    answers = [op(np.array([z]))[0] for z in (0.0, 0.0, -0.0, -0.0, 0.0)]
    assert answers == [1.0, 1.0, -1.0, -1.0, 1.0]
    assert counter[0] == len(queried) == 3


def test_exchange_never_pays_twice_for_one_point():
    # When the y block returns its anchor unchanged, the x agent's exchange
    # point is the point its own solve just queried: the run reuses that
    # answer instead of asking its ledger-bound oracle again.
    class ReplayLedger(OracleLedger):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.x_points = []

        def record(self, agent, point, response):
            super().record(agent, point, response)
            if agent == "x":
                self.x_points.append(b"".join(b.tobytes() for b in point))

    p = make_strongly_convex_concave(1.0, 1.0, 1.0, n=4)
    ledger = ReplayLedger(p.agents, costs=p.costs)
    res = decoupled_saddle_run(p, DecoupledParams(epsilon=0.2), ledger=ledger)
    assert res.status == "converged"
    assert len(ledger.x_points) == res.ledger.queries("x")
    assert all(a != b for a, b in zip(ledger.x_points, ledger.x_points[1:]))


_CERT_V = np.array([0.4, 0.4, -0.4, 0.4, -0.3])


def _check_first_certifying_query(psi, mu, curvature, xi):
    """Run `residual_agd` with differentiable `psi`, a quadratic whose
    Hessian is ``curvature * I``, and strong modulus `mu`.  Replay the
    certificates on each point the solve queried, with psi' its gradient:
    the solve returns the first that passes, and no query after it, and
    its residual meets ``xi ||v - w*||`` at the subproblem's minimiser."""
    Q = np.diag([4.0, 2.0, 1.0, 0.5, 0.01])
    w_opt = np.array([0.1, -0.2, 0.3, 0.1, 0.5])
    v = _CERT_V
    metric = ScaledMetric(5)
    queried = []

    def operator(w):
        queried.append(np.array(w, copy=True))
        return Q @ (w - w_opt)

    task = BlockTask(operator=operator, psi=psi, anchor=v.copy(),
                     metric=metric, lipschitz=4.0, strong=mu)
    res = residual_agd(task, xi=xi)

    def residual(w):
        return np.linalg.norm(Q @ (w - w_opt) + psi.subgradient(metric, w))

    lip_floor = xi * residual(v) / (4.0 + curvature)
    first = next(
        j for j, w in enumerate(queried)
        if residual(w) <= lip_floor
        or (mu > 0 and residual(w) <= xi * mu / (mu + xi)
            * np.linalg.norm(w - v)))
    assert res.exit in ("certificate-lip", "certificate-mu")
    assert res.queries == len(queried) == first + 1
    assert np.array_equal(res.point, queried[first])
    # Q (w - w_opt) + curvature w + psi'(0) = 0 at the minimiser.
    w_star = np.linalg.solve(Q + curvature * np.eye(5),
                             Q @ w_opt - psi.subgradient(metric, np.zeros(5)))
    assert res.residual <= xi * np.linalg.norm(v - w_star)


@pytest.mark.parametrize("mu, xi", [(0.0, 0.01), (0.0, 0.1), (0.05, 0.05 / 3),
                                    (0.2, 0.2 / 3)])
def test_residual_agd_returns_the_first_certifying_query(mu, xi):
    # With differentiable psi every queried point can certify.  Doubling
    # probes alone end these runs 2 to 27 queries later.
    psi = (RegularizedTerm(QuadraticReg(mu, _CERT_V), ZeroTerm()) if mu > 0
           else ZeroTerm())
    _check_first_certifying_query(psi, mu, mu, xi)


def test_residual_agd_lip_certificate_counts_every_quadratic_in_psi():
    # The smoothness constant of a composed psi counts its base's modulus
    # too.  Counted short (the anchor term's 0.2 alone), the certificate
    # fired after 4 queries at residual 0.171, above the target 0.0806.
    c = np.array([-0.3, 0.2, 0.1, -0.2, 0.4])
    psi = RegularizedTerm(QuadraticReg(0.2, _CERT_V), QuadraticReg(10.0, c))
    _check_first_certifying_query(psi, 0.2, 10.2, 0.2 / 3)


def test_relative_residual_check_frozen():
    task = BlockTask(operator=lambda w: np.array([0.3]), psi=ZeroTerm(),
                     anchor=np.zeros(1), metric=ID1, lipschitz=1.0,
                     delta=0.4)
    ok, r, thr = relative_residual_check(task, np.array([2.0]),
                                         np.array([0.1]))
    assert ok and np.isclose(r, 0.4) and np.isclose(thr, 0.8)

    task = dataclasses.replace(task, operator=lambda w: np.array([0.5]),
                               delta=0.05)
    ok, r, thr = relative_residual_check(task, np.array([2.0]),
                                         np.zeros(1))
    assert not ok and np.isclose(r, 0.5) and np.isclose(thr, 0.1)


def test_scaled_prox_check_frozen():
    metric = ProductMetric([(ID1, 1.0)])
    ok, lhs, rhs = scaled_prox_check(np.array([-2.0]), np.zeros(1),
                                     np.array([1.0]), np.zeros(1), 2.0,
                                     metric)
    assert ok and lhs == 0.0 and rhs == 2.0
    ok, lhs, rhs = scaled_prox_check(np.array([1.0]), np.zeros(1),
                                     np.array([1.0]), np.zeros(1), 2.0,
                                     metric)
    assert not ok and lhs == 3.0 and rhs == 2.0


def test_anchor_weight_frozen():
    metric = ProductMetric([(ID2, 1.0)])
    a = anchor_weight(np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                      np.zeros(2), metric, lam=0.5)
    assert np.isclose(a, 2.0)
    with pytest.raises(AssertionError):
        anchor_weight(np.array([1.0, 0.0]), np.array([0.1, 0.0]),
                      np.zeros(2), metric, lam=2.0)


def test_split_prox_step_bilinear_frozen():
    # f(x, y) = x y frozen at the anchor (1, 2); both block operators are
    # constants, so the split solves are exact one-query steps.
    z, subs, diags = split_prox_step(
        [lambda w: np.array([2.0]), lambda w: np.array([-1.0])],
        [ZeroTerm(), ZeroTerm()], [ID1, ID1], [1.0, 1.0],
        [np.array([1.0]), np.array([2.0])], 2.0, [0.0, 0.0], [True, True])
    assert np.allclose(z[0], [0.0]) and np.allclose(z[1], [2.5])
    assert np.allclose(subs[0], [0.0]) and np.allclose(subs[1], [0.0])
    assert [d.queries for d in diags] == [1, 1]

    # The joint criterion holds for the true operator V(z) = (z_y, -z_x).
    metric = ProductMetric([(ID1, 1.0), (ID1, 1.0)])
    ok, lhs, rhs = scaled_prox_check(
        np.array([2.5, 0.0]), np.zeros(2), np.array([0.0, 2.5]),
        np.array([1.0, 2.0]), 2.0, metric)
    assert ok
    assert np.isclose(lhs, math.sqrt(1.25))
    assert np.isclose(rhs, 2.0 * math.sqrt(1.25))


def test_split_prox_step_curved_blocks():
    # f(x, y) = x^2/2 + x y - y^2/2 at anchor (1, 2): the regularised block
    # solutions are x = 0 and y = 5/3.
    z, subs, diags = split_prox_step(
        [lambda w: w + 2.0, lambda w: w - 1.0],
        [ZeroTerm(), ZeroTerm()], [ID1, ID1], [1.0, 1.0],
        [np.array([1.0]), np.array([2.0])], 2.0, [1.0, 1.0], [True, True])
    assert abs(z[0][0] - 0.0) < 0.15
    assert abs(z[1][0] - 5.0 / 3.0) < 0.15
    # De-regularised subgradients of the zero term vanish identically.
    assert np.allclose(subs[0], 0.0, atol=1e-9)
    assert np.allclose(subs[1], 0.0, atol=1e-9)

    V = np.array([z[0][0] + z[1][0], z[1][0] - z[0][0]])
    metric = ProductMetric([(ID1, 1.0), (ID1, 1.0)])
    ok, _, _ = scaled_prox_check(V, np.concatenate(subs),
                                 np.concatenate(z), np.array([1.0, 2.0]),
                                 2.0, metric)
    assert ok


@settings(deadline=None, max_examples=40)
@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0.25, 2.0))
@example(-5.5, 4.2, 0.6)            # anchors past the drawn range
@example(6.8, -3.7, 1.4)
def test_split_prox_passes_joint_check(vx, vy, c):
    # Bilinear coupling c*x*y: split solves are exact, and the joint
    # criterion must hold at lam = 2 with the balanced scalings.
    v = [np.array([vx]), np.array([vy])]
    z, subs, _ = split_prox_step(
        [lambda w: np.array([c * vy]), lambda w: np.array([-c * vx])],
        [ZeroTerm(), ZeroTerm()], [ID1, ID1], [c, c], v, 2.0,
        [0.0, 0.0], [True, True])
    V = np.array([c * z[1][0], -c * z[0][0]])
    metric = ProductMetric([(ID1, c), (ID1, c)])
    ok, lhs, rhs = scaled_prox_check(V, np.concatenate(subs),
                                     np.concatenate(z), np.array([vx, vy]),
                                     2.0, metric)
    assert ok


def test_anchored_eg_rotation_block():
    # Monotone non-gradient block: a rotation field around c = (1, 0) with
    # the anchor regulariser folded into psi.  Exact solution (1/2, -1/2).
    R = np.array([[0.0, 1.0], [-1.0, 0.0]])
    c = np.array([1.0, 0.0])
    reg = RegularizedTerm(QuadraticReg(1.0, np.zeros(2)), ZeroTerm())
    task = BlockTask(operator=lambda w: R @ (w - c), psi=reg,
                     anchor=np.zeros(2), metric=ID2, lipschitz=1.0,
                     strong=1.0, delta=0.5)
    res = anchored_eg(task)
    assert res.exit == "residual"
    ok, r, thr = relative_residual_check(task, res.point, res.subgrad,
                                         operator_value=res.operator_value)
    assert ok
    exact = np.array([0.5, -0.5])
    assert np.linalg.norm(res.point - exact) <= res.residual / 1.0 + 1e-9


def test_anchored_eg_constant_operator():
    reg = RegularizedTerm(QuadraticReg(2.0, np.zeros(1)), ZeroTerm())
    task = BlockTask(operator=lambda w: np.array([1.0]), psi=reg,
                     anchor=np.zeros(1), metric=ID1, lipschitz=0.0,
                     delta=1.0)
    res = anchored_eg(task)
    assert res.exit == "constant"
    assert res.queries == 1
    assert np.allclose(res.point, [-0.5])


def test_anchored_eg_returns_the_anchor_of_a_vanishing_operator(
        monkeypatch):
    # A polymatrix VI with b = 0 starts at its solution z0 = 0: with the
    # gradient engine off, each block's anchored loop returns its anchor.
    from saddlesplit import decoupled

    exits = []

    def spy(task):
        res = anchored_eg(task)
        exits.append(res.exit)
        return res

    monkeypatch.setattr(decoupled, "anchored_eg", spy)
    p = make_polymatrix((1, 2), [[[[1.0]], [[1.0, -0.5]]],
                                 [[[-1.0], [0.5]], np.eye(2)]])
    p = dataclasses.replace(p, block_is_gradient=[False, False])
    res = decoupled_vi_run(p, DecoupledParams(epsilon=0.1))
    assert exits == ["anchor", "anchor"]
    assert res.status == "solution_found"


def test_coupling_constants():
    # Saddle scalings alpha = L_xy Dhat_other / Dhat_own give coupling one.
    assert np.isclose(vip_coupling([[0.0, 3.0], [3.0, 0.0]], [1.0, 9.0],
                                   [3.0, 1.0]), 1.0)
    rng = np.random.default_rng(3)
    K = 4
    L = np.abs(rng.normal(size=(K, K)))
    L = (L + L.T) / 2
    D = 1.0 + rng.random(K)
    alphas = [sum(L[i, j] * D[j] for j in range(K) if j != i) / D[i]
              for i in range(K)]
    assert np.isclose(vip_coupling(L, alphas, D), 1.0)


def _rotation_reference(v0, iters):
    """Replay the exact outer dynamics of f(x, y) = x y from anchor v0."""
    rot = np.array([[0.6, -0.8], [0.8, 0.6]])
    v = np.array(v0, float)
    acc = np.zeros(2)
    a_sum = 0.0
    cands = []
    for _ in range(iters):
        z = np.array([v[0] - v[1] / 2.0, v[1] + v[0] / 2.0])
        acc += 0.8 * z
        a_sum += 0.8
        cands.append(acc / a_sum)
        v = rot @ v
    return v, cands


def test_saddle_rotation_dynamics():
    # f(x, y) = x y started at (1, 1): every step weight is exactly 0.8 and
    # the anchor rotates by [[0.6, -0.8], [0.8, 0.6]] around the saddle.
    # D_x = D_y = 3 keeps alpha = L_xy D_y / D_x = 1, and the ball of radius
    # 3 around (1, 1) holds the whole orbit.
    from saddlesplit.problems import make_bilinear
    p = make_bilinear(np.array([[1.0]]), D_x=3.0, D_y=3.0)
    p = dataclasses.replace(p, x0=np.array([1.0]), y0=np.array([1.0]))
    res = decoupled_saddle_run(
        p, DecoupledParams(epsilon=1e-9, max_rounds=8))
    assert res.status == "budget_exhausted"
    assert res.rounds == 8
    assert len(res.info["a_history"]) == 4
    assert np.allclose(res.info["a_history"], 0.8, atol=1e-12)
    _, cands = _rotation_reference([1.0, 1.0], 4)
    assert np.allclose(res.candidate[0], cands[-1][0], atol=1e-12)
    assert np.allclose(res.candidate[1], cands[-1][1], atol=1e-12)
    # Two queries per agent per iteration; the x-block bound is met with
    # equality because its frozen operator has no curvature.
    assert res.ledger.queries()["x"] == res.rounds
    assert res.ledger.queries()["y"] == res.rounds


def test_saddle_run_converges():
    p = make_strongly_convex_concave(1.0, 1.0, 1.0, n=1, D_x=1.0, D_y=1.0)
    res = decoupled_saddle_run(p, DecoupledParams(epsilon=0.05))
    assert res.status == "converged"
    assert res.gap.value <= 0.05
    theta = 2.0
    assert res.rounds <= 2 + 2 * theta * p.L_xy * p.D_x * p.D_y / 0.05
    assert res.rounds % 2 == 0
    assert min(res.info["a_history"]) >= 0.5 - 1e-9


def test_saddle_run_starting_at_the_saddle_ends_solution_found():
    # b = 0 puts the saddle at the origin, where the run starts: the first
    # exchange finds V + psi' = 0 and ends the run.
    p = make_bilinear(np.array([[1.0, 0.5], [0.0, 2.0]]), b=np.zeros(2))
    res = decoupled_saddle_run(p, DecoupledParams(epsilon=0.1))
    assert res.status == "solution_found"
    assert res.rounds == 2
    assert res.ledger.queries() == {"x": 2, "y": 2}
    assert res.gap.exact and res.gap.value == 0.0


def test_saddle_local_solve():
    p = make_quadratic(np.array([[1.0]]), np.array([1.0]), side="x")
    res = decoupled_saddle_run(
        p, DecoupledParams(epsilon=1e-3),
        ledger=OracleLedger(("x", "y"), costs=p.costs, capture="candidates"))
    assert res.status == "local_solve"
    assert res.rounds == 2
    assert res.gap.value <= 1e-3
    assert len(res.round_candidates) == res.rounds
    assert abs(res.candidate[0][0] - 1.0) < 1e-3


@pytest.mark.parametrize("weight", [0.5, 0.2])
def test_local_solve_steps_in_the_block_metric(weight):
    # Under metric weights P the block's Lipschitz constant is L / min P;
    # with the Euclidean L the frozen block's local solve overflowed and
    # raised FloatingPointError.
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 4))
    p = make_quadratic(A, A @ rng.standard_normal(4), side="x")
    p = dataclasses.replace(p, metric_x=ScaledMetric(np.full(4, weight)))
    res = decoupled_saddle_run(p, DecoupledParams(epsilon=1e-3))
    assert res.status == "local_solve" and res.rounds == 2
    assert math.isfinite(res.gap.value)


def test_a_half_bounded_box_keeps_a_flat_block_at_its_start():
    # The inert y block's operator is zero, so every point of y >= 0
    # minimises its constant-operator subproblem and the solve keeps the
    # anchor.  The box's midpoint, (inf, inf), was once returned as y.
    p = make_quadratic(np.diag([1.0, 2.0]), b=(0.3, 0.2), side="x",
                       other_dim=2)
    p = dataclasses.replace(p, psi_y=BoxIndicator(np.zeros(2),
                                                  np.full(2, np.inf)))
    res = decoupled_saddle_run(p, DecoupledParams(epsilon=0.05))
    assert res.status == "local_solve"
    assert res.candidate[1].tobytes() == p.y0.tobytes()
    assert res.gap.value <= 0.05


def test_local_solve_stops_at_its_share_of_the_gap():
    # Uncoupled agents: each block stops at the first probe whose
    # Frank-Wolfe bound on its own gap is at most eps / 2.  The residual
    # target alone took 4109 x-queries here, to a gap of 3.7e-10.
    p = make_hard_saddle("x", 100.0, 1.0, 50)
    eps = 0.002
    res = decoupled_saddle_run(p, DecoupledParams(epsilon=eps))
    assert res.status == "local_solve"
    assert res.ledger.queries() == {"x": 438, "y": 1}
    assert res.gap.exact and res.gap.value <= eps
    x = res.candidate[0]
    g = p.grad_x(res.candidate)
    frank_wolfe = float(g @ (x - p.x0)) + p.D_x * p.metric_x.dual_norm(g)
    assert res.gap.value <= frank_wolfe <= eps / 2


def test_vip_run_converges():
    rng = np.random.default_rng(11)
    p = random_polymatrix((2, 2, 2), rng, coupling=1.0, diag=0.5)
    res = decoupled_vi_run(p, DecoupledParams(epsilon=0.05))
    assert res.status == "converged"
    assert res.gap.value <= 0.05
    cross = sum(p.L[i, j] * p.D[i] * p.D[j]
                for i in range(3) for j in range(3) if i != j)
    assert res.rounds <= math.ceil(2 + 2 * cross / 0.05) + 2
    assert np.isclose(res.info["coupling"], 1.0)
    assert min(res.info["a_history"]) >= 1.0 / res.info["lam"] - 1e-9


def test_vip_frozen_uncoupled_block():
    # Block 3 talks to nobody: it is solved locally once and frozen.
    blocks = [[[[1.0]], [[0.5]], None],
              [[[-0.5]], [[1.0]], None],
              [None, None, [[2.0]]]]
    p = make_polymatrix((1, 1, 1), blocks, b=[[0.1], [0.2], [1.0]])
    res = decoupled_vi_run(p, DecoupledParams(epsilon=0.02))
    assert res.info["frozen_blocks"] == [2]
    assert res.status in ("converged", "solution_found")
    assert abs(res.candidate[2][0] - 0.5) < 0.01
    assert res.gap.value <= 0.02


def test_vip_frozen_block_keeps_its_residual_target_beside_active_blocks():
    # The frozen block is a least-squares chain: its queries at the
    # extrapolated points certify its residual target early, and that
    # target, not a share of eps, keeps the active blocks' rounds as they
    # were.  Doubling probes alone spent 522 queries at both epsilons.
    chain = make_hard_saddle("x", 100.0, 1.0, 5).structure
    A, n = np.asarray(chain["A"]), chain["A"].shape[1]
    C = np.array([[0.0, 1.0], [-1.0, 0.5]])
    blocks = [[0.5 * np.eye(2), C, None],
              [-C.T, 0.5 * np.eye(2), None],
              [None, None, A.T @ A]]
    p = make_polymatrix((2, 2, n), blocks,
                        b=[[0.1, 0.2], [0.3, -0.1], A.T @ chain["b"]])
    for eps, rounds, frozen_queries in ((0.05, 4, 105), (0.02, 6, 154)):
        res = decoupled_vi_run(p, DecoupledParams(epsilon=eps))
        assert res.info["frozen_blocks"] == [2]
        assert res.status == "converged" and res.gap.value <= eps
        assert res.rounds == rounds
        assert res.ledger.queries("3") == frozen_queries


def test_vip_d_hat_of_the_wrong_length_is_rejected():
    p = random_polymatrix((2, 2, 2), np.random.default_rng(0))
    with pytest.raises(ValueError, match="d_hat has 2 entries but the "
                                         "problem has 3 blocks"):
        decoupled_vi_run(p, DecoupledParams(epsilon=0.1, d_hat=(1.0, 1.0)))


def test_vip_all_blocks_local():
    blocks = [[[[1.0]], None], [None, [[2.0]]]]
    p = make_polymatrix((1, 1), blocks, b=[[0.5], [1.0]])
    res = decoupled_vi_run(
        p, DecoupledParams(epsilon=0.01),
        ledger=OracleLedger(("1", "2"), costs=p.costs, capture="candidates"))
    assert res.status == "local_solve"
    assert res.rounds == 2
    assert len(res.round_candidates) == res.rounds
    assert abs(res.candidate[0][0] - 0.5) < 0.01
    assert abs(res.candidate[1][0] - 0.5) < 0.01


def test_vip_non_gradient_block():
    # A genuinely non-gradient monotone block routed through the anchored
    # extragradient engine.
    R = np.array([[0.0, 1.0], [-1.0, 0.0]])
    C = np.array([[0.3, 0.0], [0.0, 0.3]])

    def op1(z):
        return R @ z[0] + C @ z[1]

    def op2(z):
        return -C.T @ z[0] + z[1]

    p = VipProblem(
        operators=[op1, op2],
        psis=[BallIndicator(np.zeros(2), 2.0), BallIndicator(np.zeros(2), 2.0)],
        z0=[np.array([1.0, 0.5]), np.array([-0.5, 1.0])],
        L=np.array([[1.0, 0.3], [0.3, 1.0]]),
        D=(2.0, 2.0),
        solution=[np.zeros(2), np.zeros(2)],
        block_is_gradient=[False, True],
        structure={"kind": "polymatrix",
                   "blocks": [[R, C], [-C.T, np.eye(2)]],
                   "b": [np.zeros(2), np.zeros(2)], "dims": [2, 2]},
        name="rotation-pair")
    res = decoupled_vi_run(p, DecoupledParams(epsilon=0.05))
    assert res.status in ("converged", "solution_found")
    assert res.gap.value <= 0.05


def test_uncoupled_block_that_is_not_a_gradient_is_refused():
    # Block 0 is the rotation R z - c, uncoupled (L = I) and flagged as no
    # gradient; its solution (0.2, 0.3) lies in the ball.  Frozen blocks are
    # solved by the accelerated engine, which used to end this run
    # budget_exhausted after 53 queries, with a gap of 3.0e16.
    R = np.array([[0.0, 1.0], [-1.0, 0.0]])
    c = np.array([0.3, -0.2])
    zero = np.zeros((2, 2))
    p = VipProblem(
        operators=[lambda z: R @ z[0] - c, lambda z: z[1]],
        psis=[ZeroTerm(), ZeroTerm()], z0=[np.zeros(2), np.zeros(2)],
        L=np.eye(2), D=(1.0, 1.0), block_is_gradient=[False, True],
        structure={"kind": "polymatrix", "blocks": [[R, zero], [zero, np.eye(2)]],
                   "b": [c, np.zeros(2)], "dims": [2, 2]})
    ledger = OracleLedger(p.agents)
    with pytest.raises(ValueError, match="block 0 is uncoupled but not a "
                                         "gradient"):
        decoupled_vi_run(p, DecoupledParams(epsilon=0.1), ledger=ledger)
    assert ledger.weighted_cost() == 0


def test_vi_without_operator_structure_is_refused_before_any_query():
    # Two uncoupled gradient blocks and no `structure`: the weak-gap
    # estimate cannot run, and the run used to find out at its first gap
    # evaluation, after 2 + 1 queries on the frozen solves.
    p = VipProblem(
        operators=[lambda z: z[0] - 0.3, lambda z: z[1]],
        psis=[ZeroTerm(), ZeroTerm()], z0=[np.zeros(2), np.zeros(2)],
        L=np.eye(2), D=(1.0, 1.0), block_is_gradient=[True, True])
    ledger = OracleLedger(p.agents)
    with pytest.raises(ValueError, match="needs affine operator structure"):
        decoupled_vi_run(p, DecoupledParams(epsilon=0.1), ledger=ledger)
    assert ledger.queries() == {a: 0 for a in p.agents}


def test_saddle_run_rejects_small_lam():
    p = make_strongly_convex_concave(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        decoupled_saddle_run(p, DecoupledParams(epsilon=0.1, lam=1.0))


def test_saddle_and_vi_drivers_share_one_core():
    # The scsc saddle written as a two-block polymatrix VI, started at the
    # same point, must take the same steps: same rounds, same per-agent
    # queries, same candidates after every round.
    sp = make_strongly_convex_concave(1.0, 1.0, 1.0, n=2)
    vp = make_polymatrix((2, 2), [[np.eye(2), np.eye(2)],
                                  [-np.eye(2), np.eye(2)]])
    vp = dataclasses.replace(vp, z0=list(sp.z0))
    params = DecoupledParams(epsilon=1e-9, max_rounds=8)
    sres = decoupled_saddle_run(
        sp, params,
        ledger=OracleLedger(("x", "y"), costs=sp.costs, capture="candidates"))
    vres = decoupled_vi_run(
        vp, params,
        ledger=OracleLedger(("1", "2"), costs=vp.costs, capture="candidates"))
    assert sres.rounds == vres.rounds == 8
    assert list(sres.ledger.queries().values()) == \
        list(vres.ledger.queries().values())
    assert len(sres.round_candidates) == len(vres.round_candidates)
    for sc, vc in zip(sres.round_candidates, vres.round_candidates):
        for a, b in zip(sc, vc):
            assert np.allclose(a, b, rtol=0.0, atol=1e-12)


def test_polymatrix_lipschitz_matrix_symmetric():
    # Seed-5 draws of the 3 x 100 polymatrix benchmark instances: separate
    # power iterations on A_ij and A_ji = -A_ij^T used to leave L slightly
    # asymmetric, pushing the scaled coupling above one so the default
    # lam = 2 was rejected.
    rng = np.random.default_rng(5)
    for _ in range(2):
        p = random_polymatrix((100, 100, 100), rng, diag=0.5)
        assert np.array_equal(p.L, p.L.T)
        res = decoupled_vi_run(p, DecoupledParams(epsilon=0.1, max_rounds=2))
        assert res.rounds == 2
        assert 2.0 * res.info["coupling"] <= res.info["lam"] + 1e-9


def test_vi_polymatrix_default_lam_passes_on_seeds_1_to_40():
    # The shape of the vi_polymatrix benchmark's instances.  With exact,
    # mirrored norms the scaled coupling of the scalings the solver picks
    # (alpha_i = sum_{j != i} L_ij D_j / D_i) is one up to rounding, so the
    # default lam = 2 is accepted; no solver is run.
    for seed in range(1, 41):
        p = random_polymatrix([100] * 3, np.random.default_rng(seed),
                              diag=0.5)
        assert np.array_equal(p.L, p.L.T), seed
        alphas = [sum(p.L[i, j] * p.D[j] for j in range(3) if j != i)
                  / p.D[i] for i in range(3)]
        coupling = vip_coupling(p.L, alphas, p.D)
        assert 2.0 * coupling <= DecoupledParams.lam + 1e-9, seed


def test_round_candidates_shared_not_copied(monkeypatch):
    """The candidate closing one iteration is the one retained after the
    next solve round: the same arrays, with the values the stop test saw.
    (The stop test scores every iteration's candidate but evaluates the
    gap only where its bound cannot rule the target out, so the spy sits
    on its input.)"""
    from saddlesplit import accounting

    seen = []

    class SpyTest(accounting.GapTest):
        def __call__(self, candidate):
            seen.append([np.array(b) for b in candidate])
            return super().__call__(candidate)

    monkeypatch.setattr(accounting, "GapTest", SpyTest)
    p = make_hard_saddle("xy", 1.0, 1.0, 20)
    res = decoupled_saddle_run(
        p, DecoupledParams(epsilon=0.05),
        ledger=OracleLedger(("x", "y"), costs=p.costs, capture="candidates"))
    rc = res.round_candidates
    iterations = res.info["iterations"]
    assert iterations >= 3 and len(rc) == 2 * iterations
    for t in range(iterations - 1):
        assert all(a is b for a, b in zip(rc[2 * t + 1], rc[2 * t + 2]))
    for t in range(iterations):
        assert all(np.array_equal(a, b) for a, b in zip(rc[2 * t + 1], seen[t]))


@pytest.mark.parametrize("build", [
    lambda: make_bilinear(np.array([[1.0]]), b=np.array([0.6])),
    lambda: make_polymatrix((1, 1), [[None, [[1.0]]], [[[-1.0]], None]],
                            b=[[0.6], [0.3]]),
])
def test_default_cap_is_comm_bound_plus_two(build, monkeypatch):
    # With a gap that never closes, the run stops at the default cap, which
    # is the bound `run --check-bounds` uses, rounded up, plus two.
    from saddlesplit import decoupled
    from saddlesplit.evaluation import GapResult, complexity_bounds
    monkeypatch.setattr(decoupled, "restricted_gap",
                        lambda *a, **k: GapResult(math.inf, False, "never"))
    p = build()
    report = complexity_bounds(p, 0.5)
    if isinstance(p, VipProblem):
        res, bound = decoupled_vi_run(p, DecoupledParams(0.5)), report.dmvip_comm
    else:
        res, bound = (decoupled_saddle_run(p, DecoupledParams(0.5)),
                      report.dmsp_comm)
        assert res.info["theta"] == report.theta
    assert res.status == "budget_exhausted"
    assert res.rounds == res.ledger.round == math.ceil(bound) + 2 == 12


def _nan_once(n, value):
    """A constant operator whose `n`-th answer is NaN."""
    calls = [0]

    def op(w):
        calls[0] += 1
        return np.full(value.shape, np.nan) if calls[0] == n else value
    return op


@pytest.mark.parametrize("engine", ["residual_agd", "anchored_eg"])
@pytest.mark.parametrize("n", [1, 2])
def test_inner_engines_reject_nonfinite_operator(engine, n):
    # One NaN answer, at the anchor or at the first in-loop query, raises
    # although every later answer is finite.
    task = BlockTask(operator=_nan_once(n, np.array([0.5, -0.5])),
                     psi=ZeroTerm(), anchor=np.array([1.0, -1.0]), metric=ID2,
                     lipschitz=1.0, delta=0.5)
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
        residual_agd(task, xi=0.01) if engine == "residual_agd" \
            else anchored_eg(task)


@pytest.mark.parametrize("engine", ["residual_agd", "anchored_eg"])
def test_inner_engines_reject_nonfinite_iterate(engine):
    # A finite but huge operator value over a tiny Lipschitz bound
    # overflows the first prox step; the iterate check must catch it.  (A
    # zero relative target keeps anchored_eg from accepting the step.)
    task = BlockTask(operator=lambda w: np.array([1e308]), psi=ZeroTerm(),
                     anchor=np.zeros(1), metric=ID1, lipschitz=1e-300,
                     delta=0.0)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(FloatingPointError, match="iterate"):
        residual_agd(task, xi=0.5) if engine == "residual_agd" \
            else anchored_eg(task)
