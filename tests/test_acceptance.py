"""Acceptance battery: twelve end-to-end checks of the advertised guarantees.

Each test exercises one guarantee at its stated tolerance and reports a
single pass/fail line, printed in the terminal summary (see conftest.py)
so the battery reads as a checklist whether or not pytest captures
output.  Communication
rounds and query counts always come from a ledger, never from solver-side
counters.
"""

import functools
import math
import time

import numpy as np

from saddlesplit.accounting import OracleLedger
from saddlesplit.baselines import (ExtragradientParams, LocalGdaParams,
                                   extragradient_run, local_gda_run)
from saddlesplit.decoupled import (BlockTask, DecoupledParams,
                                   decoupled_saddle_run, decoupled_vi_run,
                                   residual_agd, scaled_prox_check,
                                   split_prox_step, vip_coupling)
from saddlesplit.evaluation import complexity_bounds, restricted_gap
from saddlesplit.hard_instances import (krylov_index, make_hard_saddle,
                                        residual_floor)
from saddlesplit.metrics import ProductMetric, ScaledMetric
from saddlesplit.problems import (SaddleProblem, ZeroTerm, make_bilinear,
                                  make_polymatrix,
                                  make_strongly_convex_concave)

from krylov_reference import krylov_basis, krylov_min_residual

COUPLINGS = (0.5, 1.0, 2.0)
ACCURACIES = (0.2, 0.1, 0.05)
_GOOD = ("converged", "solution_found")


VERDICTS = []


def criterion(num, label):
    """Record one `pass`/`FAIL` line per criterion for the run summary."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ok = False
            try:
                fn(*args, **kwargs)
                ok = True
            finally:
                verdict = "pass" if ok else "FAIL"
                VERDICTS.append(f"[{num:2d}/12] {verdict}  {label}")
        return wrapper
    return deco


# ---------------------------------------------------------------------------
# shared instance builders
# ---------------------------------------------------------------------------

def shifted_bilinear(scale):
    """1-d bilinear instance with coupling `scale` and saddle at x = 0.6."""
    return make_bilinear(np.array([[scale]]), b=np.array([0.6 * scale]),
                         name=f"bilinear_{scale}")


def skew_polymatrix(scale, rng, K=3, diag=0.0, name=None):
    """K-agent polymatrix VIP whose off-diagonal coupling norms equal `scale`.

    The right-hand side is chosen so a known solution sits well inside the
    unit restriction balls.
    """
    dims = [2] * K
    blocks = [[None] * K for _ in range(K)]
    for i in range(K):
        if diag:
            blocks[i][i] = diag * np.eye(2)
        for j in range(i + 1, K):
            G = np.linalg.qr(rng.normal(size=(2, 2)))[0]
            blocks[i][j] = scale * G
            blocks[j][i] = -scale * G.T
    target = []
    for _ in range(K):
        t = rng.normal(size=2)
        target.append(0.4 * t / np.linalg.norm(t))
    b = []
    for i in range(K):
        acc = np.zeros(2)
        for j in range(K):
            if blocks[i][j] is not None:
                acc = acc + blocks[i][j] @ target[j]
        b.append(acc)
    return make_polymatrix(dims, blocks, b=b,
                           name=name or f"skew{K}_{scale}")


def tilted_instance():
    """f(x, y) = x y - y^2/2 + 0.3 y: the x-oracle is constant in x."""
    def grad_x(z):
        return z[1].copy()

    def grad_y(z):
        return z[0] - z[1] + 0.3

    def f_value(z):
        x, y = z
        return float(x[0] * y[0] - 0.5 * y[0] ** 2 + 0.3 * y[0])

    return SaddleProblem(
        grad_x=grad_x, grad_y=grad_y,
        psi_x=ZeroTerm(), psi_y=ZeroTerm(),
        x0=np.zeros(1), y0=np.zeros(1),
        L_x=0.0, L_y=1.0, L_xy=1.0, D_x=1.0, D_y=1.0,
        saddle=(np.array([-0.3]), np.zeros(1)), f_value=f_value,
        name="tilted")


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

@criterion(1, "decoupled saddle runs finish within 2 + 4 Lxy Dx Dy / eps "
              "rounds on the bilinear grid")
def test_criterion_01_round_bound():
    t0 = time.perf_counter()
    for s in COUPLINGS:
        p = shifted_bilinear(s)
        for eps in ACCURACIES:
            res = decoupled_saddle_run(p, DecoupledParams(epsilon=eps))
            assert res.status in _GOOD, (s, eps, res.status)
            assert res.gap.value <= eps + 1e-12
            assert isinstance(res.rounds, (int, np.integer))
            assert res.rounds <= 2.0 + 4.0 * s / eps + 1e-9, (s, eps)
    assert time.perf_counter() - t0 < 5.0


@criterion(2, "round bound survives overestimated diameters via the "
              "scaling factor theta")
def test_criterion_02_diameter_robustness():
    for s in COUPLINGS:
        p = shifted_bilinear(s)
        for eps in ACCURACIES:
            res = decoupled_saddle_run(
                p, DecoupledParams(epsilon=eps, d_hat=(10.0, 10.0)))
            assert res.status in _GOOD
            assert np.isclose(res.info["theta"], 2.0)
            assert res.rounds <= 2.0 + 2.0 * 2.0 * s / eps + 1e-9
            res = decoupled_saddle_run(
                p, DecoupledParams(epsilon=eps, d_hat=(4.0, 1.0)))
            assert res.status in _GOOD
            assert np.isclose(res.info["theta"], 4.25)
            assert res.rounds <= 2.0 + 2.0 * 4.25 * s / eps + 1e-9


@criterion(3, "step weights never fall below 1/lambda and the telescoped "
              "descent budget holds at the known solution")
def test_criterion_03_step_weights_and_descent():
    runs = []
    for s in COUPLINGS:
        p = shifted_bilinear(s)
        runs.append((p, decoupled_saddle_run(p, DecoupledParams(epsilon=0.05))))
    p = make_strongly_convex_concave(1.0, 1.0, 1.0)
    runs.append((p, decoupled_saddle_run(p, DecoupledParams(epsilon=0.05))))
    for prob, res in runs:
        sol = prob.saddle
        lam = res.info["lam"]
        assert res.info["a_history"], "run recorded no iterations"
        assert min(res.info["a_history"]) >= 1.0 / lam - 1e-9
        ax, ay = res.info["alpha"]
        dx = prob.x0 - sol[0]
        dy = prob.y0 - sol[1]
        budget = 0.5 * (ax * float(dx @ dx) + ay * float(dy @ dy))
        assert res.info["telescope_lhs"] <= budget + 1e-8

    vp = skew_polymatrix(1.0, np.random.default_rng(0))
    vres = decoupled_vi_run(vp, DecoupledParams(epsilon=0.1))
    lam = vres.info["lam"]
    assert min(vres.info["a_history"]) >= 1.0 / lam - 1e-9
    budget = 0.5 * sum(
        a * float((z0 - s) @ (z0 - s))
        for a, z0, s in zip(vres.info["alpha"], vp.z0, vp.solution))
    assert vres.info["telescope_lhs"] <= budget + 1e-8


@criterion(4, "split solves pass the joint scaled prox criterion at 100+ "
              "random anchors")
def test_criterion_04_split_joint_criterion():
    rng = np.random.default_rng(42)
    ID2 = ScaledMetric(2)
    checked = 0

    # Weakly coupled two-agent closures: curvature mu dominates coupling c.
    for _ in range(3):
        mux, muy = rng.uniform(0.5, 2.0, size=2)
        c = float(rng.uniform(0.1, 0.5))
        metric = ProductMetric([(ID2, c), (ID2, c)])
        for _ in range(20):
            v = [rng.uniform(-1, 1, size=2), rng.uniform(-1, 1, size=2)]
            ops = [lambda w, vy=v[1], m=mux: m * w + c * vy,
                   lambda w, vx=v[0], m=muy: m * w - c * vx]
            z, subs, _ = split_prox_step(
                ops, [ZeroTerm(), ZeroTerm()], [ID2, ID2], [c, c], v, 2.0,
                [mux, muy], [True, True])
            V = np.concatenate([mux * z[0] + c * z[1],
                                muy * z[1] - c * z[0]])
            ok, lhs, rhs = scaled_prox_check(
                V, np.concatenate(subs), np.concatenate(z),
                np.concatenate(v), 2.0, metric)
            assert ok, (lhs, rhs)
            checked += 1

    # Block games of 2, 3, and 5 agents at lambda = twice the scaled
    # coupling constant.
    for K in (2, 3, 5):
        vp = skew_polymatrix(float(rng.uniform(0.4, 1.5)), rng, K=K,
                             diag=0.3)
        mats, bvecs = vp.structure["blocks"], vp.structure["b"]
        alphas = [sum(vp.L[i, j] for j in range(K) if j != i)
                  for i in range(K)]
        lam = 2.0 * vip_coupling(vp.L, alphas, vp.D)
        metrics = [ScaledMetric(2) for _ in range(K)]
        metric = ProductMetric(list(zip(metrics, alphas)))

        def frozen_op(i, v):
            def op(w):
                out = mats[i][i] @ w - bvecs[i]
                for j in range(K):
                    if j != i:
                        out = out + mats[i][j] @ v[j]
                return out
            return op

        for _ in range(20):
            v = [rng.uniform(-1, 1, size=2) for _ in range(K)]
            z, subs, _ = split_prox_step(
                [frozen_op(i, v) for i in range(K)], list(vp.psis),
                metrics, alphas, v, lam,
                [vp.L[i, i] for i in range(K)], [True] * K)
            V = np.concatenate([
                sum(mats[i][j] @ z[j] for j in range(K)) - bvecs[i]
                for i in range(K)])
            ok, lhs, rhs = scaled_prox_check(
                V, np.concatenate(subs), np.concatenate(z),
                np.concatenate(v), lam, metric)
            assert ok, (K, lhs, rhs)
            checked += 1

    assert checked >= 100


@criterion(5, "residual solver reaches xi-distance accuracy within "
              "34 sqrt(3L/(2 xi)) queries on random SPD tasks")
def test_criterion_05_residual_solver():
    rng = np.random.default_rng(7)
    for dim in (5, 20, 50):
        Q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
        eigs = rng.uniform(0.5, 2.0, size=dim)
        A = (Q * eigs) @ Q.T
        L, mu = float(np.max(eigs)), float(np.min(eigs))
        w_star = rng.normal(size=dim)
        v = w_star + rng.normal(size=dim)
        dist = float(np.linalg.norm(v - w_star))
        for xi in (1.0, 0.1, 0.01):
            task = BlockTask(operator=lambda w: A @ (w - w_star),
                             psi=ZeroTerm(), anchor=v.copy(),
                             metric=ScaledMetric(dim), lipschitz=L,
                             strong=mu)
            res = residual_agd(task, xi=xi)
            cap = 34.0 * math.sqrt(3.0 * L / (2.0 * xi))
            assert isinstance(res.queries, int)
            assert res.queries <= cap + 1e-9, (dim, xi, res.queries, cap)
            attained = float(np.linalg.norm(A @ (res.point - w_star)))
            assert attained <= xi * dist * (1.0 + 1e-9) + 1e-12, (dim, xi)


@criterion(6, "per-agent query counts fit the per-round budget and the "
              "weighted cost bound at unit costs")
def test_criterion_06_oracle_budget():
    eps = 0.1
    cases = [tilted_instance(),                                   # L_x = 0
             make_strongly_convex_concave(1.0, 1.0, 1.0),         # L_x = 1
             make_strongly_convex_concave(100.0, 1.0, 1.0,
                                          name="stiff")]          # L_x = 100
    for p in cases:
        led = OracleLedger(("x", "y"), costs=p.costs)
        res = decoupled_saddle_run(p, DecoupledParams(epsilon=eps),
                                   ledger=led)
        assert res.status in _GOOD, (p.name, res.status)
        ax, ay = res.info["alpha"]
        lam = res.info["lam"]
        T = res.rounds

        def cap(L, a):
            return T * (1.0 + 34.0 * math.sqrt(9.0 * L / (2.0 * a * lam)))

        assert led.queries("x") <= cap(p.L_x, ax) + 1e-9, p.name
        assert led.queries("y") <= cap(p.L_y, ay) + 1e-9, p.name
        cost_cap = complexity_bounds(p, eps).dmsp_oracle
        assert led.weighted_cost() <= cost_cap + 1e-9, p.name


# Chain orders of criteria 7-9: k = 10 is small enough for the brute-force
# Krylov tools to cross-check the closed forms; past j of about 25 they
# drop directions, so k = 200 rests on the closed forms alone.
CHAIN_ORDERS = (10, 200)


@criterion(7, "chain construction delivers exact norms, optimum, and the "
              "k-step residual floor")
def test_criterion_07_chain_construction(monkeypatch):
    # The norm is exact: the dense SVD's up to k = 10, the closed form
    # L cos(pi / (2 (p+1))) past it, and no chain is handed to a numerical
    # norm routine.
    from saddlesplit import evaluation, problems
    norm_calls = []
    dense_norm = problems.spectral_norm

    def counted(A):
        norm_calls.append(A)
        return dense_norm(A)

    for mod in (problems, evaluation):
        monkeypatch.setattr(mod, "spectral_norm", counted)
    cases = [(k, L, D) for k in range(1, 11) for L in COUPLINGS
             for D in COUPLINGS]
    cases.append((200, 1.0, 1.0))       # the chain of criteria 8 and 9
    for k, L, D in cases:
        p = make_hard_saddle("xy", L, D, k)
        A, b, v = p.structure["A"], p.structure["b"], p.saddle[0]
        if k <= 10:
            sigma = np.linalg.svd(np.asarray(A), compute_uv=False)[0]
        else:
            sigma = L * math.cos(math.pi / (2.0 * (2 * k + 2)))
        assert abs(p.L_xy - sigma) <= 1e-12 * sigma, (k, L, D)
        feasibility = np.linalg.norm(p.structure["matvec"](v) - b)
        assert feasibility <= 1e-10 * (1.0 + np.linalg.norm(b))
        assert abs(np.linalg.norm(v) - D) <= 1e-10 * D
        want = residual_floor(L, D, k, k)
        order = 2 * k + 1
        gamma = D * math.sqrt(6.0 * (order + 1)
                              / (order * (2.0 * order + 1.0)))
        assert abs(want - L ** 2 * gamma ** 2 / (16.0 * (k + 1))) \
            <= 1e-12 * want
        if k <= 10:
            got = krylov_min_residual(A, b, k)
        else:
            # K_k(x) is the span of the first k coordinates: least squares
            # on the first k columns.
            cols = np.stack([p.structure["matvec"](e)
                             for e in np.eye(p.nx)[:k]], axis=1)
            c = np.linalg.lstsq(cols, b, rcond=None)[0]
            got = 0.5 * float(np.linalg.norm(cols @ c - b) ** 2)
        assert abs(got - want) <= 1e-9 * want, (k, L, D)
        floor = 3.0 * L ** 2 * D ** 2 / (32.0 * (k + 1) ** 2)
        assert want >= floor * (1.0 - 1e-12)
    k = 5000
    sigma = math.cos(math.pi / (2.0 * (2 * k + 2)))
    assert abs(make_hard_saddle("xy", 1.0, 1.0, k).L_xy - sigma) \
        <= 1e-12 * sigma
    assert norm_calls == []


_HARD = {}


def _full_ledger(p):
    """A ledger that makes the solver keep its per-round candidates."""
    return OracleLedger(("x", "y"), costs=p.costs, capture="candidates")


def hard_runs(k):
    """Both solvers on the order-k coupled chain at its matched accuracy
    eps = L_xy D_x D_y / (3k), run once; criterion 9 releases them."""
    if k not in _HARD:
        p = make_hard_saddle("xy", 1.0, 1.0, k)
        eps = p.L_xy * p.D_x * p.D_y / (3.0 * k)
        _HARD[k] = {
            "problem": p, "eps": eps,
            "dm": decoupled_saddle_run(p, DecoupledParams(epsilon=eps),
                                       ledger=_full_ledger(p)),
            "eg": extragradient_run(p, ExtragradientParams(epsilon=eps),
                                    ledger=_full_ledger(p))}
    return _HARD[k]


@criterion(8, "solver candidates stay inside the round-indexed Krylov "
              "subspaces on the chain instance")
def test_criterion_08_krylov_confinement():
    for k in CHAIN_ORDERS:
        data = hard_runs(k)
        A, b = data["problem"].structure["A"], data["problem"].structure["b"]
        bases = {}
        for run in (data["dm"], data["eg"]):
            assert run.round_candidates, "run retained no candidates"
            for r, cand in enumerate(run.round_candidates, start=1):
                j = r // 2                      # ceil((r - 1) / 2)
                index = krylov_index(cand, b)
                assert index is not None and index <= j, (k, r, index)
                if k > 10:
                    continue
                # Brute-force cross-check of both blocks.
                for side, block in zip("xy", cand):
                    if (side, j) not in bases:
                        bases[side, j] = krylov_basis(A, b, j, side=side)
                    Q = bases[side, j]
                    resid = np.linalg.norm(block - Q @ (Q.T @ block))
                    assert resid <= 1e-8, (r, side, j, resid)


@criterion(9, "neither solver closes the gap on the chain instance before "
              "round 2k - 2 (18 at k = 10, 398 at k = 200)")
def test_criterion_09_empirical_floor():
    try:
        for k in CHAIN_ORDERS:
            data = hard_runs(k)
            p, eps = data["problem"], data["eps"]
            b = p.structure["b"]
            floor = (2.0 / 3.0) * p.L_xy * p.D_x * p.D_y / eps - 2.0
            assert np.isclose(floor, 2 * k - 2)
            for run in (data["dm"], data["eg"]):
                assert run.status in _GOOD, run.status
                first = None
                for r, cand in enumerate(run.round_candidates, start=1):
                    gap = restricted_gap(p, cand).value
                    # The gap is at least D_y ||A x - b||, which the
                    # residual floor of x's Krylov index bounds.
                    j = krylov_index((cand[0], np.zeros(b.size)), b)
                    bound = p.D_y * math.sqrt(
                        2.0 * residual_floor(1.0, 1.0, k, j))
                    assert gap >= bound * (1.0 - 1e-9), (k, r, gap, bound)
                    if gap <= eps:
                        first = r
                        break
                assert first is not None, "run never reached the target"
                assert first >= floor, (k, first)
    finally:
        _HARD.clear()          # the k = 200 full ledgers hold about 57 MB


@criterion(10, "decoupled VIP runs finish within 2 + sum 2 Lij Di Dj / eps "
               "rounds on the three-agent grid")
def test_criterion_10_vip_round_bound():
    rng = np.random.default_rng(11)
    for s in COUPLINGS:
        vp = skew_polymatrix(s, rng, K=3)
        cross = sum(vp.L[i, j] * vp.D[i] * vp.D[j]
                    for i in range(3) for j in range(3) if i != j)
        for eps in ACCURACIES:
            res = decoupled_vi_run(vp, DecoupledParams(epsilon=eps))
            assert res.status in _GOOD, (s, eps, res.status)
            assert res.gap.value <= eps + 1e-12
            assert res.rounds <= 2.0 + 2.0 * cross / eps + 1e-9, (s, eps)


@criterion(11, "extragradient fits its round bound; the decoupled method "
               "wins whenever smoothness dominates coupling")
def test_criterion_11_eg_bound_and_ordering():
    cases = [shifted_bilinear(1.0),
             make_strongly_convex_concave(1.0, 1.0, 1.0),
             make_strongly_convex_concave(10.0, 1.0, 1.0,
                                          name="smooth_heavy")]
    for p in cases:
        for eps in (0.1, 0.05):
            res = extragradient_run(p, ExtragradientParams(epsilon=eps))
            bound = complexity_bounds(p, eps).eg_comm
            literal = (2.0 * p.L_xy * p.D_x * p.D_y
                       + p.L_x * p.D_x ** 2 + p.L_y * p.D_y ** 2) / eps
            assert np.isclose(bound, literal)
            assert res.status == "converged", (p.name, eps)
            assert res.rounds <= bound + 1e-9, (p.name, eps, res.rounds)

    heavy = cases[2]
    assert (heavy.L_x * heavy.D_x ** 2 + heavy.L_y * heavy.D_y ** 2
            >= 5.0 * heavy.L_xy * heavy.D_x * heavy.D_y)
    eg = extragradient_run(heavy, ExtragradientParams(epsilon=0.1))
    dm = decoupled_saddle_run(heavy, DecoupledParams(epsilon=0.1))
    assert eg.status == "converged" and dm.status in _GOOD
    assert dm.rounds < eg.rounds, (dm.rounds, eg.rounds)


@criterion(12, "local gradient descent-ascent contracts on weak coupling "
               "and raises the divergence flag on strong coupling")
def test_criterion_12_local_gda():
    weak = make_strongly_convex_concave(1.0, 1.0, 0.1)
    res = local_gda_run(weak, LocalGdaParams(epsilon=1e-7, eta_x=0.5,
                                             eta_y=0.5, max_rounds=40),
                        ledger=_full_ledger(weak))
    dists = [math.hypot(np.linalg.norm(weak.x0), np.linalg.norm(weak.y0))]
    for cand in res.round_candidates:
        dists.append(math.hypot(np.linalg.norm(cand[0]),
                                np.linalg.norm(cand[1])))
    assert len(dists) >= 6, "too few rounds to measure contraction"
    ratios = [b / a for a, b in zip(dists, dists[1:])]
    assert max(ratios) <= 0.9, max(ratios)

    strong = make_strongly_convex_concave(1.0, 1.0, 2.0)
    res = local_gda_run(strong, LocalGdaParams(epsilon=1e-7, eta_x=0.5,
                                               eta_y=0.5))
    assert res.status == "diverged"
