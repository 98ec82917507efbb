import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddlesplit.evaluation import (
    GapResult, GapTest, complexity_bounds, restricted_gap, theta_factor,
)
from saddlesplit.metrics import ScaledMetric
from saddlesplit.problems import (
    BallIndicator, BoxIndicator, QuadraticReg, SaddleProblem, TripletMatrix,
    ZeroTerm, ball_project, make_bilinear, make_quadratic,
    make_strongly_convex_concave, random_polymatrix,
)


# -- restricted gap ---------------------------------------------------------

def test_quadratic_gap_frozen():
    p = make_quadratic(np.array([[1.0]]), np.array([1.0]), side="x")
    g = restricted_gap(p, (np.array([0.0]), np.zeros(1)))
    assert g.exact
    assert g.value == pytest.approx(0.5, abs=1e-12)


def test_bilinear_gap_frozen():
    p = make_bilinear(np.array([[1.0]]), np.zeros(1))
    g = restricted_gap(p, (np.array([0.5]), np.array([0.3])))
    assert g.exact
    # D_y|xbar| + D_x|ybar| with b = 0
    assert g.value == pytest.approx(0.8, abs=1e-12)


def test_gap_zero_at_saddle():
    A = np.array([[1.0, 0.5], [0.0, 1.0]])
    b = np.array([0.3, -0.2])
    p = make_bilinear(A, b)
    assert p.saddle is not None
    g = restricted_gap(p, p.saddle)
    assert abs(g.value) <= 1e-9

    q = make_quadratic(A, b, side="x")
    gq = restricted_gap(q, q.saddle)
    assert abs(gq.value) <= 1e-9


def test_gap_nonnegative_feasible():
    rng = np.random.default_rng(2)
    for p, draws in (
            (make_bilinear(rng.standard_normal((3, 2)),
                           rng.standard_normal(3)), 10),
            (make_bilinear(np.array([[1.0, 0.3], [0.0, 0.8]]),
                           np.array([0.2, -0.1])), 25)):
        for _ in range(draws):
            x = rng.standard_normal(p.nx)
            x *= min(1.0, p.D_x / np.linalg.norm(x))
            y = rng.standard_normal(p.ny)
            y *= min(1.0, p.D_y / np.linalg.norm(y))
            assert restricted_gap(p, (x, y)).value >= -1e-10


def test_estimator_agrees_with_closed_form():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3, 3))
    p = make_bilinear(A, rng.standard_normal(3))
    cand = (0.4 * rng.standard_normal(3), 0.4 * rng.standard_normal(3))
    exact = restricted_gap(p, cand)
    # Route through the generic estimator by hiding the structure tag.
    q = make_bilinear(A, p.structure["b"])
    q.structure = None
    est = restricted_gap(q, cand)
    assert not est.exact
    assert est.value == pytest.approx(exact.value, rel=1e-4)


def test_scsc_gap_estimate_at_saddle():
    p = make_strongly_convex_concave(1.0, 2.0, 0.5, n=2)
    g = restricted_gap(p, (np.zeros(2), np.zeros(2)))
    assert not g.exact
    assert abs(g.value) <= 1e-9


def test_vip_gap_zero_at_solution_and_positive_away():
    rng = np.random.default_rng(9)
    p = random_polymatrix(3, [2, 2, 2], rng, coupling=1.0, diag=0.4)
    g0 = restricted_gap(p, p.solution)
    assert abs(g0.value) <= 1e-8
    z = [0.5 * np.ones(2) for _ in range(3)]
    g1 = restricted_gap(p, z)
    assert g1.value >= -1e-10


# -- theta ------------------------------------------------------------------

def test_theta_frozen_values():
    assert theta_factor(1.0, 1.0, 3.0, 3.0) == pytest.approx(2.0)
    assert theta_factor(2.0, 0.5, 2.0, 0.5) == pytest.approx(2.0)
    assert theta_factor(1.0, 1.0, 2.0, 1.0) == pytest.approx(2.5)
    assert theta_factor(1.0, 1.0, 4.0, 1.0) == pytest.approx(4.25)
    with pytest.raises(ValueError):
        theta_factor(1.0, 0.0, 1.0, 1.0)


def test_theta_at_least_two():
    rng = np.random.default_rng(1)
    for _ in range(50):
        D = rng.uniform(0.1, 5.0, 2)
        Dh = D * rng.uniform(1.0, 10.0, 2)
        assert theta_factor(D[0], D[1], Dh[0], Dh[1]) >= 2.0 - 1e-12


# -- bounds -----------------------------------------------------------------

def test_bounds_frozen_values():
    p = make_bilinear(np.array([[1.0]]))
    r = complexity_bounds(p, 0.1)
    assert r.dmsp_comm == pytest.approx(42.0)
    assert r.lower_comm == pytest.approx(2.0 / 0.3 - 2.0)
    assert r.theta == pytest.approx(2.0)


def test_eg_bound_frozen():
    p = make_strongly_convex_concave(10.0, 1e-12, 1.0, n=1)
    # declared L_x = 10, L_y ~ 0, L_xy = 1, D = 1
    p.L_y = 0.0
    r = complexity_bounds(p, 0.1)
    assert r.eg_comm == pytest.approx(120.0)
    assert r.eg_oracle == pytest.approx(240.0)


def test_bounds_ordering_and_signs():
    rng = np.random.default_rng(4)
    for _ in range(25):
        p = make_bilinear(rng.standard_normal((2, 2)), rng.standard_normal(2),
                          D_x=rng.uniform(0.2, 3), D_y=rng.uniform(0.2, 3))
        eps = rng.uniform(0.01, 1.0)
        r = complexity_bounds(p, eps)
        vals = r.as_dict()
        assert all(np.isfinite(v) and v >= 0 for k, v in vals.items()
                   if not isinstance(v, list))
        assert r.dmsp_comm >= r.lower_comm


def test_vip_bounds_terms():
    rng = np.random.default_rng(3)
    p = random_polymatrix(3, [2, 2, 2], rng, coupling=1.0)
    r = complexity_bounds(p, 0.5)
    K = 3
    cross = sum(p.L[i, j] * p.D[i] * p.D[j]
                for i in range(K) for j in range(K) if i != j)
    assert r.dmvip_comm == pytest.approx(2.0 + 2.0 * cross / 0.5)
    for i in range(K):
        Ai = p.D[i] * sum(p.L[i, j] * p.D[j] for j in range(K) if j != i)
        assert r.A_terms[i] == pytest.approx(Ai)
        assert r.B_terms[i] == pytest.approx(p.L[i, i] * p.D[i] ** 2)


def test_bounds_bad_eps():
    p = make_bilinear(np.array([[1.0]]))
    with pytest.raises(ValueError):
        complexity_bounds(p, 0.0)


def test_vip_gap_builds_constants_once(monkeypatch):
    from saddlesplit import evaluation
    rng = np.random.default_rng(9)
    p = random_polymatrix(3, [2, 2, 2], rng, coupling=1.0, diag=0.4)
    dense_norm = evaluation.spectral_norm
    calls = []

    def counted(A):
        calls.append(A.shape)
        return dense_norm(A)

    monkeypatch.setattr(evaluation, "spectral_norm", counted)
    first = restricted_gap(p, [0.5 * np.ones(2) for _ in range(3)])
    second = restricted_gap(p, [0.5 * np.ones(2) for _ in range(3)])
    assert calls == [(6, 6)]
    assert first == second


# -- default-ball test of the quadratic closed form --------------------------

def _quadratic_with_inner_minimiser():
    # ws = (0.3, -0.4) solves A x = b and lies in the default unit ball.
    A = np.array([[2.0, 0.0], [0.0, 1.0]])
    return make_quadratic(A, A @ np.array([0.3, -0.4]), side="x")


def test_explicit_domain_excluding_minimiser_is_estimated():
    p = _quadratic_with_inner_minimiser()
    cand = (np.array([0.1, 0.2]), np.zeros(1))
    default = restricted_gap(p, cand)
    assert default.exact
    # A ball around (2, 2) of radius 0.5 excludes ws: the closed form no
    # longer applies, although the copy shares the original's structure.
    far = dataclasses.replace(p, x0=np.array([2.0, 2.0]), D_x=0.5)
    g = restricted_gap(far, cand)
    assert not g.exact and g.method == "pga-estimate"
    assert restricted_gap(p, cand) == default
    # Neither a gap nor a stop test keeps anything on a saddle instance.
    for q in (make_bilinear(np.array([[1.0, 0.5], [0.0, 2.0]])), p,
              make_strongly_convex_concave(1.0, 1.0, 1.0, n=2)):
        keys = set(q.structure)
        walk = list(_bilinear_walk(q, steps=5))
        restricted_gap(q, walk[0])
        test = GapTest(q, 1e-9)
        assert not any(test(c) for c in walk)
        assert test.finish(walk[-1], "budget_exhausted") is not None
        assert set(q.structure) == keys


def test_explicit_domain_containing_minimiser_matches_default():
    p = _quadratic_with_inner_minimiser()
    cand = (np.array([0.1, 0.2]), np.zeros(1))
    default = restricted_gap(p, cand)
    near = dataclasses.replace(p, x0=np.zeros(2), D_x=1.0)
    assert restricted_gap(near, cand) == default
    assert default.exact


def test_default_ball_test_follows_edited_instance():
    # A copy with a start point far from ws shares the structure dict but
    # not the cached answer.
    p = _quadratic_with_inner_minimiser()
    cand = (np.array([0.1, 0.2]), np.zeros(1))
    assert restricted_gap(p, cand).exact
    moved = dataclasses.replace(p, x0=np.array([5.0, 5.0]))
    assert not restricted_gap(moved, cand).exact
    assert restricted_gap(p, cand).exact


# -- the gap set B ∩ dom psi -------------------------------------------------

def test_binding_ball_term_leaves_quadratic_to_the_estimator():
    # psi_x's ball of radius 0.1 around the start excludes ws = (0.3, -0.4),
    # so the closed form, 0.2132 here, no longer gives the gap.
    p = dataclasses.replace(_quadratic_with_inner_minimiser(),
                            psi_x=BallIndicator(np.zeros(2), 0.1))
    xbar = np.array([0.05, 0.02])
    g = restricted_gap(p, (xbar, np.zeros(1)))
    # f is convex with its minimiser outside the ball, so its minimum over
    # the ball lies on the boundary circle.
    A, b = np.diag([2.0, 1.0]), p.structure["b"]
    t = np.linspace(0.0, 2.0 * np.pi, 400001)
    circle = 0.1 * np.stack([np.cos(t), np.sin(t)])
    brute = 0.5 * (np.sum((A @ xbar - b) ** 2)
                   - np.min(np.sum((A @ circle - b[:, None]) ** 2, axis=0)))
    assert brute == pytest.approx(0.0615824, abs=1e-7)
    assert not g.exact
    assert abs(g.value - brute) <= 1e-6


def test_box_term_gives_a_closed_form_upper_bound():
    p = make_bilinear(np.array([[1.0, 0.5], [-0.4, 1.0]]),
                      np.array([0.2, -0.3]))
    p = dataclasses.replace(p, psi_x=BoxIndicator([-0.3, -0.2], [0.3, 0.4]))
    xbar, ybar = np.array([0.1, 0.2]), np.array([0.3, -0.2])
    g = restricted_gap(p, (xbar, ybar))
    assert not g.exact and g.method == "bilinear-closed-form"
    # A candidate outside the box is outside dom psi: not scored.
    with pytest.raises(ValueError, match="outside dom psi"):
        restricted_gap(p, (np.array([0.5, 0.2]), ybar))
    # Dense sup over B ∩ dom psi of f(xbar, y) - f(x, ybar), with
    # f(x, y) = <y, A x - b>: y in the unit disc, x in the box within it.
    A, b = np.asarray(p.structure["A"]), p.structure["b"]
    u = np.linspace(-1.0, 1.0, 801)
    disc = np.stack([m.ravel() for m in np.meshgrid(u, u)])
    disc = disc[:, np.sum(disc * disc, axis=0) <= 1.0]
    box = (disc[0] >= -0.3) & (disc[0] <= 0.3) & (disc[1] >= -0.2) \
        & (disc[1] <= 0.4)
    brute = (np.max((A @ xbar - b) @ disc)
             - np.min(ybar @ (A @ disc[:, box]) - b @ ybar))
    assert g.value >= brute


def test_ball_term_off_the_start_point_is_not_merged():
    p = make_bilinear(np.array([[1.0, 0.5], [0.0, 2.0]]),
                      np.array([0.1, 0.2]))
    p = dataclasses.replace(p, x0=np.array([1.0, 1.0]))
    cand = (np.array([1.1, 0.9]), np.array([0.1, -0.1]))
    plain = restricted_gap(p, cand)
    # A center 1e-6 off, relative: left over, so the closed form keeps the
    # unit ball and is an upper bound.
    off = dataclasses.replace(
        p, psi_x=BallIndicator(p.x0 * (1.0 + 1e-6), 0.5))
    g = restricted_gap(off, cand)
    assert plain.exact and not g.exact
    assert g.value == plain.value
    # Centred on the start point: merged, and exact over the smaller ball.
    on = dataclasses.replace(p, psi_x=BallIndicator(p.x0, 0.5))
    assert restricted_gap(on, cand) == restricted_gap(
        dataclasses.replace(p, D_x=0.5), cand)


# -- certified stop test -----------------------------------------------------

def _random_matrix(rng, m, n, triplets):
    """A dense Gaussian matrix, or a sparse one kept as triplets."""
    if not triplets:
        return rng.standard_normal((m, n))
    # At most one nonzero in 64 entries keeps the triplet products.
    flat = np.sort(rng.choice(m * n, size=(m * n) // 64, replace=False))
    return TripletMatrix((m, n), flat // n, flat % n,
                         rng.standard_normal(flat.size))


def _stop_test_instance(rng, kind, triplets, moved_ball):
    """A closed-form instance with non-unit diagonal metrics.

    The right-hand side is consistent, so the walk target (the saddle)
    has gap zero and the walks cross every epsilon.
    """
    m, n = (40, 30) if triplets else (6, 4)
    A = _random_matrix(rng, m, n, triplets)
    # Norm 0.3: inside the default unit ball for metric weights up to 5.
    x_true = rng.standard_normal(n)
    x_true *= 0.3 / np.linalg.norm(x_true)
    b = np.asarray(A) @ x_true
    if kind == "bilinear":
        p = make_bilinear(A, b, D_x=2.0, D_y=0.5)
    else:
        p = make_quadratic(A, b, side=kind[-1], other_dim=3)
    p = dataclasses.replace(
        p, metric_x=ScaledMetric(rng.uniform(0.2, 5.0, p.nx)),
        metric_y=ScaledMetric(rng.uniform(0.2, 5.0, p.ny)))
    if moved_ball:
        # Start points near the saddle, with radii that still contain it.
        centers, radii = [], []
        for ws, metric in zip(p.saddle, (p.metric_x, p.metric_y)):
            c = ws + 0.2 * rng.standard_normal(ws.size)
            centers.append(c)
            radii.append(metric.norm(ws - c) + rng.uniform(0.1, 2.0))
        p = dataclasses.replace(p, x0=centers[0], y0=centers[1],
                                D_x=radii[0], D_y=radii[1])
    return p


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["bilinear", "quadratic_x", "quadratic_y"]),
       triplets=st.booleans(), moved_ball=st.booleans(),
       eps_share=st.floats(1e-4, 0.9), log_pull=st.floats(-3.0, -0.5),
       log_noise=st.floats(-4.0, -0.3))
def test_gap_test_skips_only_candidates_above_epsilon(
        seed, kind, triplets, moved_ball, eps_share, log_pull,
        log_noise):
    rng = np.random.default_rng(seed)
    p = _stop_test_instance(rng, kind, triplets, moved_ball)
    start = tuple(ws + rng.standard_normal(ws.size) for ws in p.saddle)
    first = restricted_gap(p, start)
    assert first.exact
    eps = eps_share * first.value
    evaluated = []

    def spy(problem, candidate):
        evaluated.append(candidate)
        return restricted_gap(problem, candidate)

    test = GapTest(p, eps, spy)
    c, pull, noise = start, 10.0 ** log_pull, 10.0 ** log_noise
    for _ in range(40):
        want = restricted_gap(p, c)
        before = len(evaluated)
        assert test(c) == (want.value <= eps)
        if len(evaluated) == before and not (evaluated and evaluated[-1] is c):
            assert want.value > eps         # skipped, not a repeat
        # A pull towards the saddle plus shrinking noise, at scales from
        # steps the bound rules out for many rounds to steps it never
        # does; now and then the candidate repeats.
        if rng.random() < 0.9:
            c = tuple(ci + pull * (ws - ci) + noise * rng.standard_normal(ci.size)
                      for ci, ws in zip(c, p.saddle))
            noise *= 0.9
    want = restricted_gap(p, c)
    assert test.gap(c).value.hex() == want.value.hex()


def _logcosh_saddle(rng, n):
    """A convex-concave saddle that is not quadratic, with identity metrics.

    ``f(x, y) = phi(x - a) - phi(y - b) + c <x - a, y - b>`` with
    ``phi(u) = sum log cosh u_i``, whose gradient ``tanh`` is
    1-Lipschitz.  The saddle ``(a, b)`` lies in the unit balls around the
    start point, the origin.
    """
    a, b = (0.6 * rng.uniform(-1.0, 1.0, n) / np.sqrt(n) for _ in range(2))
    c = rng.uniform(0.0, 2.0)

    def phi(u):
        return float(np.sum(np.logaddexp(u, -u)) - u.size * np.log(2.0))

    def grad_x(z):
        return np.tanh(z[0] - a) + c * (z[1] - b)

    def grad_y(z):
        return -np.tanh(z[1] - b) + c * (z[0] - a)

    def f_value(z):
        return (phi(z[0] - a) - phi(z[1] - b)
                + c * float((z[0] - a) @ (z[1] - b)))

    return SaddleProblem(
        grad_x=grad_x, grad_y=grad_y, psi_x=ZeroTerm(), psi_y=ZeroTerm(),
        x0=np.zeros(n), y0=np.zeros(n), L_x=1.0, L_y=1.0, L_xy=c,
        D_x=1.0, D_y=1.0, saddle=(a, b), f_value=f_value, name="logcosh")


def _in_domain(p, c):
    return tuple(psi.project_domain(m, w) for psi, m, w
                 in zip((p.psi_x, p.psi_y), (p.metric_x, p.metric_y), c))


def _estimated_instance(rng, kind):
    """An instance with an estimated gap and identity metrics, the start of
    a walk of candidates in dom psi, and the point the walk heads for."""
    n = int(rng.integers(1, 5))
    if kind == "quadratic_x":
        A = rng.standard_normal((n + 2, n))
        x_true = rng.standard_normal(n)
        p = make_quadratic(A, A @ x_true, side="x", other_dim=2)
        # The unit ball around x0 excludes the minimiser x_true; the walk
        # starts on its far side and heads for the minimiser over the ball.
        d = rng.standard_normal(n)
        d /= np.linalg.norm(d)
        p = dataclasses.replace(p, x0=x_true + rng.uniform(1.2, 3.0) * d)
        x, step = p.x0.copy(), 1.0 / p.L_x
        for _ in range(2000):
            x = ball_project(p.metric_x, p.x0, p.D_x,
                             x - step * p.grad_x((x, p.y0)))
        return p, (p.x0 + d, rng.standard_normal(2)), (x, p.y0)
    if kind == "logcosh":
        p = _logcosh_saddle(rng, n)
    else:
        p = make_strongly_convex_concave(
            rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0),
            rng.uniform(0.0, 3.0), n=n)
    if kind == "scsc_ball":
        # Start points near the saddle, larger diameters, and concentric
        # ball terms that still contain the saddle.
        x0, y0 = (0.3 * rng.standard_normal(n) for _ in range(2))
        p = dataclasses.replace(
            p, x0=x0, y0=y0, D_x=2.0, D_y=2.0,
            psi_x=BallIndicator(x0, np.linalg.norm(x0) + rng.uniform(0.05, 1.0)),
            psi_y=BallIndicator(y0, np.linalg.norm(y0) + rng.uniform(0.05, 1.0)))
    start = _in_domain(p, tuple(w + 3.0 * rng.standard_normal(n)
                                for w in p.saddle))
    return p, start, p.saddle


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["scsc", "scsc_ball", "quadratic_x", "logcosh"]),
       eps_share=st.floats(1e-3, 0.2), log_pull=st.floats(-1.0, -0.3),
       log_noise=st.floats(-4.0, -1.0))
def test_gap_test_skips_only_estimates_above_epsilon(
        seed, kind, eps_share, log_pull, log_noise):
    rng = np.random.default_rng(seed)
    p, start, target = _estimated_instance(rng, kind)
    first = restricted_gap(p, start)
    assert first.method == "pga-estimate" and first.value > 0.0
    eps = eps_share * first.value
    evaluated = []

    def spy(problem, candidate):
        result = restricted_gap(problem, candidate)
        evaluated.append((candidate, result))
        return result

    test = GapTest(p, eps, spy)
    c, pull, noise = start, 10.0 ** log_pull, 10.0 ** log_noise
    skips = 0
    for _ in range(12):
        before = len(evaluated)
        decision = test(c)
        if len(evaluated) > before:
            assert evaluated[-1][0] is c
            want = evaluated[-1][1]
        else:
            want = restricted_gap(p, c)
            if not (evaluated and evaluated[-1][0] is c):
                skips += 1                  # skipped, not a repeat
                assert want.value > eps
        assert decision == (want.value <= eps)
        # A pull towards the target plus shrinking noise, kept in dom
        # psi; now and then the candidate repeats.
        if rng.random() < 0.9:
            c = _in_domain(p, tuple(
                ci + pull * (wi - ci) + noise * rng.standard_normal(ci.size)
                for ci, wi in zip(c, target)))
            noise *= 0.9
    assert skips >= 1
    assert test.gap(c).value.hex() == restricted_gap(p, c).value.hex()


def test_armed_gap_test_rejects_candidates_outside_dom_psi():
    p = make_strongly_convex_concave(1.0, 1.0, 1.0, n=2, D_x=2.0)
    p = dataclasses.replace(p, psi_x=BallIndicator(p.x0, 0.5))
    calls = []

    def spy(problem, candidate):
        calls.append(candidate)
        return restricted_gap(problem, candidate)

    test = GapTest(p, 1e-9, spy)
    assert not test((p.x0 + 0.1, p.y0))      # evaluated: arms the bound
    assert not test((p.x0 + 0.2, p.y0))      # ruled out by the bound
    assert len(calls) == 1
    with pytest.raises(ValueError, match="outside dom psi"):
        test((p.x0 + 1.0, p.y0))
    assert len(calls) == 1


def _bilinear_walk(p, steps=60):
    c = (np.ones(p.nx), np.ones(p.ny))
    for k in range(steps):
        yield c
        c = (c[0] * 0.999, c[1] * 0.999)


def test_gap_test_skips_near_candidates_and_reports_exact_gaps():
    p = make_bilinear(np.array([[1.0, 0.5], [0.0, 2.0]]), np.array([0.1, 0.2]))
    calls = []

    def spy(problem, candidate):
        calls.append(candidate)
        return restricted_gap(problem, candidate)

    test = GapTest(p, 1e-3, spy)
    walk = list(_bilinear_walk(p))
    assert not any(test(c) for c in walk)
    assert len(calls) < len(walk) // 4
    # The last scored candidate is evaluated on request, once.
    assert test.gap() == restricted_gap(p, walk[-1])
    assert test.gap() == restricted_gap(p, walk[-1])
    assert calls[-1] is walk[-1]
    assert sum(c is walk[-1] for c in calls) == 1


def test_gap_test_evaluates_estimated_kinds_and_vis_every_time(monkeypatch):
    # The estimates no bound rules out: a VI, a bilinear with a
    # non-indicator psi left over (a closed-form kind whose closed form
    # does not apply), an scsc under non-identity metrics, and an scsc
    # scored by a gap function that does not return estimates.
    from saddlesplit import evaluation
    poly = random_polymatrix(2, [2, 2], np.random.default_rng(3))
    reg = dataclasses.replace(
        make_bilinear(np.array([[1.0, 0.5], [0.0, 2.0]])),
        psi_x=QuadraticReg(0.5, np.zeros(2)))
    scsc = make_strongly_convex_concave(1.0, 1.0, 1.0, n=2)
    scaled = dataclasses.replace(scsc, metric_x=ScaledMetric([1.0, 2.0]))

    def stub(problem, candidate):
        return GapResult(1.0, False, "stub")

    # No Lipschitz anchor is built for any of them.
    monkeypatch.setattr(evaluation, "_norm_bound", None)
    pairs = [(0.9 * k * np.ones(2), np.ones(2)) for k in range(5)]
    for p, evaluate, walk in (
            (poly, restricted_gap, [list(c) for c in pairs]),
            (reg, restricted_gap, pairs), (scaled, restricted_gap, pairs),
            (scsc, stub, pairs)):
        calls = []

        def spy(problem, candidate):
            calls.append(candidate)
            return evaluate(problem, candidate)

        test = GapTest(p, 1e-9, spy)
        for c in walk:
            assert not test(c)
        assert len(calls) == len(walk)
        assert all(a is b for a, b in zip(calls, walk))


def test_gap_test_ignores_evaluations_other_than_its_closed_form():
    # A gap function that is not the closed form (here, a stub) gives no
    # anchor: every scored candidate is evaluated.
    p = make_bilinear(np.array([[1.0]]), np.array([0.5]))
    calls = []

    def stub(problem, candidate):
        calls.append(candidate)
        return GapResult(10.0, False, "stub")

    test = GapTest(p, 0.1, stub)
    walk = list(_bilinear_walk(p, steps=5))
    assert not any(test(c) for c in walk)
    assert len(calls) == len(walk)
    assert all(a is b for a, b in zip(calls, walk))
    assert test.gap() == GapResult(10.0, False, "stub") and len(calls) == 5
    assert GapTest(p, 0.1).gap() is None


@pytest.mark.parametrize("triplets", [False, True])
def test_norm_bound_is_an_upper_bound(triplets):
    from saddlesplit.evaluation import _norm_bound
    rng = np.random.default_rng(4)
    for _ in range(20):
        A = _random_matrix(rng, 40, 30, triplets)
        r, c = rng.uniform(0.1, 3.0, 40), rng.uniform(0.1, 3.0, 30)
        dense = np.asarray(A)
        for rs, cs in ((None, None), (r, None), (None, c), (r, c)):
            M = dense * (1.0 if rs is None else rs[:, None]) \
                * (1.0 if cs is None else cs)
            assert _norm_bound(A, rs, cs) >= np.linalg.norm(M, 2)
