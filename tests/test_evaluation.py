import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddlesplit.evaluation import (
    GapBlock, GapResult, GapTest, complexity_bounds, restricted_gap,
    solver_bounds, theta_factor,
)
from saddlesplit.metrics import ScaledMetric
from saddlesplit.problems import (
    BallIndicator, BoxIndicator, QuadraticReg, RegularizedTerm, SaddleProblem,
    TripletMatrix, ZeroTerm, ball_project, make_bilinear, make_quadratic,
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
    p = random_polymatrix([2, 2, 2], rng, coupling=1.0, diag=0.4)
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
    # L = D = 1: (2/9)/eps - 4/3.
    assert r.lower_oracle == pytest.approx(8.0 / 9.0)
    assert set(r.as_dict()) == {"theta", "dmsp_comm", "dmsp_oracle",
                                "eg_comm", "eg_oracle", "lower_comm",
                                "lower_oracle"}


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
        assert all(np.isfinite(v) and v >= 0 for v in r.as_dict().values())
        assert r.dmsp_comm >= r.lower_comm


def test_vip_bounds_terms():
    rng = np.random.default_rng(3)
    p = random_polymatrix([2, 2, 2], rng, coupling=1.0)
    r = complexity_bounds(p, 0.5)
    K = 3
    cross = sum(p.L[i, j] * p.D[i] * p.D[j]
                for i in range(K) for j in range(K) if i != j)
    assert r.dmvip_comm == 2.0 + 2.0 * float(cross) / 0.5
    # Extragradient's scalings count the diagonal too.
    own = sum(p.L[i, j] * p.D[i] * p.D[j] for i in range(K) for j in range(K))
    assert r.eg_comm == pytest.approx(own / 0.5, rel=1e-14)
    assert r.eg_oracle == pytest.approx(3.0 * own / 0.5, rel=1e-14)
    assert set(r.as_dict()) == {"dmvip_comm", "eg_comm", "eg_oracle"}


@pytest.mark.parametrize("d_hat", [None, (3.0, 0.3)])
def test_two_block_vi_bounds_are_the_saddle_bounds(d_hat):
    # sum_i alpha_i D_i^2 is theta L_xy D_x D_y + L_x D_x^2 + L_y D_y^2 at
    # extragradient's scalings, and theta L_xy D_x D_y at the cross ones.
    vi = random_polymatrix([2, 3], np.random.default_rng(5), diag=0.7,
                           D=[0.5, 2.0])
    (L_x, L_xy), (_, L_y) = vi.L
    saddle = dataclasses.replace(
        make_strongly_convex_concave(1.0, 1.0, 1.0), L_x=L_x, L_y=L_y,
        L_xy=L_xy, D_x=0.5, D_y=2.0)
    v, s = (complexity_bounds(p, 0.1, d_hat=d_hat) for p in (vi, saddle))
    assert v.eg_comm == pytest.approx(s.eg_comm, rel=1e-14)
    assert v.eg_oracle == pytest.approx(s.eg_oracle, rel=1e-14)
    assert v.dmvip_comm == pytest.approx(s.dmsp_comm, rel=1e-14)


def test_bounds_bad_eps():
    p = make_bilinear(np.array([[1.0]]))
    with pytest.raises(ValueError):
        complexity_bounds(p, 0.0)


@pytest.mark.parametrize("solver", ["decoupled", "extragradient",
                                    "local_gda"])
def test_solver_bounds_give_each_solvers_pair(solver):
    # The pair a decoupled cap and `run --check-bounds` both read: the
    # saddle entries at the solver's d_hat, the VI's round bound for the
    # decoupled solver and its pair for extragradient, and none for local
    # GDA.
    saddle = make_strongly_convex_concave(1.0, 2.0, 0.5, D_x=2.0)
    vi = random_polymatrix([2, 2], np.random.default_rng(3))
    r = complexity_bounds(saddle, 0.1, d_hat=(1.0, 3.0))
    want = {"decoupled": (r.dmsp_comm, r.dmsp_oracle),
            "extragradient": (r.eg_comm, r.eg_oracle),
            "local_gda": (None, None)}[solver]
    assert solver_bounds(saddle, solver, 0.1, (1.0, 3.0)) == want
    assert solver_bounds(saddle, solver, 0.1) == solver_bounds(
        saddle, solver, 0.1, saddle.D)
    v = complexity_bounds(vi, 0.1)
    assert solver_bounds(vi, solver, 0.1) == {
        "decoupled": (v.dmvip_comm, None),
        "extragradient": (v.eg_comm, v.eg_oracle),
        "local_gda": (None, None)}[solver]
    if solver != "local_gda":
        with pytest.raises(ValueError, match="accuracy"):
            solver_bounds(saddle, solver, 0.0)


def test_vip_gap_builds_constants_once(monkeypatch):
    from saddlesplit import evaluation
    rng = np.random.default_rng(9)
    p = random_polymatrix([2, 2, 2], rng, coupling=1.0, diag=0.4)
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


_CENTER = np.array([1.0, -2.0])


@pytest.mark.parametrize("psi, radius, left, indicator", [
    (ZeroTerm(), 1.0, False, True),
    (BallIndicator(_CENTER, 0.5), 0.5, False, True),
    (BallIndicator(_CENTER, 2.0), 1.0, False, True),
    (BallIndicator(_CENTER + 5e-13, 0.5), 0.5, False, True),
    (BallIndicator(_CENTER + 2e-12, 0.5), 1.0, True, True),
    (BallIndicator(_CENTER * (1.0 + 1e-6), 0.5), 1.0, True, True),
    (BoxIndicator([0.0, -3.0], [2.0, -1.5]), 1.0, True, True),
    (QuadraticReg(0.5, _CENTER), 1.0, True, False),
    (RegularizedTerm(QuadraticReg(0.5, _CENTER), BallIndicator(_CENTER, 0.5)),
     1.0, True, False),
], ids=["zero", "concentric", "concentric-wide", "concentric-to-1e-12",
        "off-by-2e-12", "off-by-1e-6-relative", "box", "quadratic",
        "regularized"])
def test_each_psi_says_how_it_meets_the_ball(psi, radius, left, indicator):
    # A unit ball around _CENTER: a ball term whose center is within 1e-12
    # (absolute) of it merges and leaves nothing over; the zero term leaves
    # nothing; every other term is left over whole.  Only the quadratic
    # and regularized terms are not indicators.
    assert psi.meet_ball(_CENTER, 1.0) == (radius, psi if left else None)
    assert psi.indicator is indicator
    block = GapBlock(ScaledMetric([2.0, 0.5]), list(_CENTER), 1, psi)
    assert np.array_equal(block.center, _CENTER)
    assert block.center.dtype == float
    assert (block.radius, block.psi_left) == (radius, psi if left else None)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP items 6 and 7: GapBlock.project projects onto the ball, then "
    "onto dom psi_left, which can leave the ball when dom psi_left does "
    "not hold its center"))
def test_gap_block_project_stays_in_the_ball_off_a_center_missing_box():
    # The box x >= 0.9 meets the unit ball around 0 but misses its center:
    # the ball step gives (0.243, 0.970), the box step (0.9, 0.970), at
    # metric norm 1.323.
    block = GapBlock(ScaledMetric(2), np.zeros(2), 1.0,
                     BoxIndicator([0.9, -np.inf], [np.inf, np.inf]))
    w = block.project(np.array([0.5, 2.0]))
    assert block.psi_left.contains(block.metric, w)
    assert block.in_ball(w)


def _sampled_ball(metric, center, radius, angles, rings):
    """A dense polar sample of the metric ball, boundary included."""
    t = np.linspace(0.0, 2.0 * np.pi, angles)
    rho = np.linspace(0.0, 1.0, rings)
    unit = np.stack([np.cos(t), np.sin(t)])
    points = (rho[:, None, None] * unit[None]).transpose(1, 0, 2)
    points = points.reshape(2, -1) / np.sqrt(metric.weights)[:, None]
    return center[:, None] + radius * points


@pytest.mark.parametrize("weights", [[1.0, 1.0], [2.0, 0.5], [10.0, 0.1]])
def test_gap_block_support_and_maximiser_match_a_sampled_ball(weights):
    metric = ScaledMetric(weights)
    block = GapBlock(metric, _CENTER, 0.7, ZeroTerm())
    ball = _sampled_ball(metric, _CENTER, 0.7, 20001, 11)
    rng = np.random.default_rng(5)
    for g in rng.standard_normal((6, 2)) * [[1.0], [1e-3], [1.0], [30.0],
                                            [1.0], [1.0]]:
        scale = abs(g @ _CENTER) + 0.7 * metric.dual_norm(g)
        values = g @ ball
        best = np.max(values)
        # Attained, and not beaten by any sampled point.
        assert best <= block.support(g) + 1e-12 * scale
        assert best >= block.support(g) - 1e-7 * scale
        w = block.maximiser(g)
        assert metric.norm(w - _CENTER) == pytest.approx(0.7, rel=1e-12)
        assert g @ w == pytest.approx(block.support(g), abs=1e-12 * scale)
        assert metric.norm(w - ball[:, np.argmax(values)]) <= 1e-3
    # A zero or non-finite gradient has no direction: the center.
    for g in (np.zeros(2), np.array([np.inf, 1.0]), np.array([np.nan, 0.0])):
        assert block.maximiser(g) is block.center


@pytest.mark.parametrize("weights", [[1.0, 1.0], [2.0, 0.5]])
@pytest.mark.parametrize("psi, exact", [
    (ZeroTerm(), True), (BallIndicator(_CENTER, 0.4), True),
    (BoxIndicator([-1.0, -4.0], [3.0, 0.0]), True),
    (BallIndicator(_CENTER + 0.1, 3.0), True),
    (BoxIndicator([0.8, -2.3], [1.5, -1.0]), False)], ids=[
    "zero", "concentric", "box-around-the-ball", "ball-around-the-ball",
    "box-cutting-the-ball"])
def test_gap_block_project_matches_the_nearest_sampled_point(weights, psi,
                                                             exact):
    # The block projects onto its ball and then onto dom psi_left: the
    # nearest point of B ∩ dom psi_left whenever dom psi_left holds the
    # ball.  A box that holds the center but cuts the ball gets only a
    # point of B ∩ box, which is all the estimator needs.
    metric = ScaledMetric(weights)
    block = GapBlock(metric, _CENTER, 0.7, psi)
    sample = _sampled_ball(metric, _CENTER, block.radius, 2001, 201)
    # dom psi_left is convex: it holds the sample if it holds the sampled
    # boundary, the last 2001 points.
    assert exact is (block.psi_left is None or all(
        block.psi_left.contains(metric, w) for w in sample[:, -2001:].T))
    rng = np.random.default_rng(6)
    # Four points near the center, four mostly outside the ball.
    for v in _CENTER + rng.standard_normal((8, 2)) * np.repeat([0.2, 1.5],
                                                               4)[:, None]:
        w = block.project(v)
        assert block.in_ball(w) and psi.value(metric, w) == 0.0
        if not exact:
            continue
        gaps = np.sqrt(np.sum(np.asarray(weights)[:, None]
                              * (sample - v[:, None]) ** 2, axis=0))
        nearest = sample[:, np.argmin(gaps)]
        assert metric.norm(w - v) <= np.min(gaps) + 1e-12
        assert metric.norm(w - nearest) <= 5e-3 * block.radius


# -- certified stop test -----------------------------------------------------

def _random_matrix(rng, m, n, triplets):
    """A dense Gaussian matrix, or a sparse one kept as triplets."""
    if not triplets:
        return rng.standard_normal((m, n))
    # At most one nonzero in 64 entries keeps the triplet products.
    flat = np.sort(rng.choice(m * n, size=(m * n) // 64, replace=False))
    return TripletMatrix((m, n), flat // n, flat % n,
                         rng.standard_normal(flat.size))


def _stop_test_instance(rng, kind, triplets, moved_ball, singular=False):
    """A closed-form instance with non-unit diagonal metrics.

    The right-hand side is consistent, so the walk target (the saddle)
    has gap zero and the walks cross every epsilon.  A `singular` dense
    instance repeats a column, so that a quadratic form has a null
    direction (`_null_direction`); a bilinear's y side and a sparse
    quadratic have one anyway.
    """
    m, n = (40, 30) if triplets else (6, 4)
    A = _random_matrix(rng, m, n, triplets)
    if singular and not triplets:
        A[:, -1] = A[:, 0]
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


def _null_direction(p):
    """``(side, u)``: a unit block direction along which the closed form of
    a `_stop_test_instance(..., singular=True)` is flat in exact arithmetic:
    ``A^T u = 0`` on a bilinear's y side (so ``<b, u> = 0``, as ``b`` is in
    the range of ``A``), ``A u = 0`` on a quadratic's active side."""
    st = p.structure
    M = np.asarray(st["A"])
    if st["kind"] == "bilinear":
        return 1, np.linalg.svd(M)[0][:, -1]
    return (0 if st["kind"] == "quadratic_x" else 1), np.linalg.svd(M)[2][-1]


def _stop_test_walk(rng, p, mode, start, pull, noise):
    """40 candidates from `start`; now and then one repeats.

    ``walk``: a pull towards the saddle plus shrinking noise, at scales
    from steps the bound rules out for many rounds to steps it never
    does.  ``near``: `start` moved by a relative 1e-16 to 1e-9, so every
    gap is about the first one.  ``far``: `start` moved by 1e6 to 1e8
    along a null direction of the form, where its terms cancel, with
    ``near`` candidates between.
    """
    c = start
    side, u = _null_direction(p) if mode == "far" else (None, None)
    for _ in range(40):
        yield c
        if rng.random() >= 0.9:
            continue
        if mode == "walk":
            c = tuple(ci + pull * (ws - ci) + noise * rng.standard_normal(ci.size)
                      for ci, ws in zip(c, p.saddle))
            noise *= 0.9
        elif mode == "far" and rng.random() < 0.7:
            c = list(start)
            c[side] = c[side] + rng.choice([-1.0, 1.0]) \
                * 10.0 ** rng.uniform(6.0, 8.0) * u
            c = tuple(c)
        else:
            c = tuple(w + 10.0 ** rng.uniform(-16.0, -9.0) * np.linalg.norm(w)
                      * rng.standard_normal(w.size) for w in start)


def _candidate_key(candidate):
    return b"".join(np.asarray(w, dtype=float).tobytes() for w in candidate)


def _outcome_key(ledger, outcome):
    if isinstance(outcome, Exception):
        return ledger.round, repr(outcome)
    gap = outcome.gap and outcome.gap.value.hex()
    return outcome.status, ledger.round, gap, _candidate_key(outcome.candidate)


def _assert_rows_evaluate_as_their_runs(p, solver, ladder):
    """Each row of one trajectory through `cli._runs` reports what its run
    alone reports, and the trajectory evaluates exactly the candidates
    that those runs evaluate."""
    from saddlesplit import baselines, cli, decoupled
    seen = set()

    def spy(problem, candidate):
        seen.add(_candidate_key(candidate))
        return restricted_gap(problem, candidate)

    def served(epsilons):
        seen.clear()
        runs = cli._runs(p, solver, epsilons, {"max_rounds": 100},
                         lambda: 0.0)
        return [_outcome_key(ledger, outcome) for ledger, outcome, _ in runs]

    # Under these metrics the decoupled method's frozen-block solves can
    # overflow and raise; such rows must raise alike, so numpy's overflow
    # warnings are silenced here.
    with pytest.MonkeyPatch.context() as patch, \
            np.errstate(over="ignore", invalid="ignore"):
        patch.setattr(decoupled if solver == "decoupled" else baselines,
                      "restricted_gap", spy)
        shared = served(ladder)
        shared_seen, own_seen = set(seen), set()
        for eps, row in zip(ladder, shared):
            assert [row] == served([eps]), eps
            own_seen |= seen
    assert shared_seen == own_seen


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["bilinear", "quadratic_x", "quadratic_y"]),
       triplets=st.booleans(), moved_ball=st.booleans(),
       mode=st.sampled_from(["walk", "near", "far"]),
       eps_share=st.floats(1e-4, 0.9), log_pull=st.floats(-3.0, -0.5),
       log_noise=st.floats(-4.0, -0.3), log_offset=st.floats(-16.0, -9.0),
       solver=st.sampled_from(["extragradient", "local_gda", "decoupled"]))
def test_gap_test_skips_only_candidates_above_epsilon(
        seed, kind, triplets, moved_ball, mode, eps_share, log_pull,
        log_noise, log_offset, solver):
    # The stop test answers every candidate of a walk as evaluating it
    # would, and skips only candidates whose computed gap is above
    # epsilon; in the ``near`` and ``far`` walks epsilon is within a
    # relative 1e-16 to 1e-9 of the first gap.  Then the tests of a ladder
    # of accuracies, one per row, evaluate what the rows' own runs do.
    rng = np.random.default_rng(seed)
    p = _stop_test_instance(rng, kind, triplets, moved_ball,
                            singular=mode == "far")
    start = tuple(ws + rng.standard_normal(ws.size) for ws in p.saddle)
    first = restricted_gap(p, start)
    assert first.exact
    eps = eps_share * first.value if mode == "walk" else \
        first.value * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** log_offset)
    evaluated = []

    def spy(problem, candidate):
        evaluated.append(candidate)
        return restricted_gap(problem, candidate)

    test = GapTest(p, eps, spy)
    for c in _stop_test_walk(rng, p, mode, start, 10.0 ** log_pull,
                             10.0 ** log_noise):
        want = restricted_gap(p, c)
        before = len(evaluated)
        assert test(c) == (want.value <= eps)
        if len(evaluated) == before and not (evaluated and evaluated[-1] is c):
            assert want.value > eps         # skipped, not a repeat
    want = restricted_gap(p, c)
    assert test.gap(c).value.hex() == want.value.hex()
    _assert_rows_evaluate_as_their_runs(
        p, solver, [share * first.value for share in (0.3, 0.1, 0.03, 0.01)])


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


@pytest.mark.parametrize("solver, rounds", [
    ("extragradient", (6, 10, 14, 20)),
    ("local_gda", (4, 5, 7, 9)),
    ("decoupled", (6, 6, 10, 14)),
])
def test_estimated_runs_evaluate_only_their_stopping_candidate(
        monkeypatch, solver, rounds):
    # The first-step bound is armed before the first candidate, so a run
    # whose every earlier candidate it rules out calls `restricted_gap`
    # once, at the candidate it stops on.
    from saddlesplit import baselines, decoupled
    module, run, params = {
        "extragradient": (baselines, baselines.extragradient_run,
                          baselines.ExtragradientParams),
        "local_gda": (baselines, baselines.local_gda_run,
                      baselines.LocalGdaParams),
        "decoupled": (decoupled, decoupled.decoupled_saddle_run,
                      decoupled.DecoupledParams),
    }[solver]
    p = make_strongly_convex_concave(1, 1, 1, n=4)
    for eps, want in zip((0.2, 0.1, 0.05, 0.02), rounds):
        calls = []

        def spy(problem, candidate):
            calls.append(candidate)
            return restricted_gap(problem, candidate)

        monkeypatch.setattr(module, "restricted_gap", spy)
        res = run(p, params(epsilon=eps))
        assert res.status == "converged" and res.rounds == want
        assert len(calls) == 1 and calls[0] is res.candidate
        assert res.gap.value.hex() == \
            restricted_gap(p, res.candidate).value.hex()


def test_armed_gap_test_rejects_candidates_outside_dom_psi():
    p = make_strongly_convex_concave(1.0, 1.0, 1.0, n=2, D_x=2.0)
    p = dataclasses.replace(p, psi_x=BallIndicator(p.x0, 0.5))
    calls = []

    def spy(problem, candidate):
        calls.append(candidate)
        return restricted_gap(problem, candidate)

    test = GapTest(p, 1e-9, spy)
    assert not test((p.x0 + 0.1, p.y0))      # ruled out by the bound
    assert calls == []
    assert test.gap().method == "pga-estimate"   # evaluated: re-arms it
    assert not test((p.x0 + 0.2, p.y0))      # ruled out again
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
    # scored by a gap function that does not return estimates.  The last
    # walk starts at the saddle, which the first-step bound cannot rule
    # out; the stub's answer there disarms the bound for the rest.
    from saddlesplit import evaluation
    poly = random_polymatrix([2, 2], np.random.default_rng(3))
    reg = dataclasses.replace(
        make_bilinear(np.array([[1.0, 0.5], [0.0, 2.0]])),
        psi_x=QuadraticReg(0.5, np.zeros(2)))
    scsc = make_strongly_convex_concave(1.0, 1.0, 1.0, n=2)
    scaled = dataclasses.replace(scsc, metric_x=ScaledMetric([1.0, 2.0]))

    def stub(problem, candidate):
        return GapResult(1.0, False, "stub")

    # No witness anchor is made for any of them.
    def no_witness(*args):
        raise AssertionError("a witness anchor was made")

    monkeypatch.setattr(evaluation, "_witness_anchor", no_witness)
    pairs = [(0.9 * k * np.ones(2), np.ones(2)) for k in range(5)]
    for p, evaluate, walk in (
            (poly, restricted_gap, [list(c) for c in pairs]),
            (reg, restricted_gap, pairs), (scaled, restricted_gap, pairs),
            (scsc, stub, [scsc.saddle] + pairs)):
        calls = []

        def spy(problem, candidate):
            calls.append(candidate)
            return evaluate(problem, candidate)

        test = GapTest(p, 1e-9, spy)
        for c in walk:
            assert not test(c)
        assert len(calls) == len(walk)
        assert all(a is b for a, b in zip(calls, walk))


@pytest.mark.parametrize("kind, solver", [
    ("bilinear", "extragradient"), ("bilinear", "local_gda"),
    ("quadratic_x", "extragradient")])
def test_rows_share_each_witness_and_each_margin(monkeypatch, kind, solver):
    # On a ladder of four accuracies served by one trajectory, a witness
    # is built once per anchoring candidate and a margin computed once
    # per candidate, however many rows' tests ask for them.
    from collections import Counter

    from saddlesplit import cli, evaluation
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 4))
    b = A @ (0.15 * rng.standard_normal(4))
    p = (make_bilinear(A, b) if kind == "bilinear"
         else make_quadratic(A, b, side="x"))
    real = evaluation._witness_anchor
    seen, margins, witnesses = [], Counter(), Counter()
    anchored, bounded = Counter(), Counter()

    def counted(margin, witness, finish=None):
        def counted_margin(c):
            seen.append(c)                  # keeps every id() distinct
            margins[id(c)] += 1
            return margin(c)

        def counted_witness(s):
            seen.append(s)
            witnesses[id(s)] += 1
            return witness(s)
        anchor = real(counted_margin, counted_witness, finish)

        def counted_anchor(candidate=None):
            lower = anchor(candidate)
            if lower is None:
                return None
            anchored[id(candidate)] += 1

            def counted_lower(c):
                seen.append(c)
                bounded[id(c)] += 1
                return lower(c)
            return counted_lower
        return counted_anchor

    monkeypatch.setattr(evaluation, "_witness_anchor", counted)
    ladder = (0.3, 0.1, 0.03, 0.01)
    for _, outcome, _ in cli._runs(p, solver, ladder, {"max_rounds": 200},
                                   lambda: 0.0):
        assert not isinstance(outcome, Exception)
    assert set(margins) == set(bounded) and max(margins.values()) == 1
    assert max(bounded.values()) >= 2       # several rows bound one candidate
    assert set(witnesses) == set(anchored) and max(witnesses.values()) == 1
    assert max(anchored.values()) >= 2      # several tests anchor at one


@pytest.mark.parametrize("kind, per_evaluation", [
    ("bilinear", 2 + 4), ("quadratic_x", 1 + 2)])
def test_witness_forms_its_own_products(kind, per_evaluation):
    # An evaluation forms the form's products (A x - b and A^T y for a
    # bilinear form, the residual for a quadratic one); the witness
    # anchored there forms them again from the candidate, then its own
    # (A^T yhat and A xhat - b, or A^T u): 2 + 4 and 1 + 2 products per
    # anchoring evaluation.
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 4))
    b = A @ (0.15 * rng.standard_normal(4))
    p = (make_bilinear(A, b) if kind == "bilinear"
         else make_quadratic(A, b, side="x"))
    # Toward the saddle, so that the witnesses stop ruling candidates out.
    walk = [tuple(w + 0.7 ** k * (1.0 - w) for w in p.saddle)
            for k in range(40)]
    st = p.structure
    products = []
    for name in ("matvec", "rmatvec"):
        def counted(v, product=st[name]):
            products.append(v)
            return product(v)
        st[name] = counted
    evaluations = []

    def spy(problem, candidate):
        evaluations.append(candidate)
        return restricted_gap(problem, candidate)

    test = GapTest(p, 1e-3, spy)
    for c in walk:
        test(c)
    assert len(evaluations) >= 5
    assert len(products) == per_evaluation * len(evaluations)


def test_a_zero_residual_leaves_the_next_candidate_to_be_evaluated():
    # At the exact minimiser of a consistent quadratic the residual is 0.0,
    # so the witness has no direction and the anchor no bound: the next
    # candidate is evaluated although its gap is far above epsilon.  From
    # a candidate with a residual, the same candidate is skipped.
    A = np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    ws = np.array([0.25, -0.5])
    p = make_quadratic(A, A @ ws, side="x")
    assert p.structure["consistent"]
    step = np.array([0.2, 0.1])
    for start, evaluated in ((ws, 2), (ws + step, 1)):
        calls = []

        def spy(problem, candidate):
            calls.append(candidate)
            return restricted_gap(problem, candidate)

        test = GapTest(p, 1e-6, spy)
        first = (start, np.zeros(1))
        far = (start + step, np.zeros(1))
        assert test(first) is (evaluated == 2)
        assert not test(far)
        assert len(calls) == evaluated
    assert restricted_gap(p, (ws, np.zeros(1))).value == 0.0


def test_bilinear_witness_at_a_zero_gradient_holds_the_centers(monkeypatch):
    # At s with A x_s = b and y_s = 0 both gradients of the form vanish, so
    # the witness holds each side at its block's center:
    # l(c) = <A^T y_c, x> - <A x_c - b, y> - <b, y_c>.
    from saddlesplit import evaluation
    A = np.array([[2.0, 1.0], [0.0, 1.0]])
    xs = np.array([0.5, -0.25])
    p = dataclasses.replace(make_bilinear(A, A @ xs),
                            x0=np.array([0.5, 0.25]), y0=np.array([-1.0, 0.5]))
    witnesses = []

    def capture(margin, witness, finish=None):
        witnesses.append(witness)
        return real(margin, witness, finish)
    real = evaluation._witness_anchor
    monkeypatch.setattr(evaluation, "_witness_anchor", capture)
    test = GapTest(p, 1e-6)
    s = (xs, np.zeros(2))
    assert test(s) and test.gap().value == 0.0
    affine = witnesses[0](s)
    st, b = p.structure, p.structure["b"]
    sx = st["rmatvec"](p.y0)
    sy = st["matvec"](p.x0) - b
    for c in _bilinear_walk(p, steps=3):
        want = sx.dot(c[0]) - sy.dot(c[1]) - float(b.dot(p.y0))
        assert affine(c) == want


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
