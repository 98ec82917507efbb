import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddlesplit.metrics import ScaledMetric
from saddlesplit.problems import (
    ZeroTerm, QuadraticReg, BallIndicator, BoxIndicator, RegularizedTerm,
    spectral_norm,
    make_bilinear, make_quadratic, make_strongly_convex_concave,
    make_polymatrix, random_polymatrix, save_instance, load_instance,
    TripletMatrix, VipProblem, _product_operand,
)
from saddlesplit import problems
from saddlesplit.hard_instances import make_hard_saddle

I1 = ScaledMetric(1)
I2 = ScaledMetric(2)


# -- prox oracles -----------------------------------------------------------

def test_prox_quadratic_frozen():
    # argmin (1/2)(w-2)^2 + (1/2)w^2 = 1
    term = QuadraticReg(1.0, np.zeros(1))
    assert term.prox(I1, np.array([2.0]), 1.0) == pytest.approx(
        np.array([1.0]))


def test_prox_ball_frozen():
    term = BallIndicator(np.zeros(2), 1.0)
    out = term.prox(I2, np.array([2.0, 0.0]), 1.0)
    assert np.allclose(out, [1.0, 0.0], atol=1e-12)
    inside = term.prox(I2, np.array([0.3, 0.1]), 5.0)
    assert np.allclose(inside, [0.3, 0.1], atol=1e-14)


def test_prox_box_frozen():
    term = BoxIndicator(np.array([-1.0]), np.array([1.0]))
    assert term.prox(I1, np.array([2.0]), 1.0) == pytest.approx(
        np.array([1.0]))


def test_prox_regularized_frozen():
    # argmin (1/2)(w-3)^2 + (w-1)^2 over |w| <= 1 has solution 1.
    term = RegularizedTerm(QuadraticReg(2.0, np.ones(1)),
                           BallIndicator(np.zeros(1), 1.0))
    assert term.prox(I1, np.array([3.0]), 1.0) == pytest.approx(
        np.array([1.0]))


def test_prox_zero_is_identity():
    v = np.array([3.0, -1.0])
    assert np.allclose(ZeroTerm().prox(I2, v, 0.7), v)


def _prox_objective(term, metric, w, v, step):
    return term.value(metric, w) + metric.norm(w - v) ** 2 / (2 * step)


@settings(max_examples=40, deadline=None)
@given(v=st.lists(st.floats(-5, 5), min_size=2, max_size=2),
       step=st.floats(0.05, 5), mu=st.floats(0.0, 4), seed=st.integers(0, 10**6))
def test_prox_is_minimiser(v, step, mu, seed):
    rng = np.random.default_rng(seed)
    metric = ScaledMetric(rng.uniform(0.5, 2.0, 2))
    v = np.array(v)
    terms = [
        QuadraticReg(mu, np.array([1.0, -0.5])),
        BallIndicator(np.array([0.5, 0.0]), 1.3),
        BoxIndicator(np.array([-1.0, -2.0]), np.array([2.0, 0.5])),
        RegularizedTerm(QuadraticReg(mu, np.zeros(2)),
                        BallIndicator(np.zeros(2), 1.0)),
    ]
    for term in terms:
        w = term.prox(metric, v, step)
        assert term.contains(metric, w)
        base = _prox_objective(term, metric, w, v, step)
        for _ in range(8):
            u = term.project_domain(metric, w + 0.3 * rng.standard_normal(2))
            assert base <= _prox_objective(term, metric, u, v, step) + 1e-9


def test_subgradient_selector():
    m = ScaledMetric(np.array([2.0]))
    q = QuadraticReg(3.0, np.array([1.0]))
    # mu * P * (w - c) = 3 * 2 * (2 - 1)
    assert q.subgradient(m, np.array([2.0])) == pytest.approx(np.array([6.0]))
    assert np.allclose(BallIndicator(np.zeros(1), 1.0).subgradient(m, np.ones(1)), 0.0)


def test_argmin_linear():
    m = ScaledMetric(1)
    q = QuadraticReg(2.0, np.array([1.0]))
    # argmin c*w + (w-1)^2 with c = 4: w = 1 - 4/2 = -1
    assert q.argmin_linear(m, np.array([4.0])) == pytest.approx(np.array([-1.0]))
    ball = BallIndicator(np.zeros(2), 2.0)
    out = ball.argmin_linear(ScaledMetric(2), np.array([3.0, 0.0]))
    assert np.allclose(out, [-2.0, 0.0], atol=1e-12)
    box = BoxIndicator(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    assert np.allclose(box.argmin_linear(ScaledMetric(2), np.array([2.0, -3.0])),
                       [-1.0, 1.0])
    with pytest.raises(ValueError):
        ZeroTerm().argmin_linear(m, np.array([1.0]))


def test_argmin_linear_flat_regulariser_and_zero_covector():
    # A flat anchor term leaves the base term's minimiser, and a ball
    # meets a zero covector at (a copy of) its center.
    m = ScaledMetric([1.0, 4.0])
    ball = BallIndicator(np.array([0.5, -1.0]), 2.0)
    cov = np.array([3.0, -1.0])
    flat = RegularizedTerm(QuadraticReg(0.0, np.ones(2)), ball)
    assert flat.argmin_linear(m, cov).tobytes() == \
        ball.argmin_linear(m, cov).tobytes()
    at_zero = ball.argmin_linear(m, np.zeros(2))
    assert at_zero.tobytes() == ball.center.tobytes()
    assert at_zero is not ball.center



def _linear_objective(term, metric, cov, w):
    return float(np.dot(cov, w)) + term.value(metric, w)


@settings(max_examples=40, deadline=None)
@given(cov=st.lists(st.floats(-5, 5), min_size=2, max_size=2),
       mu=st.floats(0.05, 4), seed=st.integers(0, 10**6))
def test_argmin_linear_is_minimiser(cov, mu, seed):
    # Each class's linear minimiser beats every feasible perturbation, and
    # each states its smoothness and modulus; a sum composes both.
    rng = np.random.default_rng(seed)
    metric = ScaledMetric(rng.uniform(0.5, 2.0, 2))
    cov = np.array(cov)
    inf = np.inf
    half = np.abs(cov) * [1.0, -1.0]       # points away from each inf bound
    anchor = np.array([0.2, -0.1])
    cases = [   # (term, covector, smooth, modulus)
        (ZeroTerm(), np.zeros(2), True, 0.0),
        (QuadraticReg(mu, np.array([1.0, -0.5])), cov, True, mu),
        (BallIndicator(np.array([0.5, 0.0]), 1.3), cov, False, 0.0),
        (BoxIndicator(np.array([-1.0, -2.0]), np.array([2.0, 0.5])), cov,
         False, 0.0),
        (BoxIndicator(np.array([-1.0, -inf]), np.array([inf, 0.5])), half,
         False, 0.0),
        (RegularizedTerm(QuadraticReg(mu, np.zeros(2)),
                         BallIndicator(np.zeros(2), 1.0)), cov, False, mu),
        (RegularizedTerm(QuadraticReg(mu, np.zeros(2)),
                         QuadraticReg(2.0, np.array([0.3, 0.1]))), cov, True,
         mu + 2.0),
    ]
    for term, c, smooth, modulus in cases:
        assert (term.smooth, term.modulus) == (smooth, modulus)
        w = term.argmin_linear(metric, c, fallback=anchor)
        assert term.contains(metric, w)
        base = _linear_objective(term, metric, c, w)
        for _ in range(8):
            u = term.project_domain(metric, w + 0.3 * rng.standard_normal(2))
            assert base <= _linear_objective(term, metric, c, u) + 1e-9


def test_box_with_an_infinite_bound_holds_only_its_finite_points():
    # The tolerance scales with the finite bounds: an infinite one once
    # made it infinite and let every point in.
    m = ScaledMetric(2)
    half = BoxIndicator(np.zeros(2), np.full(2, np.inf))
    assert half.value(m, [-5.0, -7.0]) == np.inf
    assert half.value(m, [0.0, 3.0]) == 0.0
    assert not half.contains(m, [np.inf, 1.0])
    assert not half.contains(m, [np.nan, 1.0])
    p = make_strongly_convex_concave(1.0, 1.0, 1.0, n=2)    # x0 ~ 0.707
    with pytest.raises(ValueError, match="start of agent x lies outside"):
        dataclasses.replace(p, psi_x=BoxIndicator(np.full(2, 5.0),
                                                  np.full(2, np.inf)))


def test_box_argmin_linear_on_infinite_bounds():
    # An entry pointing toward an infinite bound has no minimiser; a zero
    # entry takes the midpoint of two finite bounds, else the fallback's.
    m = ScaledMetric(3)
    box = BoxIndicator(np.array([-1.0, 0.0, -np.inf]),
                       np.array([1.0, np.inf, np.inf]))
    for cov in ([0.0, -1.0, 0.0], [0.0, 0.0, 2.0], [0.0, 0.0, -2.0]):
        with pytest.raises(ValueError, match="unbounded below"):
            box.argmin_linear(m, cov, fallback=np.zeros(3))
    with pytest.raises(ValueError, match="no unique minimiser"):
        box.argmin_linear(m, [0.0, 1.0, 0.0])
    out = box.argmin_linear(m, [0.0, 0.0, 0.0], fallback=[0.5, 3.0, -4.0])
    assert out.tolist() == [0.0, 3.0, -4.0]
    assert box.argmin_linear(m, [-1.0, 1.0, 0.0],
                             fallback=np.zeros(3)).tolist() == [1.0, 0.0, 0.0]


@pytest.mark.parametrize("build", [
    lambda: QuadraticReg(np.nan, np.zeros(1)),
    lambda: QuadraticReg(np.inf, np.zeros(1)),
    lambda: QuadraticReg(-1.0, np.zeros(1)),
    lambda: QuadraticReg(1.0, [np.nan]),
    lambda: BallIndicator(np.zeros(1), np.nan),
    lambda: BallIndicator(np.zeros(1), np.inf),
    lambda: BallIndicator(np.zeros(1), 0.0),
    lambda: BallIndicator([np.inf], 1.0),
    lambda: BoxIndicator([np.nan], [1.0]),
    lambda: BoxIndicator([0.0], [np.nan]),
    lambda: BoxIndicator([1.0], [0.0]),
], ids=["quad-mu-nan", "quad-mu-inf", "quad-mu-neg", "quad-center-nan",
        "ball-radius-nan", "ball-radius-inf", "ball-radius-zero",
        "ball-center-inf", "box-lower-nan", "box-upper-nan", "box-crossed"])
def test_terms_reject_parameters_outside_their_range(build):
    # Moduli and radii are finite, centers finite, and bounds not NaN.
    with pytest.raises(ValueError):
        build()
    BoxIndicator([-np.inf], [np.inf])          # infinite bounds stay allowed


# -- generators -------------------------------------------------------------

def test_bilinear_oracles_frozen():
    p = make_bilinear(np.array([[1.0]]))
    z = (np.array([1.0]), np.array([2.0]))
    assert p.grad_x(z) == pytest.approx(np.array([2.0]))
    assert p.grad_y(z) == pytest.approx(np.array([1.0]))
    assert p.L_xy == pytest.approx(1.0)
    assert p.L_x == 0.0 and p.L_y == 0.0


def test_quadratic_y_oracle_frozen():
    p = make_quadratic(np.array([[2.0]]), np.zeros(1), side="y")
    z = (np.zeros(1), np.array([1.0]))
    # grad_y f = A^T(b - Ay) = -4
    assert p.grad_y(z) == pytest.approx(np.array([-4.0]))
    assert p.L_y == pytest.approx(4.0)


def test_quadratic_x_saddle_and_value():
    A = np.array([[1.0, 0.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    p = make_quadratic(A, b, side="x")
    xs = p.saddle[0]
    assert np.allclose(A @ xs, b, atol=1e-10)
    assert p.f_value((xs, np.zeros(1))) == pytest.approx(0.0, abs=1e-18)


def test_scsc_oracles_frozen():
    p = make_strongly_convex_concave(1.0, 1.0, 0.1, n=1)
    z = (np.array([1.0]), np.array([1.0]))
    assert p.grad_x(z) == pytest.approx(np.array([1.1]))
    assert p.grad_y(z) == pytest.approx(np.array([-0.9]))  # -mu_y y + c x


_CONVENTION_RNG = np.random.default_rng(17)


@pytest.mark.parametrize("build", [
    lambda: make_bilinear(_CONVENTION_RNG.standard_normal((3, 2)),
                          _CONVENTION_RNG.standard_normal(3)),
    lambda: make_quadratic(_CONVENTION_RNG.standard_normal((4, 3)),
                           _CONVENTION_RNG.standard_normal(4), side="x"),
    lambda: make_quadratic(_CONVENTION_RNG.standard_normal((4, 3)),
                           _CONVENTION_RNG.standard_normal(4), side="y",
                           other_dim=2),
    lambda: make_strongly_convex_concave(0.5, 2.0, 1.5, n=3),
    lambda: make_hard_saddle("xy", 1.0, 1.0, 5),
    lambda: make_hard_saddle("x", 1.0, 1.0, 5),
    lambda: make_hard_saddle("y", 1.0, 1.0, 5),
], ids=["bilinear", "quadratic_x", "quadratic_y", "scsc", "hard_xy",
        "hard_x", "hard_y"])
def test_oracles_are_partial_gradients_of_f(build):
    # Every generator's grad_x and grad_y are the partial gradients of its
    # f_value: one convention on both sides.
    p = build()
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(3):
        z = [rng.standard_normal(p.nx), rng.standard_normal(p.ny)]
        for block, grad in enumerate((p.grad_x, p.grad_y)):
            fd = np.empty(z[block].size)
            for i in range(fd.size):
                up, down = [w.copy() for w in z], [w.copy() for w in z]
                up[block][i] += h
                down[block][i] -= h
                fd[i] = (p.f_value(up) - p.f_value(down)) / (2 * h)
            assert np.allclose(grad(z), fd, rtol=1e-6, atol=1e-6)


def test_quadratic_rejects_a_right_hand_side_of_the_wrong_length():
    with pytest.raises(ValueError, match="row dimension"):
        make_quadratic(np.ones((3, 2)), np.ones(2), side="y")
    with pytest.raises(ValueError, match="row dimension"):
        make_quadratic(np.ones((3, 2)), np.ones(4), x_star=np.zeros(2))


@pytest.mark.parametrize("D", [0.0, -1.0, float("inf"), float("nan")])
def test_problems_reject_bad_diameters(D):
    with pytest.raises(ValueError, match="diameters"):
        make_strongly_convex_concave(1.0, 1.0, 1.0, D_y=D)
    with pytest.raises(ValueError, match="diameters"):
        make_bilinear(np.ones((1, 1)), D_x=D)
    with pytest.raises(ValueError, match="diameters"):
        make_polymatrix([1, 1], [[None, [[1.0]]], [[[-1.0]], None]],
                        D=[1.0, D])


def test_problems_reject_a_start_outside_dom_psi():
    # z0 = 0.5 outside the box [-0.3, 0.3]: no solver may run from it.
    p = make_strongly_convex_concave(1.0, 1.0, 1.0, n=2)
    start, box = np.full(2, 0.5), BoxIndicator(np.full(2, -0.3),
                                               np.full(2, 0.3))
    with pytest.raises(ValueError, match="start of agent x lies outside"):
        dataclasses.replace(p, x0=start, psi_x=box)
    with pytest.raises(ValueError, match="start of agent y lies outside"):
        dataclasses.replace(p, y0=start, psi_y=BallIndicator(np.zeros(2), 0.3))
    dataclasses.replace(p, x0=np.full(2, 0.3), psi_x=box)   # on the face
    poly = make_polymatrix([2, 2], [[None, np.eye(2)], [-np.eye(2), None]])
    with pytest.raises(ValueError, match="start of agent 2 lies outside"):
        dataclasses.replace(poly, z0=[np.zeros(2), start],
                            psis=[ZeroTerm(), box])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_saddle_problem_rejects_a_non_finite_start(bad):
    # psi = 0 holds every point, so the domain check let these through; a
    # solver then ran from them to `diverged` or a NaN gap.
    p = make_strongly_convex_concave(1.0, 1.0, 1.0, n=2)
    with pytest.raises(ValueError, match="start of agent x must be finite"):
        dataclasses.replace(p, x0=[bad, 0.0])
    with pytest.raises(ValueError, match="start of agent y must be finite"):
        dataclasses.replace(p, y0=[0.0, bad])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_vip_problem_rejects_a_non_finite_start(bad):
    poly = make_polymatrix([2, 2], [[None, np.eye(2)], [-np.eye(2), None]])
    with pytest.raises(ValueError, match="start of agent 2 must be finite"):
        dataclasses.replace(poly, z0=[np.zeros(2), np.array([0.0, bad])])


@pytest.mark.parametrize("make", [make_bilinear, make_quadratic])
@pytest.mark.parametrize("key, value", [
    ("A", [[1.0, 0.0], [0.0, np.inf]]),
    ("A", [[np.nan]]),
    ("A", TripletMatrix((200, 2), np.array([0, 1]), np.array([0, 1]),
                        np.array([1.0, -np.inf]))),
    ("b", [np.inf, 0.0]),
    ("x_star", [0.0, np.nan]),
    ("norm", np.inf),
    ("norm", np.nan),
], ids=["A-dense-inf", "A-dense-nan", "A-triplet", "b", "x_star", "norm-inf",
        "norm-nan"])
def test_linear_system_generators_reject_non_finite_data(monkeypatch, make,
                                                         key, value):
    # Each used to build and run to `diverged` with a NaN gap, or (an
    # infinite entry of A) to fail inside LAPACK.  The check comes first.
    def no_lapack(*args, **kwargs):
        raise AssertionError("LAPACK called on non-finite data")

    monkeypatch.setattr(problems, "spectral_norm", no_lapack)
    monkeypatch.setattr(np.linalg, "lstsq", no_lapack)
    with pytest.raises(ValueError, match=f"^{key} must be finite$"):
        make(**{"A": np.eye(2), "b": np.ones(2), "norm": 1.0, key: value})


def _quadratic_query(p, side, w):
    """The active oracle's answer at `w`, the other block zero."""
    z = (w, np.zeros(p.ny)) if side == "x" else (np.zeros(p.nx), w)
    return (p.grad_x if side == "x" else p.grad_y)(z)


@pytest.mark.parametrize("side", ["x", "y"])
@pytest.mark.parametrize("shape", [(7, 4), (5, 5)], ids=["tall", "square"])
def test_dense_quadratic_oracle_multiplies_by_its_normal_matrix(side, shape):
    rng = np.random.default_rng(23)
    A, b = rng.standard_normal(shape), rng.standard_normal(shape[0])
    p = make_quadratic(A, b, side=side)
    G, c = A.T @ A, A.T @ b
    norm = np.linalg.norm(A, 2)
    for _ in range(5):
        w = rng.standard_normal(shape[1])
        got = _quadratic_query(p, side, w)
        Gw = G @ w
        assert np.array_equal(got, Gw - c if side == "x" else c - Gw)
        two = A.T @ (A @ w - b)
        want = two if side == "x" else -two
        assert (np.linalg.norm(got - want)
                <= 1e-12 * (norm ** 2 * np.linalg.norm(w)
                            + norm * np.linalg.norm(b)))


@pytest.mark.parametrize("side", ["x", "y"])
@pytest.mark.parametrize("A", [
    np.random.default_rng(29).standard_normal((3, 6)),
    TripletMatrix((130, 129), np.r_[np.arange(129), np.arange(1, 130)],
                  np.r_[np.arange(129), np.arange(129)],
                  np.r_[np.full(129, 0.5), np.full(129, -0.5)]),
], ids=["wide", "triplet"])
def test_wide_and_triplet_quadratic_oracles_keep_two_products(side, A):
    # G = A^T A would be larger than a wide A, and denser than a chain.
    rng = np.random.default_rng(31)
    m, n = A.shape
    b = rng.standard_normal(m)
    p = make_quadratic(A, b, side=side)
    assert type(p.structure["A"]) is type(A)
    matvec, rmatvec = p.structure["matvec"], p.structure["rmatvec"]
    for _ in range(5):
        w = rng.standard_normal(n)
        r = matvec(w)
        assert np.array_equal(_quadratic_query(p, side, w),
                              rmatvec(r - b if side == "x" else b - r))


def _operator_full(p, z):
    return np.concatenate([p.grad_x(z), -p.grad_y(z)])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_saddle_operator_monotone(seed):
    rng = np.random.default_rng(seed)
    problems = [
        make_bilinear(rng.standard_normal((3, 2)), rng.standard_normal(3)),
        make_strongly_convex_concave(0.5, 2.0, 1.5, n=2),
        make_quadratic(rng.standard_normal((2, 2)), rng.standard_normal(2), "y"),
    ]
    for p in problems:
        z1 = (rng.standard_normal(p.nx), rng.standard_normal(p.ny))
        z2 = (rng.standard_normal(p.nx), rng.standard_normal(p.ny))
        dz = np.concatenate([z1[0] - z2[0], z1[1] - z2[1]])
        dV = _operator_full(p, z1) - _operator_full(p, z2)
        assert float(dV @ dz) >= -1e-9


def test_polymatrix_validation_errors():
    dims = [1, 1]
    good = [[None, np.array([[2.0]])], [np.array([[-2.0]]), None]]
    make_polymatrix(dims, good)
    bad_skew = [[None, np.array([[2.0]])], [np.array([[2.0]]), None]]
    with pytest.raises(ValueError):
        make_polymatrix(dims, bad_skew)
    bad_diag = [[np.array([[-1.0]]), None], [None, None]]
    with pytest.raises(ValueError):
        make_polymatrix(dims, bad_diag)


def test_polymatrix_solution_and_monotone():
    rng = np.random.default_rng(7)
    p = random_polymatrix([2, 3, 2], rng, coupling=1.0, diag=0.5)
    assert p.solution is not None
    # the attached solution solves V(z) = 0
    V = [p.operators[i](p.solution) for i in range(p.K)]
    assert max(np.linalg.norm(v) for v in V) <= 1e-8
    z1 = [rng.standard_normal(d) for d in p.dims]
    z2 = [rng.standard_normal(d) for d in p.dims]
    dz = np.concatenate([a - b for a, b in zip(z1, z2)])
    dV = np.concatenate([p.operators[i](z1) - p.operators[i](z2)
                         for i in range(p.K)])
    assert float(dV @ dz) >= -1e-9
    assert all(p.block_is_gradient)


def test_vip_blocks_default_to_non_gradients():
    p = VipProblem(operators=[lambda z: z[0], lambda z: z[1]],
                   psis=[ZeroTerm(), ZeroTerm()],
                   z0=[np.zeros(2), np.zeros(1)], L=np.eye(2), D=(1.0, 1.0))
    assert p.block_is_gradient == [False, False]


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(3)
    for _ in range(5):
        A = rng.standard_normal((4, 3))
        assert spectral_norm(A) == pytest.approx(np.linalg.svd(A)[1][0],
                                                 rel=1e-12)
    assert spectral_norm(np.zeros((2, 2))) == 0.0


def _sigma_max(A):
    return np.linalg.svd(np.asarray(A), compute_uv=False)[0]


def test_dense_constants_match_svd():
    # Every built-in kind whose constants come from a dense matrix.
    rng = np.random.default_rng(11)
    A, b = rng.standard_normal((5, 4)), rng.standard_normal(5)
    sigma = _sigma_max(A)
    assert make_bilinear(A, b).L_xy == pytest.approx(sigma, rel=1e-12)
    assert make_quadratic(A, b, side="x").L_x == pytest.approx(
        sigma ** 2, rel=1e-12)
    assert make_quadratic(A, b, side="y").L_y == pytest.approx(
        sigma ** 2, rel=1e-12)
    M, S = rng.standard_normal((3, 2)), rng.standard_normal((3, 3))
    for p in (make_polymatrix([3, 2], [[S @ S.T, M], [-M.T, None]]),
              random_polymatrix([4, 3, 2], rng, diag=0.5)):
        want = [[_sigma_max(Aij) for Aij in row]
                for row in p.structure["blocks"]]
        assert p.L == pytest.approx(np.array(want), rel=1e-12, abs=0.0)
    # random_polymatrix scales its diagonal blocks to norm `diag`.
    assert np.diag(p.L) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("k", [1, 10, 63])
@pytest.mark.parametrize("kind", ["xy", "x", "y"])
def test_chain_constants_match_svd(kind, k):
    p = make_hard_saddle(kind, 4.0, 1.5, k)
    sigma = _sigma_max(p.structure["A"])
    got = {"xy": p.L_xy, "x": p.L_x, "y": p.L_y}[kind]
    want = sigma if kind == "xy" else sigma ** 2
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


# -- serialization ----------------------------------------------------------

@pytest.mark.parametrize("build", [
    lambda: make_bilinear(np.array([[1.0, 2.0], [0.5, -1.0]]),
                          np.array([1.0, 0.0]), D_x=2.0),
    lambda: make_quadratic(np.array([[1.5, 0.0], [1.0, 2.0]]),
                           np.array([1.0, -1.0]), side="x"),
    lambda: make_strongly_convex_concave(0.7, 1.3, 0.4, n=2, D_x=1.5),
    lambda: random_polymatrix([2, 2], np.random.default_rng(5), diag=0.3),
])
def test_instance_roundtrip(tmp_path, build):
    p = build()
    path = tmp_path / "inst.ini"
    save_instance(p, path)
    q = load_instance(path)
    rng = np.random.default_rng(11)
    # The file holds every float's repr, so the rebuilt oracles answer bit
    # for bit: the dense quadratic's normal matrix included, and the VI's
    # blocks, which `make_polymatrix` keeps C-contiguous however they come
    # (`random_polymatrix` passes each lower block as the view -M.T).
    if hasattr(p, "K"):
        for _ in range(100):
            z = [rng.standard_normal(d) for d in p.dims]
            for i in range(p.K):
                assert np.array_equal(p.operators[i](z), q.operators[i](z))
        assert np.array_equal(p.L, q.L)
    else:
        z = (rng.standard_normal(p.nx), rng.standard_normal(p.ny))
        assert np.array_equal(p.grad_x(z), q.grad_x(z))
        assert np.array_equal(p.grad_y(z), q.grad_y(z))
        assert (q.L_x, q.L_y, q.L_xy) == pytest.approx((p.L_x, p.L_y, p.L_xy))


@pytest.mark.parametrize("build, match", [
    (lambda: dataclasses.replace(
        make_bilinear(np.array([[1.0, 0.5], [0.0, 2.0]])),
        psi_x=BallIndicator(np.zeros(2), 0.5)), "nonzero psi"),
    (lambda: dataclasses.replace(
        make_bilinear(np.array([[1.0, 0.5], [0.0, 2.0]])),
        metric_y=ScaledMetric([2.0, 3.0])), "non-unit metric weights"),
    (lambda: dataclasses.replace(
        random_polymatrix([2, 2], np.random.default_rng(5)),
        psis=[BoxIndicator(-np.ones(2), np.ones(2)), ZeroTerm()]),
     "nonzero psi"),
    (lambda: dataclasses.replace(
        random_polymatrix([2, 2, 2], np.random.default_rng(5)),
        block_is_gradient=[False] * 3), "block_is_gradient"),
], ids=["psi_x", "metric_y", "psis", "block_is_gradient"])
def test_save_instance_refuses_a_field_it_cannot_write(tmp_path, build,
                                                       match):
    # Each used to save and load back as ZeroTerm, unit weights or all-True
    # gradient flags, without a word.
    path = tmp_path / "inst.ini"
    with pytest.raises(ValueError, match=match):
        save_instance(build(), path)
    assert not path.exists()


@pytest.mark.parametrize("kind", ["xy", "x", "y"])
def test_chain_instance_saved_as_recipe(tmp_path, kind):
    p = make_hard_saddle(kind, L=4.0, D=2.0, k=50, D_other=3.0)
    path = tmp_path / "chain.ini"
    save_instance(p, path)
    assert path.stat().st_size < 1024
    assert f"kind = hard_{kind}" in path.read_text()
    q = load_instance(path)
    for key in ("A", "b"):
        assert np.array_equal(q.structure[key], p.structure[key])
    for got, want in zip(q.saddle, p.saddle):
        assert np.array_equal(got, want)
    assert (q.name, q.D_x, q.D_y) == (p.name, p.D_x, p.D_y)
    assert (q.L_x, q.L_y, q.L_xy) == (p.L_x, p.L_y, p.L_xy)


def test_matrix_products_match_dense_on_both_kernels():
    rng = np.random.default_rng(11)
    chain = make_hard_saddle("xy", 1.0, 1.0, 500)      # nonzero-triplet kernel
    dense = make_bilinear(rng.normal(size=(30, 20)))    # BLAS kernel
    quad = make_quadratic(rng.normal(size=(30, 20)), rng.normal(size=30))
    for p in (chain, dense, quad):
        A = p.structure["A"]
        m, n = A.shape
        for _ in range(3):
            x, y = rng.normal(size=n), rng.normal(size=m)
            got = p.structure["matvec"](x)
            assert np.linalg.norm(got - A @ x) <= 1e-12 * np.linalg.norm(A @ x)
            if "rmatvec" in p.structure:
                got, want = p.structure["rmatvec"](y), np.asarray(A).T @ y
                assert (np.linalg.norm(got - want)
                        <= 1e-12 * np.linalg.norm(want))
    x, y = rng.normal(size=1001), rng.normal(size=1002)
    A, b = chain.structure["A"], chain.structure["b"]
    assert np.allclose(chain.grad_x((x, y)), np.asarray(A).T @ y, rtol=1e-12,
                       atol=1e-14)
    assert np.allclose(chain.grad_y((x, y)), A @ x - b, rtol=1e-12, atol=1e-14)


def test_triplet_matrix_is_the_row_major_nonzero_scan():
    rng = np.random.default_rng(5)
    dense = np.where(rng.random((40, 30)) < 0.01, rng.normal(size=(40, 30)),
                     0.0)
    A = _product_operand(dense)
    assert isinstance(A, TripletMatrix)
    assert np.array_equal(np.asarray(A), dense)
    assert A.size == dense.size and A.nbytes == 24 * np.count_nonzero(dense)
    rows, cols = np.nonzero(dense)
    assert A.shape == dense.shape
    assert np.array_equal(A.rows, rows)
    assert np.array_equal(A.cols, cols)
    assert np.array_equal(A.vals, dense[rows, cols])
    x = rng.normal(size=30)
    assert np.array_equal(A @ x, dense @ x)
    # A denser matrix goes to BLAS: triplets are densified, dense is kept.
    full = rng.normal(size=(4, 3))
    assert _product_operand(full) is full
    B = _product_operand(_product_operand(np.eye(100)))
    assert type(B) is TripletMatrix and np.array_equal(np.asarray(B),
                                                        np.eye(100))
    C = TripletMatrix((2, 2), np.array([0, 1]), np.array([0, 1]),
                      np.array([1.0, 2.0]))
    assert np.array_equal(_product_operand(C), np.diag([1.0, 2.0]))


def _bincount_products(A):
    """The products of triplet matrix `A` as ``np.bincount`` forms them."""
    (m, n), rows, cols, vals = A.shape, A.rows, A.cols, A.vals
    return (lambda x: np.bincount(rows, weights=vals * x[cols], minlength=m),
            lambda y: np.bincount(cols, weights=vals * y[rows], minlength=n))


def _zero_laden_vectors(rng, size):
    """Gaussian vectors with scattered +0.0 and -0.0 entries, zero tails
    of either sign (as a Krylov iterate has) and all-zero vectors."""
    for start in (size // 2, 1, 0):
        for zero in (0.0, -0.0):
            v = rng.normal(size=size)
            v[rng.integers(0, size, size // 5)] = 0.0
            v[rng.integers(0, size, size // 5)] = -0.0
            v[start:] = zero
            yield v


def _assert_products_match_bincount(A, rng):
    matvec, rmatvec = problems._matrix_products(A)
    ref_matvec, ref_rmatvec = _bincount_products(A)
    m, n = A.shape
    for x, y in zip(_zero_laden_vectors(rng, n), _zero_laden_vectors(rng, m)):
        for got, want in ((matvec(x), ref_matvec(x)),
                          (rmatvec(y), ref_rmatvec(y))):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()       # signed zeros too


@pytest.mark.parametrize("pad", [0, 3], ids=["default", "padded"])
@pytest.mark.parametrize("k", [63, 500])
@pytest.mark.parametrize("scale", [4.0, 2.0], ids=["bilinear", "quadratic"])
def test_diagonal_products_match_bincount_on_chains(monkeypatch, scale, k,
                                                    pad):
    # The chain's two diagonals, offsets 0 and -1, each fill one run, in
    # a larger matrix too.  At k = 63, the smallest chain kept as
    # triplets, the runs (127 entries) are below `_DIAGONAL_RUN`, so the
    # bound is lowered to multiply it through the runs as well.
    from saddlesplit.hard_instances import _chain
    p, _, chain, _, _ = _chain(scale, 1.5, k)
    A = TripletMatrix((p + 1 + pad, p + pad), chain.rows, chain.cols,
                      chain.vals)
    if k == 63:
        assert problems._diagonal_runs(A) is None
        monkeypatch.setattr(problems, "_DIAGONAL_RUN", 1)
    runs = problems._diagonal_runs(A)
    assert [(r.start, r.stop, c.start, c.stop) for r, c, _ in runs] == [
        (1, p + 1, 0, p), (0, p, 0, p)]
    _assert_products_match_bincount(A, np.random.default_rng(k + pad))


def test_diagonal_products_match_bincount_on_a_banded_matrix():
    rng = np.random.default_rng(3)
    n = 800
    dense = sum(np.diag(rng.normal(size=n - abs(o)), o) for o in (-1, 0, 2))
    A = _product_operand(dense)
    assert isinstance(A, TripletMatrix)
    runs = problems._diagonal_runs(A)
    assert [(r.start, c.start, v.size) for r, c, v in runs] == [
        (1, 0, n - 1), (0, 0, n), (0, 2, n - 2)]
    _assert_products_match_bincount(A, rng)
    matvec, rmatvec = problems._matrix_products(A)
    x = rng.normal(size=n)
    assert np.allclose(matvec(x), dense @ x, rtol=1e-14, atol=1e-14)
    assert np.allclose(rmatvec(x), dense.T @ x, rtol=1e-14, atol=1e-14)


def test_other_triplet_matrices_keep_bincount():
    # Scattered nonzeros, a diagonal with a gap, and triplets out of
    # row-major order have no diagonal runs; their products are bincount's.
    from saddlesplit.hard_instances import _chain
    rng = np.random.default_rng(8)
    m, n = 600, 500
    flat = np.sort(rng.choice(m * n, size=(m * n) // 64, replace=False))
    scattered = TripletMatrix((m, n), flat // n, flat % n,
                              rng.standard_normal(flat.size))
    _, _, chain, _, _ = _chain(1.0, 1.0, 500)
    keep = np.arange(chain.vals.size) != 400                # entry (200, 200)
    gapped = TripletMatrix(chain.shape, chain.rows[keep], chain.cols[keep],
                           chain.vals[keep])
    order = np.arange(chain.vals.size)
    order[[10, 11]] = order[[11, 10]]
    unordered = TripletMatrix(chain.shape, chain.rows[order],
                              chain.cols[order], chain.vals[order])
    for A in (scattered, gapped, unordered):
        assert problems._diagonal_runs(A) is None
        _assert_products_match_bincount(A, rng)


def test_bilinear_known_solution():
    p = make_bilinear(np.eye(2), np.array([1.0, 2.0]), x_star=[1.0, 2.0])
    assert np.array_equal(p.saddle[0], [1.0, 2.0])
    with pytest.raises(ValueError):
        make_bilinear(np.eye(2), x_star=np.zeros(3))
