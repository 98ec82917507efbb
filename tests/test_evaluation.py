import dataclasses

import numpy as np
import pytest

from saddlesplit.evaluation import (
    GapResult, complexity_bounds, restricted_gap, theta_factor,
)
from saddlesplit.problems import (
    DomainSpec, make_bilinear, make_quadratic, make_strongly_convex_concave,
    random_polymatrix,
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
    p = make_bilinear(rng.standard_normal((3, 2)), rng.standard_normal(3))
    for _ in range(10):
        x = rng.standard_normal(2)
        x *= min(1.0, p.D_x / np.linalg.norm(x))
        y = rng.standard_normal(3)
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
    power_iteration = evaluation.spectral_norm
    calls = []

    def counted(A):
        calls.append(A.shape)
        return power_iteration(A)

    monkeypatch.setattr(evaluation, "spectral_norm", counted)
    first = restricted_gap(p, [0.5 * np.ones(2) for _ in range(3)])
    second = restricted_gap(p, [0.5 * np.ones(2) for _ in range(3)])
    assert calls == [(6, 6)]
    assert first == second


# -- cached default-ball test of the quadratic closed form -------------------

def _quadratic_with_inner_minimiser():
    # ws = (0.3, -0.4) solves A x = b and lies in the default unit ball.
    A = np.array([[2.0, 0.0], [0.0, 1.0]])
    return make_quadratic(A, A @ np.array([0.3, -0.4]), side="x")


def test_explicit_domain_excluding_minimiser_is_estimated():
    p = _quadratic_with_inner_minimiser()
    cand = (np.array([0.1, 0.2]), np.zeros(1))
    default = restricted_gap(p, cand)
    assert default.exact and "default_ball_test" in p.structure
    # A ball around (2, 2) of radius 0.5 excludes ws: the closed form no
    # longer applies, although the default-domain answer is cached.
    far = DomainSpec([np.array([2.0, 2.0]), np.zeros(1)], [0.5, 1.0])
    g = restricted_gap(p, cand, far)
    assert not g.exact and g.method == "pga-estimate"
    assert restricted_gap(p, cand) == default


def test_explicit_domain_containing_minimiser_matches_default():
    p = _quadratic_with_inner_minimiser()
    cand = (np.array([0.1, 0.2]), np.zeros(1))
    default = restricted_gap(p, cand)
    near = DomainSpec([np.zeros(2), np.zeros(1)], [1.0, 1.0])
    assert restricted_gap(p, cand, near) == default
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
