import tracemalloc

import numpy as np
import pytest

from saddlesplit.hard_instances import (
    _chain, chain_matrices, krylov_basis, krylov_min_residual,
    make_hard_instance, make_hard_saddle, subspace_residual,
)
from saddlesplit.evaluation import restricted_gap
from saddlesplit.problems import (
    _matrix_products, make_bilinear, make_quadratic, spectral_norm,
)


def test_chain_factorization_exact():
    for p in (1, 2, 5, 11):
        B, M = chain_matrices(p)
        assert B.dtype == np.int64
        assert np.array_equal(B.T @ B, M)


def test_construction_frozen_k1():
    inst = make_hard_instance(2.0, 1.0, 1)
    assert inst.p == 3
    assert inst.A[0, 0] == pytest.approx(1.0)          # (L/2) * 1
    assert inst.gamma == pytest.approx(np.sqrt(8.0 / 7.0), rel=1e-12)
    assert np.linalg.norm(inst.v_star) == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(inst.A @ inst.v_star, inst.b, atol=1e-12)


def test_operator_norm_and_distance():
    for (L, D, k) in [(1.0, 1.0, 1), (0.5, 2.0, 3), (2.0, 0.5, 7)]:
        inst = make_hard_instance(L, D, k)
        assert np.linalg.svd(inst.A)[1][0] <= L + 1e-12
        assert np.linalg.norm(inst.v_star) == pytest.approx(D, rel=1e-12)


def test_precondition_violation():
    with pytest.raises(ValueError):
        make_hard_instance(1.0, 1.0, 0)
    with pytest.raises(ValueError):
        make_hard_instance(1.0, 1.0, 3, m=4, n=3)
    with pytest.raises(ValueError):
        make_hard_instance(-1.0, 1.0, 1)
    with pytest.raises(ValueError, match="must be an integer"):
        make_hard_instance(1.0, 1.0, 2.5)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize("scale", ["L", "D", "D_other"])
def test_bad_scales_rejected(scale, bad):
    # NaN used to build an instance with L = nan, and infinity one whose
    # spectral norm failed inside LAPACK.
    scales = {"L": 1.0, "D": 1.0, "D_other": 1.0, scale: bad}
    with pytest.raises(ValueError, match=f"scale {scale} must be finite"):
        make_hard_saddle("x", k=3, **scales)
    if scale != "D_other":
        del scales["D_other"]
        with pytest.raises(ValueError, match=f"scale {scale} must be finite"):
            make_hard_instance(k=3, **scales)


def test_krylov_spans_leading_coordinates():
    inst = make_hard_instance(1.0, 1.0, 4)
    eye = np.eye(inst.A.shape[1])
    for k in range(1, 5):
        Q = krylov_basis(inst.A, inst.b, k, side="x")
        assert Q.shape[1] == k
        assert np.allclose(Q.T @ Q, np.eye(k), atol=1e-10)
        # span equals exactly the first k coordinates
        for j in range(k):
            assert subspace_residual(Q, eye[:, j]) <= 1e-8
        assert subspace_residual(Q, eye[:, k]) == pytest.approx(1.0, abs=1e-8)


def test_min_residual_frozen():
    inst = make_hard_instance(1.0, 1.0, 1)
    r = krylov_min_residual(inst, 1)
    assert r == pytest.approx(1.0 / 28.0, rel=1e-9)
    assert r >= 3.0 / 128.0


def test_min_residual_closed_form_and_monotone():
    for (L, D) in [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0)]:
        for k in (1, 2, 5):
            inst = make_hard_instance(L, D, k)
            expected = L ** 2 * inst.gamma ** 2 / (16.0 * (k + 1))
            assert krylov_min_residual(inst, k) == pytest.approx(expected, rel=1e-9)
            assert expected >= 3.0 * L ** 2 * D ** 2 / (32.0 * (k + 1) ** 2)
        vals = [krylov_min_residual(inst, j) for j in range(0, inst.p + 1)]
        assert all(vals[j + 1] <= vals[j] + 1e-12 for j in range(len(vals) - 1))


def test_hard_saddle_xy():
    p = make_hard_saddle("xy", L=1.0, D=1.0, k=3)
    assert p.L_xy <= 1.0 + 1e-12
    assert p.L_x == 0.0 and p.L_y == 0.0
    g = restricted_gap(p, p.saddle)
    assert g.exact and abs(g.value) <= 1e-9


def test_hard_saddle_x_scaling():
    p = make_hard_saddle("x", L=4.0, D=1.0, k=2)
    # chain built at sqrt(L): the squared spectral norm stays below L
    assert p.L_x <= 4.0 + 1e-9
    assert np.linalg.norm(p.saddle[0]) == pytest.approx(1.0, rel=1e-10)
    g = restricted_gap(p, p.saddle)
    assert g.exact and abs(g.value) <= 1e-12


def test_gap_lower_bound_on_confined_candidates():
    # On the instance built for order k, any candidate whose x stays inside
    # H^k keeps gap >= L D_x D_y / (3 (k + 1)).
    L = D = 1.0
    for k in (1, 2, 3, 5):
        inst = make_hard_instance(L, D, k)
        prob = make_hard_saddle("xy", L=L, D=D, k=k)
        floor = L * D * D / (3.0 * (k + 1))
        Q = krylov_basis(inst.A, inst.b, k, side="x")
        rng = np.random.default_rng(k)
        for _ in range(6):
            x = Q @ rng.standard_normal(Q.shape[1])
            nrm = np.linalg.norm(x)
            if nrm > D:
                x *= D / nrm
            y = rng.standard_normal(inst.A.shape[0])
            y *= min(1.0, 1.0 / np.linalg.norm(y))
            gap = restricted_gap(prob, (x, y))
            assert gap.value >= floor - 1e-9


def test_residual_floor_on_fixed_instance():
    # On one fixed instance the exact per-order floor is D_y * sqrt(2 r_j)
    # with r_j the Krylov-restricted least-squares minimum.
    inst = make_hard_instance(1.0, 1.0, 5)
    prob = make_hard_saddle("xy", L=1.0, D=1.0, k=5)
    rng = np.random.default_rng(0)
    for j in range(0, 5):
        floor = np.sqrt(2.0 * krylov_min_residual(inst, j))
        Q = krylov_basis(inst.A, inst.b, j, side="x")
        for _ in range(4):
            x = (Q @ rng.standard_normal(Q.shape[1])
                 if Q.shape[1] else np.zeros(inst.A.shape[1]))
            nrm = np.linalg.norm(x)
            if nrm > 1.0:
                x /= nrm
            gap = restricted_gap(prob, (x, np.zeros(inst.A.shape[0])))
            assert gap.value >= floor - 1e-9


def test_chain_saddle_skips_least_squares(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("least-squares solve on the chain instance")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    v_star = make_hard_instance(1, 1, 500).v_star
    for kind, active, inert_dim in (("xy", 0, 1002), ("x", 0, 1), ("y", 1, 1)):
        p = make_hard_saddle(kind, 1, 1, 500)
        assert np.array_equal(p.saddle[active], v_star)
        assert np.array_equal(p.saddle[1 - active], np.zeros(inert_dim))


@pytest.mark.parametrize("k, limit", [(500, 1e6), (5000, 5e6)])
def test_chain_saddle_never_builds_the_dense_matrix(k, limit):
    # The dense chain is 8 MB at k = 500 and 800 MB at k = 5000; its
    # triplets and vectors take O(k).
    tracemalloc.start()
    try:
        make_hard_saddle("xy", 1, 1, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit


@pytest.mark.parametrize("pad", [0, 3], ids=["default", "padded"])
@pytest.mark.parametrize("k", [5, 50, 63, 100, 500])
@pytest.mark.parametrize("kind", ["xy", "x", "y"])
def test_chain_triplets_multiply_as_the_dense_matrix(kind, k, pad):
    # k = 63 sits on the kernel threshold (nnz * 64 == m * n, triplets);
    # k <= 50 takes the BLAS kernel, so the builders keep a dense array.
    p = 2 * k + 1
    m, n = p + 1 + pad, p + pad
    L, D = 4.0, 1.5
    scale = L if kind == "xy" else np.sqrt(L)
    dense = make_hard_instance(scale, D, k, m, n).A
    if pad == 0:
        prob = make_hard_saddle(kind, L, D, k, D_other=D)
    else:
        _, _, A, b, v = _chain(scale, D, k, m, n)
        assert np.array_equal(np.asarray(A), dense)
        prob = (make_bilinear(A, b, D_x=D, D_y=D, x_star=v) if kind == "xy"
                else make_quadratic(A, b, side=kind, D_x=D, D_y=D, x_star=v))
    st = prob.structure
    assert isinstance(st["A"], np.ndarray) == (k <= 50)
    assert np.array_equal(np.asarray(st["A"]), dense)
    matvec, rmatvec = _matrix_products(dense)
    rng = np.random.default_rng(k + pad)
    for _ in range(2):
        x, y = rng.normal(size=n), rng.normal(size=m)
        assert np.array_equal(st["matvec"](x), matvec(x))
        assert np.array_equal(st["rmatvec"](y), rmatvec(y))
    norm = spectral_norm(dense)
    want = {"xy": (0.0, 0.0, norm), "x": (norm ** 2, 0.0, 0.0),
            "y": (0.0, norm ** 2, 0.0)}[kind]
    assert (prob.L_x, prob.L_y, prob.L_xy) == want
    if kind != "xy":
        # The least-squares path on the dense matrix decides the same
        # consistency and default-ball tests, so the same closed-form gap.
        ref = make_quadratic(dense, st["b"], side=kind, D_x=D, D_y=D)
        assert st["consistent"] == ref.structure["consistent"]
        cand = (rng.normal(size=prob.nx), rng.normal(size=prob.ny))
        got, want = restricted_gap(prob, cand), restricted_gap(ref, cand)
        assert got.method == want.method == "quadratic-closed-form"
        assert got.value == want.value


def test_chain_gap_matches_dense_formula():
    p = make_hard_saddle("xy", 1.0, 1.0, 500)
    A, b = p.structure["A"], p.structure["b"]
    rng = np.random.default_rng(4)
    for _ in range(3):
        x, y = rng.normal(size=1001), rng.normal(size=1002)
        x /= 2.0 * np.linalg.norm(x)
        y /= 2.0 * np.linalg.norm(y)
        g = restricted_gap(p, (x, y))
        # max_y <Ax - b, y> - min_x (<A^T y, x> - <b, y>) over unit balls
        want = (np.linalg.norm(A @ x - b) + np.linalg.norm(A.T @ y)
                + float(b @ y))
        assert g.exact
        assert g.value == pytest.approx(want, rel=1e-12)
