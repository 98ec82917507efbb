import tracemalloc

import numpy as np
import pytest

from saddlesplit.hard_instances import (
    _chain, chain_norm, krylov_index, make_hard_saddle, residual_floor,
)
from saddlesplit.evaluation import restricted_gap
from saddlesplit.problems import (
    TripletMatrix, _diagonal_runs, _matrix_products, make_bilinear,
    make_quadratic,
)

from krylov_reference import krylov_basis, krylov_min_residual


def _gamma(D, k):
    p = 2 * k + 1
    return D * np.sqrt(6.0 * (p + 1) / (p * (2.0 * p + 1.0)))


def test_chain_triplets_are_the_scaled_difference_chain():
    # The chain's definition: (L/2) B with B the (p+1) x p bidiagonal
    # matrix of ones on the diagonal and minus ones below it.
    L = 3.0
    for k in range(1, 6):
        p = 2 * k + 1
        B = np.eye(p + 1, p) - np.eye(p + 1, p, k=-1)
        assert np.array_equal(np.asarray(_chain(L, 1.0, k)[2]), L / 2 * B)


def test_construction_frozen_k1():
    p, gamma, A, b, v = _chain(2.0, 1.0, 1)
    assert p == 3
    assert np.asarray(A)[0, 0] == pytest.approx(1.0)   # (L/2) * 1
    assert gamma == pytest.approx(np.sqrt(8.0 / 7.0), rel=1e-12)
    assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(np.asarray(A) @ v, b, atol=1e-12)


def test_operator_norm_and_distance():
    for (L, D, k) in [(1.0, 1.0, 1), (0.5, 2.0, 3), (2.0, 0.5, 7)]:
        _, _, A, _, v = _chain(L, D, k)
        assert np.linalg.svd(np.asarray(A))[1][0] <= L + 1e-12
        assert np.linalg.norm(v) == pytest.approx(D, rel=1e-12)


def test_precondition_violation():
    with pytest.raises(ValueError, match="at least 1"):
        make_hard_saddle("xy", 1.0, 1.0, 0)
    with pytest.raises(ValueError):
        make_hard_saddle("xy", -1.0, 1.0, 1)
    with pytest.raises(ValueError, match="must be an integer"):
        make_hard_saddle("xy", 1.0, 1.0, 2.5)
    for j in (-1, 8):
        with pytest.raises(ValueError, match=r"must lie in \[0, 7\]"):
            residual_floor(1.0, 1.0, 3, j)


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
            residual_floor(k=3, j=0, **scales)


def test_krylov_spans_leading_coordinates():
    st = make_hard_saddle("xy", 1.0, 1.0, 4).structure
    A, b = st["A"], st["b"]
    n = b.size - 1
    for k in range(1, 5):
        Q = krylov_basis(A, b, k, side="x")
        assert Q.shape[1] == k
        assert np.allclose(Q.T @ Q, np.eye(k), atol=1e-10)
        # span equals exactly the first k coordinates
        assert np.array_equal(Q[k:], np.zeros((n - k, k)))
        assert krylov_index((Q[:, -1], np.zeros(n + 1)), b) == k
    # On the order-10 chain a random point of either side's order-j basis
    # has index exactly j.
    st = make_hard_saddle("xy", 1.0, 1.0, 10).structure
    A, b = st["A"], st["b"]
    rng = np.random.default_rng(42)
    for side in ("x", "y"):
        for j in range(7):
            Q = krylov_basis(A, b, j, side=side)
            assert Q.shape[1] == j
            v = Q @ rng.normal(size=j)
            cand = ((v, np.zeros(b.size)) if side == "x"
                    else (np.zeros(b.size - 1), v))
            assert krylov_index(cand, b) == j, (side, j)


def test_krylov_index_of_the_y_side():
    # K_j(y) is span{b} plus the zero-sum vectors on the first j entries.
    b = make_hard_saddle("xy", 1.0, 1.0, 4).structure["b"]
    zero = np.zeros(b.size - 1)
    diff = np.zeros(b.size)
    diff[[2, 3]] = 1.0, -1.0                 # in K_4(y), not in K_3(y)
    assert krylov_index((zero, np.zeros(b.size)), b) == 0
    assert krylov_index((zero, -2.0 * b), b) == 1
    assert krylov_index((zero, 0.5 * b + diff), b) == 4
    assert krylov_index((zero, np.ones(b.size)), b) is None   # sum != 0
    x = np.zeros(b.size - 1)
    x[5] = 1.0
    assert krylov_index((x, 0.5 * b + diff), b) == 6


def test_min_residual_frozen():
    st = make_hard_saddle("xy", 1.0, 1.0, 1).structure
    r = krylov_min_residual(st["A"], st["b"], 1)
    assert r == pytest.approx(1.0 / 28.0, rel=1e-9)
    assert r == pytest.approx(residual_floor(1.0, 1.0, 1, 1), rel=1e-12)
    assert r >= 3.0 / 128.0


def test_min_residual_closed_form_and_monotone():
    for (L, D) in [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0)]:
        for k in (1, 2, 5):
            st = make_hard_saddle("xy", L, D, k).structure
            expected = L ** 2 * _gamma(D, k) ** 2 / (16.0 * (k + 1))
            assert residual_floor(L, D, k, k) == pytest.approx(
                expected, rel=1e-12)
            # Past j = k + 1 the brute-force basis can drop a direction
            # (L = 0.5, k = 5 loses one at j = 11).
            for j in range(0, k + 2):
                assert krylov_min_residual(st["A"], st["b"], j) == \
                    pytest.approx(residual_floor(L, D, k, j), rel=1e-9)
            assert expected >= 3.0 * L ** 2 * D ** 2 / (32.0 * (k + 1) ** 2)
        vals = [residual_floor(L, D, k, j) for j in range(0, 2 * k + 2)]
        assert all(vals[j + 1] <= vals[j] for j in range(len(vals) - 1))
        assert vals[-1] == 0.0


def test_krylov_tools_never_build_the_dense_matrix():
    # At k = 5000 the dense chain would take 800 MB; the brute-force
    # residual and the closed-form index multiply through the triplets.
    _, _, A, b, _ = _chain(1.0, 1.0, 5000)
    x = np.zeros(A.shape[1])
    x[:5] = 1.0
    tracemalloc.start()
    try:
        r = krylov_min_residual(A, b, 5)
        j = krylov_index((x, 0.5 * b), b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6
    assert r == pytest.approx(residual_floor(1.0, 1.0, 5000, 5), rel=1e-9)
    assert j == 5


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
        prob = make_hard_saddle("xy", L=L, D=D, k=k)
        floor = L * D * D / (3.0 * (k + 1))
        Q = krylov_basis(prob.structure["A"], prob.structure["b"], k,
                         side="x")
        rng = np.random.default_rng(k)
        for _ in range(6):
            x = Q @ rng.standard_normal(Q.shape[1])
            nrm = np.linalg.norm(x)
            if nrm > D:
                x *= D / nrm
            y = rng.standard_normal(prob.ny)
            y *= min(1.0, 1.0 / np.linalg.norm(y))
            gap = restricted_gap(prob, (x, y))
            assert gap.value >= floor - 1e-9


def test_residual_floor_on_fixed_instance():
    # On one fixed instance the exact per-order floor is D_y * sqrt(2 r_j)
    # with r_j the Krylov-restricted least-squares minimum; K_j(x) is the
    # span of the first j coordinates.
    prob = make_hard_saddle("xy", L=1.0, D=1.0, k=5)
    rng = np.random.default_rng(0)
    for j in range(0, 5):
        floor = np.sqrt(2.0 * residual_floor(1.0, 1.0, 5, j))
        for _ in range(4):
            x = np.zeros(prob.nx)
            x[:j] = rng.standard_normal(j)
            nrm = np.linalg.norm(x)
            if nrm > 1.0:
                x /= nrm
            gap = restricted_gap(prob, (x, np.zeros(prob.ny)))
            assert gap.value >= floor - 1e-9


def test_chain_saddle_skips_least_squares(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("least-squares solve on the chain instance")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    v_star = _chain(1, 1, 500)[4]
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
    _, _, chain, b0, v0 = _chain(scale, D, k)
    dense = np.zeros((m, n))
    dense[:p + 1, :p] = np.asarray(chain)
    if pad == 0:
        prob = make_hard_saddle(kind, L, D, k, D_other=D)
    else:
        # The chain's triplets in a larger matrix, whose trailing rows and
        # columns hold no nonzero.
        A = TripletMatrix((m, n), chain.rows, chain.cols, chain.vals)
        b, v = np.zeros(m), np.zeros(n)
        b[:p + 1], v[:p] = b0, v0
        assert np.array_equal(np.asarray(A), dense)
        prob = (make_bilinear(A, b, D_x=D, D_y=D, x_star=v) if kind == "xy"
                else make_quadratic(A, b, side=kind, D_x=D, D_y=D, x_star=v))
    st = prob.structure
    assert isinstance(st["A"], np.ndarray) == (k <= 50)
    assert np.array_equal(np.asarray(st["A"]), dense)
    # The reference is BLAS on the dense matrix: the same bits where the
    # builder keeps it, else within the rounding of each entry's terms.
    rng = np.random.default_rng(k + pad)
    for _ in range(2):
        x, y = rng.normal(size=n), rng.normal(size=m)
        for got, M, v in ((st["matvec"](x), dense, x),
                          (st["rmatvec"](y), dense.T, y)):
            want = M @ v
            if k <= 50:
                assert np.array_equal(got, want)
            else:
                assert got.shape == want.shape
                assert np.all(np.abs(got - want)
                              <= 1e-12 * (np.abs(M) @ np.abs(v)))
    # The chain's closed-form norm; the padded triplets, whose norm comes
    # from their dense matrix, have the same singular values.
    norm = chain_norm(scale, k)
    want = {"xy": (0.0, 0.0, norm), "x": (norm ** 2, 0.0, 0.0),
            "y": (0.0, norm ** 2, 0.0)}[kind]
    got = (prob.L_x, prob.L_y, prob.L_xy)
    if pad == 0:
        assert got == want
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    if kind != "xy":
        # The least-squares path on the dense matrix decides the same
        # consistency and default-ball tests, so the same closed-form gap.
        ref = make_quadratic(dense, st["b"], side=kind, D_x=D, D_y=D,
                             norm=norm)
        assert st["consistent"] == ref.structure["consistent"]
        cand = (rng.normal(size=prob.nx), rng.normal(size=prob.ny))
        got, want = restricted_gap(prob, cand), restricted_gap(ref, cand)
        assert got.method == want.method == "quadratic-closed-form"
        assert got.value == want.value


def test_empty_triplet_matrix_multiplies_to_zeros():
    A = TripletMatrix((3, 4), np.zeros(0, dtype=np.intp),
                      np.zeros(0, dtype=np.intp), np.zeros(0))
    # No run, so the products are float zeros (bincount's are integers).
    assert _diagonal_runs(A) == []
    matvec, rmatvec = _matrix_products(A)
    for got, size in ((matvec(np.ones(4)), 3), (rmatvec(np.ones(3)), 4)):
        assert got.dtype == float and np.array_equal(got, np.zeros(size))


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
        want = (np.linalg.norm(A @ x - b)
                + np.linalg.norm(np.asarray(A).T @ y) + float(b @ y))
        assert g.exact
        assert g.value == pytest.approx(want, rel=1e-12)
