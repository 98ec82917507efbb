"""Chain-structured instances with known first-order lower bounds.

The building block is the classic difference-chain least-squares problem.
For an order parameter ``p = 2k + 1`` let ``B`` be the (p+1) x p bidiagonal
matrix with ones on the diagonal and minus ones below it; then ``B^T B`` is
the tridiagonal second-difference matrix, and any method whose iterates stay
in the span of the first ``k`` coordinates keeps a residual of at least a
known constant.  Scaling with

    gamma = D * sqrt(6 (p+1) / (p (2p+1)))

puts the minimiser at distance exactly ``D``.  ``B^T B`` has eigenvalues
``4 sin^2(pi i / (2 (p+1)))``, ``i = 1, ..., p``, so ``A = (L/2) B`` has the
exact norm ``L cos(pi / (2 (p+1)))`` (`chain_norm`), just below ``L``.

The same matrix drives three instance flavours: a pure least-squares problem
for either single agent (kind ``x`` / ``y``) and a bilinear coupling (kind
``xy``) whose restricted gap inherits the residual lower bound.  The matrix
is kept as its ``2p`` nonzero triplets, so a chain costs ``O(k)`` memory;
``np.asarray`` of the triplets gives the dense matrix on demand.

Its Krylov spaces have closed forms, which `krylov_index` and
`residual_floor` evaluate in ``O(p)``; `krylov_basis` and
`krylov_min_residual` are the brute-force reference for small orders.
"""

import numpy as np

from saddlesplit.problems import (TripletMatrix, _matrix_products,
                                  make_bilinear, make_quadratic)


def _check_scales(**scales):
    for name, value in scales.items():
        if not (np.isfinite(value) and value > 0):
            raise ValueError(
                f"scale {name} must be finite and positive, got {value!r}")


def _order(L, D, k):
    """``(p, gamma)`` of the order-``k`` chain at scale ``(L, D)``, after
    checking the arguments."""
    _check_scales(L=L, D=D)
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"order k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"order k must be at least 1, got {k}")
    p = 2 * k + 1
    return p, D * np.sqrt(6.0 * (p + 1) / (p * (2.0 * p + 1.0)))


def chain_norm(L, k):
    """``||A|| = L cos(pi / (2 (p+1)))`` of the order-``k`` chain at scale
    `L`, ``p = 2k + 1``: the largest singular value of ``(L/2) B``."""
    return float(L * np.cos(np.pi / (2.0 * (2 * k + 2))))


def _chain(L, D, k):
    """``(p, gamma, A, b, v_star)`` of the chain instance, with ``A`` as
    the `TripletMatrix` of ``(L/2) B``."""
    p, gamma = _order(L, D, k)
    # The 2p nonzeros in row-major order: (j, j) = L/2, then (j + 1, j) =
    # -L/2, for j = 0, ..., p - 1.
    j = np.arange(p)
    rows, cols, vals = (np.empty(2 * p, dtype=j.dtype),
                        np.empty(2 * p, dtype=j.dtype), np.empty(2 * p))
    rows[0::2], rows[1::2] = j, j + 1
    cols[0::2] = cols[1::2] = j
    vals[0::2], vals[1::2] = 0.5 * L, -0.5 * L
    A = TripletMatrix((p + 1, p), rows, cols, vals)
    u = np.full(p + 1, -1.0 / (p + 1))
    u[0] = p / (p + 1.0)
    b = gamma * 0.5 * L * u
    v = gamma * (p - j) / (p + 1.0)
    return p, gamma, A, b, v


# ---------------------------------------------------------------------------
# Krylov spaces: closed forms and the brute-force reference
# ---------------------------------------------------------------------------

def krylov_index(candidate, b):
    """Smallest ``j`` with ``x`` in ``K_j(x)`` and ``y`` in ``K_j(y)`` for
    ``candidate = (x, y)`` on the chain with right-hand side `b`; None
    when ``y`` lies in no Krylov space.

    ``K_j(x) = span(e_1, ..., e_j)``, so ``x`` must vanish past index
    ``j`` exactly.  ``b`` is a multiple of ``e_1 - 1/(p+1)``, so ``K_j(y)``
    (``{0}`` at ``j = 0``) is ``span{b}`` plus the zero-sum vectors of
    ``span(e_1, ..., e_j)``: ``y`` minus its ``b``-component must vanish
    past index ``j`` and sum to zero, both to ``1e-12 ||y||``.
    """
    x, y = (np.asarray(block, dtype=float) for block in candidate)
    # The position of the last nonzero after a leading 1 is the index.
    j = np.flatnonzero(np.r_[1.0, x])[-1]
    if y.any():
        r = y - (y[-1] / b[-1]) * b
        tol = 1e-12 * np.linalg.norm(y)
        if abs(r.sum()) > tol:
            return None
        j = max(j, 1, np.flatnonzero(np.r_[True, np.abs(r) > tol])[-1])
    return int(j)


def residual_floor(L, D, k, j):
    """``min over K_j(x) of 0.5 ||A v - b||^2`` on the order-``k`` chain
    at scale ``(L, D)``, ``0 <= j <= p``: least squares on the first ``j``
    columns of the chain; ``L^2 gamma^2 / (16 (k+1))`` at ``j = k``."""
    p, gamma = _order(L, D, k)
    if not 0 <= j <= p:
        raise ValueError(f"Krylov order j must lie in [0, {p}], got {j!r}")
    return (L ** 2 * gamma ** 2 / 8.0
            * ((p - j) ** 2 / ((j + 1) * (p + 1) ** 2)
               + (p - j) / (p + 1) ** 2))


def krylov_basis(A, b, k, side="x"):
    """Orthonormal basis of the order-``k`` Krylov space.

    ``side='x'`` spans ``{A^T b, (A^T A) A^T b, ...}``; ``side='y'`` spans
    ``{b, (A A^T) b, ...}``.  `A` is a dense array or a `TripletMatrix`,
    multiplied through `problems._matrix_products`.  Built by modified
    Gram-Schmidt with one re-orthogonalization pass; directions below
    ``1e-12`` of the largest generator are dropped, so at large ``k``
    (past about 25 on the unit chain) the basis loses columns.
    """
    b = np.asarray(b, dtype=float)
    matvec, rmatvec = _matrix_products(A)
    if side == "x":
        w = rmatvec(b)
        def advance(v):
            return rmatvec(matvec(v))
    elif side == "y":
        w = b.copy()
        def advance(v):
            return matvec(rmatvec(v))
    else:
        raise ValueError("side must be 'x' or 'y'")
    gens = []
    for _ in range(k):
        gens.append(w)
        w = advance(w)
    scale = max((np.linalg.norm(g) for g in gens), default=0.0)
    cols = []
    for g in gens:
        r = g.copy()
        for _ in range(2):          # MGS + re-orthogonalization
            for q in cols:
                r = r - (q @ r) * q
        nrm = np.linalg.norm(r)
        if scale == 0.0 or nrm <= 1e-12 * scale:
            continue
        cols.append(r / nrm)
    if not cols:
        return np.zeros((w.size, 0))
    return np.stack(cols, axis=1)


def krylov_min_residual(A, b, j):
    """``min_{v in K_j(x)} 0.5 * ||A v - b||^2`` by brute-force least
    squares.

    Independent of any solver and of the chain's closed forms: restrict
    to the `krylov_basis` of order `j` and solve the small system by
    orthogonal factorization.
    """
    b = np.asarray(b, dtype=float)
    Q = krylov_basis(A, b, j, side="x")
    if Q.shape[1] == 0:
        return 0.5 * float(np.linalg.norm(b) ** 2)
    matvec, _ = _matrix_products(A)
    AQ = np.stack([matvec(q) for q in Q.T], axis=1)
    c, _, _, _ = np.linalg.lstsq(AQ, b, rcond=None)
    return 0.5 * float(np.linalg.norm(AQ @ c - b) ** 2)


# ---------------------------------------------------------------------------
# saddle wrappers
# ---------------------------------------------------------------------------

def make_hard_saddle(kind, L, D, k, D_other=1.0, name=None):
    """Saddle instance built on the chain construction.

    ``kind='xy'`` couples the two agents bilinearly with ``L_xy = L
    cos(pi / (2 (p+1)))``; ``kind='x'`` (resp. ``'y'``) gives the
    single-agent least-squares problem with ``L_x = L cos^2(pi / (2
    (p+1)))`` (the chain is built at scale ``sqrt(L)`` so the squared norm
    matches).  The scales ``L``, ``D`` and ``D_other`` must be finite and
    positive.  The builders get the chain's triplets, its known solution
    and its `chain_norm`, so no dense matrix, no least-squares solve and
    no `spectral_norm` call is made.  The arguments are kept as
    ``structure["recipe"]``, which `save_instance` writes instead of the
    matrix.
    """
    _check_scales(L=L, D=D, D_other=D_other)
    if name is None:
        name = f"hard_{kind}"
    if kind == "xy":
        _, _, A, b, v = _chain(L, D, k)
        p = make_bilinear(A, b, D_x=D, D_y=D_other, name=name, x_star=v,
                          norm=chain_norm(L, k))
    elif kind in ("x", "y"):
        _, _, A, b, v = _chain(np.sqrt(L), D, k)
        side_D = {"D_x": D, "D_y": D_other} if kind == "x" else \
                 {"D_x": D_other, "D_y": D}
        p = make_quadratic(A, b, side=kind, name=name, x_star=v,
                           norm=chain_norm(np.sqrt(L), k), **side_D)
    else:
        raise ValueError("kind must be 'xy', 'x', or 'y'")
    p.structure["recipe"] = {"kind": f"hard_{kind}", "L": float(L),
                             "D": float(D), "k": int(k),
                             "D_other": float(D_other)}
    return p
