"""Brute-force Krylov references for the chain's closed forms.

`hard_instances.krylov_index` and `hard_instances.residual_floor` evaluate
the chain's Krylov spaces in closed form; the tests check them against
these two functions, which build the spaces by Gram-Schmidt and solve the
restricted least-squares problem directly.  Reliable up to orders of
about 25.
"""

import numpy as np

from saddlesplit.problems import _matrix_products


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
