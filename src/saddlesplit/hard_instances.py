"""Chain-structured instances with known first-order lower bounds.

The building block is the classic difference-chain least-squares problem.
For an order parameter ``p = 2k + 1`` let ``B`` be the (p+1) x p bidiagonal
matrix with ones on the diagonal and minus ones below it; then ``B^T B`` is
the tridiagonal second-difference matrix, and any method whose iterates stay
in the span of the first ``k`` coordinates keeps a residual of at least a
known constant.  Scaling with

    gamma = D * sqrt(6 (p+1) / (p (2p+1)))

puts the minimiser at distance exactly ``D`` while ``||A|| <= L``.

The same matrix drives three instance flavours: a pure least-squares problem
for either single agent (kind ``x`` / ``y``) and a bilinear coupling (kind
``xy``) whose restricted gap inherits the residual lower bound.  The saddle
instances keep the matrix as its ``2p`` nonzero triplets, so a chain costs
``O(k)`` memory to build; only `make_hard_instance` scatters it dense.
"""

from dataclasses import dataclass

import numpy as np

from saddlesplit.problems import TripletMatrix, make_bilinear, make_quadratic


def chain_matrices(p):
    """Return ``(B, M)`` with ``B`` the (p+1) x p difference chain and
    ``M = B^T B`` tridiagonal; both in exact integer arithmetic."""
    if p < 1:
        raise ValueError("chain order must be at least 1")
    B = np.zeros((p + 1, p), dtype=np.int64)
    for j in range(p):
        B[j, j] = 1
        B[j + 1, j] = -1
    M = (2 * np.eye(p, dtype=np.int64)
         - np.eye(p, k=1, dtype=np.int64)
         - np.eye(p, k=-1, dtype=np.int64))
    return B, M


@dataclass
class HardInstance:
    """Scaled chain least-squares data.

    ``A`` is ``(L/2) * B`` padded to ``m x n``; ``b`` points along the
    vector that makes ``A^T b`` a multiple of the first basis vector, so
    Krylov spaces grow one coordinate per application of ``A^T A``.
    """
    L: float
    D: float
    k: int
    p: int
    A: np.ndarray
    b: np.ndarray
    gamma: float
    v_star: np.ndarray

    @property
    def shape(self):
        return self.A.shape


def _check_scales(**scales):
    for name, value in scales.items():
        if not (np.isfinite(value) and value > 0):
            raise ValueError(
                f"scale {name} must be finite and positive, got {value!r}")


def _chain(L, D, k, m=None, n=None):
    """``(p, gamma, A, b, v_star)`` of the chain instance, with ``A`` as
    the `TripletMatrix` of ``(L/2) B`` padded to ``m x n``."""
    _check_scales(L=L, D=D)
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"order k must be an integer, got {k!r}")
    p = 2 * k + 1
    if m is None:
        m = p + 1
    if n is None:
        n = p
    if not (1 <= k <= (min(m - 1, n) - 1) / 2):
        raise ValueError("order k does not fit the requested dimensions")
    gamma = D * np.sqrt(6.0 * (p + 1) / (p * (2.0 * p + 1.0)))
    # The 2p nonzeros in row-major order: (j, j) = L/2, then (j + 1, j) =
    # -L/2, for j = 0, ..., p - 1.
    j = np.arange(p)
    rows, cols, vals = (np.empty(2 * p, dtype=j.dtype),
                        np.empty(2 * p, dtype=j.dtype), np.empty(2 * p))
    rows[0::2], rows[1::2] = j, j + 1
    cols[0::2] = cols[1::2] = j
    vals[0::2], vals[1::2] = 0.5 * L, -0.5 * L
    A = TripletMatrix((m, n), rows, cols, vals)
    u = np.full(p + 1, -1.0 / (p + 1))
    u[0] = p / (p + 1.0)
    b = np.zeros(m)
    b[:p + 1] = gamma * 0.5 * L * u
    v = np.zeros(n)
    v[:p] = gamma * (p - j) / (p + 1.0)
    return p, gamma, A, b, v


def make_hard_instance(L, D, k, m=None, n=None):
    """Build the order-``2k+1`` chain instance at scale ``(L, D)``.

    Parameters
    ----------
    L, D : float
        Target operator-norm bound and distance of the minimiser; both
        finite and positive.
    k : int
        Number of Krylov steps the construction defeats; an integer with
        ``1 <= k <= (min(m - 1, n) - 1) / 2``.
    m, n : int, optional
        Ambient dimensions; default to the minimal ``(p + 1, p)``.
    """
    p, gamma, A, b, v = _chain(L, D, k, m, n)
    return HardInstance(L=float(L), D=float(D), k=k, p=p, A=np.asarray(A),
                        b=b, gamma=float(gamma), v_star=v)


# ---------------------------------------------------------------------------
# Krylov tools
# ---------------------------------------------------------------------------

def krylov_basis(A, b, k, side="x"):
    """Orthonormal basis of the order-``k`` Krylov space.

    ``side='x'`` spans ``{A^T b, (A^T A) A^T b, ...}``; ``side='y'`` spans
    ``{b, (A A^T) b, ...}``.  Built by modified Gram-Schmidt with one
    re-orthogonalization pass; directions below ``1e-12`` of the largest
    generator are dropped.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if side == "x":
        w = A.T @ b
        def advance(v):
            return A.T @ (A @ v)
    elif side == "y":
        w = b.copy()
        def advance(v):
            return A @ (A.T @ v)
    else:
        raise ValueError("side must be 'x' or 'y'")
    gens = []
    for _ in range(k):
        gens.append(w)
        w = advance(w)
    if not gens:
        return np.zeros((A.shape[1] if side == "x" else A.shape[0], 0))
    scale = max(np.linalg.norm(g) for g in gens)
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
        return np.zeros((gens[0].size, 0))
    return np.stack(cols, axis=1)


def krylov_min_residual(instance, k):
    """``min_{v in H^k} 0.5 * ||A v - b||^2`` by brute-force least squares.

    Independent of any solver: restrict to the Krylov basis and solve the
    small system by orthogonal factorization.
    """
    A, b = instance.A, instance.b
    Q = krylov_basis(A, b, k, side="x")
    if Q.shape[1] == 0:
        return 0.5 * float(np.linalg.norm(b) ** 2)
    AQ = A @ Q
    c, _, _, _ = np.linalg.lstsq(AQ, b, rcond=None)
    return 0.5 * float(np.linalg.norm(AQ @ c - b) ** 2)


def subspace_residual(Q, v):
    """Euclidean distance from `v` to the column space of `Q`."""
    v = np.asarray(v, dtype=float)
    if Q.shape[1] == 0:
        return float(np.linalg.norm(v))
    return float(np.linalg.norm(v - Q @ (Q.T @ v)))


# ---------------------------------------------------------------------------
# saddle wrappers
# ---------------------------------------------------------------------------

def make_hard_saddle(kind, L, D, k, D_other=1.0, name=None):
    """Saddle instance built on the chain construction.

    ``kind='xy'`` couples the two agents bilinearly with ``L_xy <= L``;
    ``kind='x'`` (resp. ``'y'``) gives the single-agent least-squares
    problem with ``L_x <= L`` (the chain is built at scale ``sqrt(L)`` so
    the squared norm matches).  The scales ``L``, ``D`` and ``D_other``
    must be finite and positive.  The builders get the chain's triplets
    and its known solution, so no dense matrix and no least-squares solve
    is made.  The arguments are kept as ``structure["recipe"]``, which
    `save_instance` writes instead of the matrix.
    """
    _check_scales(L=L, D=D, D_other=D_other)
    if name is None:
        name = f"hard_{kind}"
    if kind == "xy":
        _, _, A, b, v = _chain(L, D, k)
        p = make_bilinear(A, b, D_x=D, D_y=D_other, name=name, x_star=v)
    elif kind in ("x", "y"):
        _, _, A, b, v = _chain(np.sqrt(L), D, k)
        side_D = {"D_x": D, "D_y": D_other} if kind == "x" else \
                 {"D_x": D_other, "D_y": D}
        p = make_quadratic(A, b, side=kind, name=name, x_star=v, **side_D)
    else:
        raise ValueError("kind must be 'xy', 'x', or 'y'")
    p.structure["recipe"] = {"kind": f"hard_{kind}", "L": float(L),
                             "D": float(D), "k": int(k),
                             "D_other": float(D_other)}
    return p
