"""Diagonally scaled metrics on block product spaces.

A block space ``E = E_1 x ... x E_m`` carries the squared norm

    ||z||^2 = sum_i alpha_i * <P_i z_i, z_i>,

where each ``P_i`` is a diagonal positive matrix on block ``i`` and the
``alpha_i > 0`` are block weights.  Gradients live in the dual space with

    ||g||_*^2 = sum_i alpha_i^{-1} * <g_i, P_i^{-1} g_i>.

Keeping ``P_i`` diagonal means every prox and projection used elsewhere in
the package stays closed-form.

The metrics sit in the solvers' innermost loops, so each call is kept to
as few NumPy dispatches as the arithmetic needs: float64 vectors pass the
shape check without being re-wrapped, and norms are one dot product
(``ndarray.dot``, the same BLAS ``ddot`` as ``@`` without matmul's
dispatch) and a correctly rounded square root.  Every shape check is
still made.  `all_finite` is the loops' finiteness test in the same
spirit.

A metric decides once, when it is built, whether its weights are all
ones (`identity`); its weights are a read-only copy, so that decision
cannot go stale.  On the identity path the norms, and the solvers and gap
estimator that read `identity`, skip the multiply or divide by the
weights.  This is exact: in IEEE 754 arithmetic ``x * 1.0`` and
``x / 1.0`` give back ``x`` bit for bit, -0.0, subnormals, infinities and
quiet NaNs included, so every result is the one the weighted arithmetic
gives.
"""

import functools
import math

import numpy as np

_FLOAT64 = np.dtype(float)


@functools.lru_cache(maxsize=64)
def _zeros(n):
    z = np.zeros(n)
    z.flags.writeable = False
    return z


def all_finite(v):
    """Whether every entry of the float vector `v` is finite.

    Gives the answer of ``np.isfinite(v).all()`` in one dot product:
    ``0 * x`` is NaN exactly when ``x`` is infinite or NaN, and a NaN
    term makes the sum NaN.  On an infinite entry NumPy reports the
    invalid ``0 * inf`` under its ``invalid`` error state (a warning by
    default), as it does for the overflow that made the entry.
    """
    return not math.isnan(v.dot(_zeros(v.size)))


class ScaledMetric:
    """Metric ``<P u, v>`` on a single block, with diagonal positive ``P``.

    Parameters
    ----------
    weights : array_like or int
        Diagonal of ``P``, positive and finite; the metric keeps a
        read-only copy.  Passing an integer ``n`` gives the identity
        metric on ``R^n``.
    """

    def __init__(self, weights):
        if np.isscalar(weights) and isinstance(weights, (int, np.integer)):
            weights = np.ones(weights)
        w = np.array(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("metric weights must form a nonempty vector")
        if not np.all((w > 0) & (w < np.inf)):        # NaN fails both
            raise ValueError("metric weights must be positive and finite")
        w.flags.writeable = False
        self.weights = w
        self.identity = bool(np.all(w == 1.0))

    @property
    def dim(self):
        return self.weights.size

    def _check(self, u):
        if type(u) is not np.ndarray or u.dtype is not _FLOAT64:
            u = np.asarray(u, dtype=float)
        if u.shape != self.weights.shape:
            raise ValueError(
                f"vector of shape {u.shape} does not match metric dimension {self.dim}"
            )
        return u

    # No solver calls `inner`; it stays because the bench's span tracer
    # wraps it by name and raises KeyError on a metric class without it.
    def inner(self, u, v):
        """P-inner product ``<P u, v>``."""
        return float(np.dot(self.weights * self._check(u), self._check(v)))

    def norm(self, u):
        """Primal norm ``sqrt(<P u, u>)``."""
        u = self._check(u)
        return math.sqrt((u if self.identity else self.weights * u).dot(u))

    def dual_norm(self, g):
        """Dual norm ``sqrt(<g, P^{-1} g>)``."""
        g = self._check(g)
        return math.sqrt((g if self.identity else g / self.weights).dot(g))

    def apply(self, u):
        """Map a primal vector to its covector, ``u -> P u``."""
        return self.weights * self._check(u)

    def apply_inv(self, g):
        """Map a covector back to the primal space, ``g -> P^{-1} g``."""
        return self._check(g) / self.weights


class ProductMetric:
    """Weighted product of block metrics: ``||z||^2 = sum_i alpha_i ||z_i||_i^2``.

    The product of diagonal metrics is itself diagonal, with weights
    ``concat(alpha_i * P_i)``; it is stored that way, together with the
    block offsets, so every call is one vector operation on the joint
    vector.

    Parameters
    ----------
    blocks : sequence of (ScaledMetric, float)
        Per-block metric and positive weight ``alpha_i``; the joint
        weights ``alpha_i * P_i`` must be finite.
    """

    def __init__(self, blocks):
        if not blocks:
            raise ValueError("a product metric needs at least one block")
        with np.errstate(over="ignore"):
            w = np.concatenate([float(alpha) * metric.weights
                                for metric, alpha in blocks])
        if not np.all((w > 0) & (w < np.inf)):        # NaN fails both
            raise ValueError("block weights alpha_i * P_i must be positive "
                             "and finite")
        w.flags.writeable = False
        self.weights = w
        self.identity = bool(np.all(w == 1.0))
        self.dims = [metric.dim for metric, _ in blocks]
        self.offsets = np.concatenate([[0], np.cumsum(self.dims)])

    # The single-block diagonal arithmetic, applied to the joint weights;
    # `_check` is the one shape check per call; `inner` stays for the tracer.
    dim = ScaledMetric.dim
    _check = ScaledMetric._check
    inner = ScaledMetric.inner
    norm = ScaledMetric.norm
    dual_norm = ScaledMetric.dual_norm
    apply = ScaledMetric.apply
    apply_inv = ScaledMetric.apply_inv

    @property
    def n_blocks(self):
        return len(self.dims)

    def split(self, z):
        """Split a joint vector into per-block views."""
        z = self._check(z)
        return [z[self.offsets[i]:self.offsets[i + 1]] for i in range(self.n_blocks)]

    def join(self, parts):
        """Concatenate per-block vectors into a joint vector."""
        if len(parts) != self.n_blocks:
            raise ValueError("wrong number of blocks")
        for part, d in zip(parts, self.dims):
            shape = part.shape if type(part) is np.ndarray else np.shape(part)
            if shape != (d,):
                raise ValueError("block dimension mismatch in join")
        return np.concatenate(parts, dtype=float)

