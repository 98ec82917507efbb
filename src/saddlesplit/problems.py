"""Problem containers, prox-friendly composite terms, and instance generators.

Saddle problems are

    min_x max_y  f(x, y) + psi_x(x) - psi_y(y),

with convex-concave smooth ``f`` and simple convex ``psi``.  The associated
monotone operator is ``V(z) = (grad_x f(z), -grad_y f(z))``.  Variational
inequality instances carry one operator block and one composite term per
agent.  All first-order information flows through per-agent oracles so that
query accounting (see :mod:`saddlesplit.accounting`) stays faithful.

Composite terms support exact prox steps in any diagonal metric, canonical
subgradient selection, domain projection, and minimisation against a linear
term; those four operations are everything the solvers need.  Each term
also states whether it is smooth and its strong-convexity modulus; a
`RegularizedTerm` composes both from its summands.
"""

import ast
import configparser
import math
from dataclasses import dataclass

import numpy as np

from saddlesplit.metrics import ScaledMetric

_INF = float("inf")
# A matrix takes the nonzero-triplet products when nnz * this <= m * n.
_SPARSE_PRODUCT_RATIO = 64
# A triplet matrix whose diagonals each hold one contiguous run takes the
# diagonal products when nnz >= this * (number of diagonals): below it a
# diagonal's fixed slicing cost outweighs what it saves over bincount
# (on the chains, about even at runs of 300 entries, k = 150, and 1.5 to
# 2.5 times faster at k = 500).
_DIAGONAL_RUN = 256


# ---------------------------------------------------------------------------
# composite terms
# ---------------------------------------------------------------------------

class CompositeTerm:
    """Interface for the nonsmooth part of one block.

    Every term defines `prox` and `argmin_linear`; the rest default to the
    indicator of the set `contains` accepts: value 0 in it and infinity
    outside, the zero subgradient, and the prox at step 1 as domain
    projection.  Each term also states what the inner solves may assume
    of it, so they never ask which class a psi is: ``smooth``, whether psi
    is differentiable (its `subgradient` is then its gradient), and
    ``modulus``, its known strong-convexity modulus in the block metric
    (0 when none is known).  The gap side asks two more: ``indicator``,
    whether psi is 0 on its domain, and `meet_ball`.
    """
    smooth = False
    modulus = 0.0
    indicator = True

    def meet_ball(self, center, radius):
        """``(r, psi_left)``: the ball of `radius` around `center` within
        dom psi is the ball of ``r`` within dom `psi_left` (None: all)."""
        return radius, self

    def value(self, metric, w):
        return 0.0 if self.contains(metric, w) else _INF

    def prox(self, metric, v, step):
        """``argmin_w  psi(w) + 1/(2*step) * ||w - v||_P^2`` (exact)."""
        raise NotImplementedError

    def argmin_linear(self, metric, cov, fallback=None):
        """``argmin_w  <cov, w> + psi(w)`` for an array_like covector.

        Needed when a block operator is constant: the regularised
        subproblem is then linear-plus-composite and solvable in closed
        form.  Where every point of a flat direction minimises, `fallback`
        (the caller's anchor) is taken if given; an objective unbounded
        below raises ValueError.
        """
        raise NotImplementedError

    def subgradient(self, metric, w):
        """A canonical element of the subdifferential at `w`."""
        return np.zeros_like(np.asarray(w, dtype=float))

    def project_domain(self, metric, v):
        """Metric projection of `v` onto the domain."""
        return self.prox(metric, v, 1.0)

    def contains(self, metric, w, tol=1e-9):
        return True


class ZeroTerm(CompositeTerm):
    """psi = 0, the indicator of the whole space."""
    smooth = True

    def meet_ball(self, center, radius):
        return radius, None

    def prox(self, metric, v, step):
        return np.array(v, dtype=float, copy=True)

    def argmin_linear(self, metric, cov, fallback=None):
        if np.linalg.norm(cov) <= 1e-14 and fallback is not None:
            return np.array(fallback, dtype=float, copy=True)
        raise ValueError("linear objective is unbounded below on a free block")


def _finite(name, values):
    """`values` as a float array; ValueError naming `name` unless every
    entry is finite."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be finite")
    return values


class QuadraticReg(CompositeTerm):
    """psi(w) = (mu/2) * ||w - center||_P^2 in the block metric: smooth,
    with modulus ``mu``, which must be finite and nonnegative; the center
    must be finite."""
    smooth = True
    indicator = False

    def __init__(self, mu, center):
        if not (math.isfinite(mu) and mu >= 0):
            raise ValueError(
                f"quadratic modulus must be finite and nonnegative, got {mu!r}")
        self.mu = self.modulus = float(mu)
        self.center = _finite("center", center)

    def value(self, metric, w):
        return 0.5 * self.mu * metric.norm(np.asarray(w) - self.center) ** 2

    def prox(self, metric, v, step):
        # The metric cancels: minimiser of (1/2s)|w-v|^2 + (mu/2)|w-c|^2.
        v = np.asarray(v, dtype=float)
        return (v + step * self.mu * self.center) / (1.0 + step * self.mu)

    def argmin_linear(self, metric, cov, fallback=None):
        if self.mu == 0:
            raise ValueError("flat quadratic cannot absorb a linear term")
        return self.center - metric.apply_inv(cov) / self.mu

    def subgradient(self, metric, w):
        return self.mu * metric.apply(np.asarray(w) - self.center)

    def project_domain(self, metric, v):
        return np.array(v, dtype=float, copy=True)


class BallIndicator(CompositeTerm):
    """Indicator of the metric ball ``||w - center||_P <= radius``, with a
    positive finite radius and a finite center."""

    def __init__(self, center, radius):
        if not (math.isfinite(radius) and radius > 0):
            raise ValueError(
                f"ball radius must be positive and finite, got {radius!r}")
        self.center = _finite("center", center)
        self.radius = float(radius)

    def meet_ball(self, center, radius):
        # Merged when concentric with the ball, to 1e-12 absolute.
        if np.allclose(self.center, center, rtol=0.0, atol=1e-12):
            return min(radius, self.radius), None
        return radius, self

    def prox(self, metric, v, step):
        return ball_project(metric, self.center, self.radius, v)

    def argmin_linear(self, metric, cov, fallback=None):
        dual = metric.dual_norm(cov)
        if dual == 0.0:
            return np.array(self.center, copy=True)
        return self.center - self.radius * metric.apply_inv(cov) / dual

    def contains(self, metric, w, tol=1e-9):
        return metric.norm(np.asarray(w) - self.center) <= self.radius + tol * (
            1.0 + self.radius)


class BoxIndicator(CompositeTerm):
    """Indicator of the box ``lower <= w <= upper`` (coordinatewise).

    A bound may be infinite but not NaN.  A covector entry that points
    toward an infinite bound leaves `argmin_linear` unbounded below; a
    zero entry takes the midpoint of two finite bounds, and otherwise the
    fallback's entry.
    """

    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        if np.isnan(self.lower).any() or np.isnan(self.upper).any():
            raise ValueError("box bounds must not be NaN")
        if np.any(self.lower > self.upper):
            raise ValueError("box bounds are inconsistent")

    def prox(self, metric, v, step):
        # Exact for diagonal metrics.
        return np.clip(np.asarray(v, dtype=float), self.lower, self.upper)

    def argmin_linear(self, metric, cov, fallback=None):
        cov = np.asarray(cov, dtype=float)
        lower, upper = self.lower, self.upper
        w = np.where(cov > 0, lower, upper)
        flat = cov == 0
        if not np.isfinite(w[~flat]).all():
            raise ValueError("linear objective is unbounded below on the box")
        middle = flat & np.isfinite(lower) & np.isfinite(upper)
        w[middle] = 0.5 * (lower[middle] + upper[middle])
        free = flat & ~middle
        if free.any():
            if fallback is None:
                raise ValueError("a zero covector entry on an unbounded "
                                 "side of the box has no unique minimiser")
            w[free] = np.asarray(fallback, dtype=float)[free]
        return w

    def contains(self, metric, w, tol=1e-9):
        # The tolerance scales with the finite bounds only; an infinite
        # one would accept every point.
        w = np.asarray(w, dtype=float)
        bounds = np.concatenate([self.lower, self.upper])
        scale = 1.0 + float(np.max(np.abs(bounds[np.isfinite(bounds)]),
                                   initial=0.0))
        return bool(np.all(np.isfinite(w))
                    and np.all(w >= self.lower - tol * scale)
                    and np.all(w <= self.upper + tol * scale))


class RegularizedTerm(CompositeTerm):
    """Sum of a quadratic and another term: ``psi = quad + base``.

    Used by the decoupled inner solves, where the anchor regulariser is added
    on top of the block's own composite term.  The sum is as smooth as
    ``base``, and its modulus counts both summands: ``quad.mu +
    base.modulus``.
    """
    indicator = False

    def __init__(self, quad, base):
        if not isinstance(quad, QuadraticReg):
            raise TypeError("first summand must be a QuadraticReg")
        if isinstance(base, RegularizedTerm):
            raise TypeError("nested regularised terms are not supported")
        self.quad = quad
        self.base = base
        self.smooth = base.smooth
        self.modulus = quad.mu + base.modulus

    def value(self, metric, w):
        return self.quad.value(metric, w) + self.base.value(metric, w)

    def prox(self, metric, v, step):
        # Absorb the quadratic first, then prox the base with a shrunk step.
        mu, c = self.quad.mu, self.quad.center
        v = np.asarray(v, dtype=float)
        shrink = 1.0 + step * mu
        return self.base.prox(metric, (v + step * mu * c) / shrink, step / shrink)

    def argmin_linear(self, metric, cov, fallback=None):
        mu, c = self.quad.mu, self.quad.center
        if mu == 0:
            return self.base.argmin_linear(metric, cov, fallback)
        return self.base.prox(metric, c - metric.apply_inv(cov) / mu, 1.0 / mu)

    def subgradient(self, metric, w):
        return self.quad.subgradient(metric, w) + self.base.subgradient(metric, w)

    def project_domain(self, metric, v):
        return self.base.project_domain(metric, v)

    def contains(self, metric, w, tol=1e-9):
        return self.base.contains(metric, w, tol)


def ball_project(metric, center, radius, v):
    """Metric projection of `v` onto the ball ``||w - center||_P <= radius``."""
    d = np.asarray(v, dtype=float) - center
    nrm = metric.norm(d)
    return center + (d if nrm <= radius else d * (radius / nrm))


# ---------------------------------------------------------------------------
# problem containers
# ---------------------------------------------------------------------------

def _check_agents(diameters, costs, L):
    """Positive finite diameters, one finite nonnegative cost each, and a
    block Lipschitz matrix `L` of finite nonnegative entries."""
    for D in diameters:
        if not (math.isfinite(D) and D > 0):
            raise ValueError(f"diameters must be positive and finite, got {D!r}")
    if len(costs) != len(diameters) or not all(
            math.isfinite(c) and c >= 0 for c in costs):
        raise ValueError(f"costs must be {len(diameters)} finite nonnegative "
                         f"numbers, one per agent, got {costs!r}")
    values = np.asarray(L, dtype=float)
    if not np.all((values >= 0) & (values < _INF)):      # NaN fails both
        raise ValueError("Lipschitz constants must be finite and "
                         f"nonnegative, got {L!r}")


def _check_starts(agents, psis, metrics, starts):
    """Each agent's start block finite and in the domain of its psi."""
    for agent, psi, metric, w in zip(agents, psis, metrics, starts):
        _finite(f"the start of agent {agent}", w)
        if not math.isfinite(psi.value(metric, w)):
            raise ValueError(f"the start of agent {agent} lies outside "
                             "dom psi")


@dataclass
class SaddleProblem:
    """Two-agent saddle problem with per-agent first-order oracles.

    ``grad_x(z)`` and ``grad_y(z)`` return the partial gradients of ``f``
    in ``x`` and in ``y`` at ``z = (x, y)``, on every instance.  The
    monotone operator is ``V = (grad_x, -grad_y)``; `oracles` is the one
    place that writes its y sign.  ``D_x`` and ``D_y`` must be positive and
    finite, the Lipschitz constants and ``costs`` finite and nonnegative,
    and each start block finite and in the domain of its psi (ValueError
    otherwise).  ``agents`` names the two agents for an `OracleLedger`.

    The problem also reads as the two-block case of `VipProblem`:
    ``psis``, ``metrics``, ``D``, ``z0``, ``block_is_gradient``, the
    block Lipschitz matrix ``L = ((L_x, L_xy), (L_xy, L_y))`` and
    `oracles` read the fields, so code written for blocks needs no saddle
    branch.
    """
    agents = ("x", "y")
    block_is_gradient = (True, True)

    grad_x: object
    grad_y: object
    psi_x: CompositeTerm
    psi_y: CompositeTerm
    x0: np.ndarray
    y0: np.ndarray
    L_x: float
    L_y: float
    L_xy: float
    D_x: float
    D_y: float
    metric_x: ScaledMetric = None
    metric_y: ScaledMetric = None
    costs: tuple = (1.0, 1.0)
    saddle: tuple = None
    f_value: object = None
    structure: dict = None
    name: str = ""

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        self.y0 = np.asarray(self.y0, dtype=float)
        if self.metric_x is None:
            self.metric_x = ScaledMetric(self.x0.size)
        if self.metric_y is None:
            self.metric_y = ScaledMetric(self.y0.size)
        _check_agents(self.D, self.costs, self.L)
        _check_starts(self.agents, self.psis, self.metrics, self.z0)

    @property
    def nx(self):
        return self.x0.size

    @property
    def ny(self):
        return self.y0.size

    @property
    def z0(self):
        return (self.x0.copy(), self.y0.copy())

    # The two-block view, read-only.
    psis = property(lambda self: (self.psi_x, self.psi_y))
    metrics = property(lambda self: (self.metric_x, self.metric_y))
    D = property(lambda self: (self.D_x, self.D_y))
    L = property(lambda self: ((self.L_x, self.L_xy), (self.L_xy, self.L_y)))

    def oracles(self, sink):
        """The blocks of ``V`` on ``z = (x, y)``, ``grad_x`` and
        ``-grad_y``, each query recorded through ``sink.bind`` as its
        agent's own answer (``grad_y`` before it is negated)."""
        ox, oy = (sink.bind(a, g)
                  for a, g in zip(self.agents, (self.grad_x, self.grad_y)))
        return [ox, lambda z: np.negative(oy(z))]


@dataclass
class VipProblem:
    """K-agent monotone variational inequality with block oracles.

    ``operators[i]`` maps a list of block vectors to the i-th operator
    block.  ``L[i][j]``, finite and nonnegative, bounds the variation of
    block ``i`` against block ``j``; ``D[i]`` is the radius of the
    restriction ball of block ``i``.  Each block of ``z0`` must be finite
    and lie in the domain of its psi.
    """
    operators: list
    psis: list
    z0: list
    L: np.ndarray
    D: list
    metrics: list = None
    costs: list = None
    solution: list = None
    block_is_gradient: list = None
    structure: dict = None
    name: str = ""

    def __post_init__(self):
        self.z0 = [np.asarray(b, dtype=float) for b in self.z0]
        self.L = np.asarray(self.L, dtype=float)
        K = len(self.operators)
        if not (len(self.psis) == len(self.z0) == len(self.D) == K):
            raise ValueError("inconsistent number of blocks")
        if self.L.shape != (K, K):
            raise ValueError("L must be a K x K matrix")
        if self.metrics is None:
            self.metrics = [ScaledMetric(b.size) for b in self.z0]
        if self.costs is None:
            self.costs = [1.0] * K
        _check_agents(self.D, self.costs, self.L)
        _check_starts(self.agents, self.psis, self.metrics, self.z0)
        if self.block_is_gradient is None:
            self.block_is_gradient = [False] * K

    @property
    def K(self):
        return len(self.operators)

    @property
    def agents(self):
        """Agent names for an `OracleLedger`: ``("1", ..., "K")``."""
        return tuple(str(i + 1) for i in range(self.K))

    @property
    def dims(self):
        return [b.size for b in self.z0]

    def oracles(self, sink):
        """``operators``, each query recorded through ``sink.bind``."""
        return [sink.bind(a, op) for a, op in zip(self.agents, self.operators)]


# ---------------------------------------------------------------------------
# matrices and their products
# ---------------------------------------------------------------------------

@dataclass
class TripletMatrix:
    """A sparse matrix kept as its nonzero ``(row, col, value)`` triplets.

    ``rows``, ``cols`` and ``vals`` list the nonzeros in row-major order,
    the order ``np.nonzero`` gives, so products over the triplets sum in
    the same order as those over a dense scan and agree bit for bit.  The
    type has no arithmetic: `_matrix_products` multiplies through it, and
    ``np.asarray`` gives the dense matrix (so ``A @ x`` on NumPy vectors
    is the dense product).
    """
    shape: tuple
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @property
    def size(self):
        """Entries of the dense form, as ``ndarray.size``."""
        return self.shape[0] * self.shape[1]

    @property
    def nbytes(self):
        """Bytes of the stored triplets."""
        return self.rows.nbytes + self.cols.nbytes + self.vals.nbytes

    def __array__(self, dtype=None, copy=None):
        A = np.zeros(self.shape)
        A[self.rows, self.cols] = self.vals
        return A if dtype is None else A.astype(dtype, copy=False)


def _product_operand(A):
    """`A` in the form its products multiply through.

    Matrices with at most one nonzero in `_SPARSE_PRODUCT_RATIO` entries
    (the chain instances of :mod:`saddlesplit.hard_instances`) become
    `TripletMatrix`, multiplied in ``O(nnz)``; denser ones are dense
    float arrays for the BLAS product, which is faster there.  Triplets
    are densified only in that case, which the ratio limits to small
    matrices.
    """
    if isinstance(A, TripletMatrix):
        if _SPARSE_PRODUCT_RATIO * A.vals.size > A.size:
            return np.asarray(A)
        return A
    A = np.atleast_2d(np.asarray(A, dtype=float))
    rows, cols = np.nonzero(A)
    if _SPARSE_PRODUCT_RATIO * rows.size > A.size:
        return A
    return TripletMatrix(A.shape, rows, cols, A[rows, cols])


def _diagonal_runs(A):
    """The nonzeros of triplet matrix `A` as ``(rows, cols, vals)`` runs,
    one per diagonal (offset ``col - row``) by increasing offset, with
    ``rows`` and ``cols`` slices (none for an empty `A`); or None.

    There are runs when the triplets are in strict row-major order and
    each diagonal's nonzeros fill one contiguous run, averaging at least
    `_DIAGONAL_RUN` entries: the chains of `saddlesplit.hard_instances`
    from k = 128 up, padded or not, and long banded matrices.
    """
    (m, n), rows, cols = A.shape, A.rows, A.cols
    if rows.size == 0:
        return []       # float zeros: bincount would give integer ones
    dr, dc = np.diff(rows), np.diff(cols)
    if not (np.all((dr > 0) | ((dr == 0) & (dc > 0)))
            and rows[0] >= 0 and rows[-1] < m
            and cols.min() >= 0 and cols.max() < n):
        return None
    # A stable sort keeps each diagonal in triplet order, so its rows
    # increase strictly and fill a run when they span its length.
    offsets = cols - rows
    order = np.argsort(offsets, kind="stable")
    _, starts, counts = np.unique(offsets[order], return_index=True,
                                  return_counts=True)
    if _DIAGONAL_RUN * counts.size > rows.size:
        return None
    runs = []
    for start, count in zip(starts.tolist(), counts.tolist()):
        run = order[start:start + count]
        r, c = int(rows[run[0]]), int(cols[run[0]])
        if rows[run[-1]] - r != count - 1:
            return None
        runs.append((slice(r, r + count), slice(c, c + count), A.vals[run]))
    return runs


def _matrix_products(A):
    """``(x -> A x, y -> A^T y)`` with the kernel picked once for `A`.

    `A` is a dense array or a `TripletMatrix`; `_product_operand` picks
    the form.  A dense array multiplies through BLAS.  Triplets that
    `_diagonal_runs` splits into diagonal runs multiply run by run, and
    any other triplets through ``np.bincount``.  The two triplet kernels
    give the same bits: each entry of the product starts at 0.0 and adds
    its terms ``v * x[col]`` (``v * y[row]``) in triplet order, which is
    increasing offset for a row (decreasing offset for a column).
    """
    A = _product_operand(A)
    if isinstance(A, np.ndarray):
        return A.dot, A.T.dot
    (m, n), rows, cols, vals = A.shape, A.rows, A.cols, A.vals
    runs = _diagonal_runs(A)
    if runs is not None:
        backward = runs[::-1]

        def matvec(x):
            x, out = np.asarray(x), np.zeros(m)
            for r, c, v in runs:
                part = out[r]           # adds in place, through the view
                part += v * x[c]
            return out

        def rmatvec(y):
            y, out = np.asarray(y), np.zeros(n)
            for r, c, v in backward:
                part = out[c]
                part += v * y[r]
            return out
        return matvec, rmatvec

    def matvec(x):
        return np.bincount(rows, weights=vals * np.asarray(x)[cols],
                           minlength=m)

    def rmatvec(y):
        return np.bincount(cols, weights=vals * np.asarray(y)[rows],
                           minlength=n)

    return matvec, rmatvec


def spectral_norm(A):
    """Largest singular value of `A`, from one LAPACK SVD.

    `A` is a dense array or a `TripletMatrix`, which is densified first;
    the chain instances pass their closed-form norm to the builders
    instead (see `hard_instances.chain_norm`), so no chain is densified
    here.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    return float(np.linalg.norm(A, 2)) if A.size else 0.0


# ---------------------------------------------------------------------------
# saddle generators
# ---------------------------------------------------------------------------

def _linear_system(A, b, x_star, norm):
    """``(A, b, w, norm, matvec, rmatvec)`` for the linear system ``A w = b``.

    `A` becomes the form its products multiply through (see
    `_product_operand`); `b` defaults to zero and must match the rows;
    ``w`` is `x_star`, which must match the columns, or else a
    least-squares solution; ``norm`` is the given `norm` of `A`, or else
    its `spectral_norm`.  A non-finite `A`, `b`, `x_star` or `norm`
    raises ValueError naming it, before any LAPACK call.
    """
    A = _product_operand(A)
    _finite("A", A.vals if isinstance(A, TripletMatrix) else A)
    m, n = A.shape
    b = np.zeros(m) if b is None else _finite("b", b)
    if b.shape != (m,):
        raise ValueError("right-hand side does not match the row dimension")
    if x_star is not None:
        x_star = np.array(x_star, dtype=float)
        if x_star.shape != (n,):
            raise ValueError("x_star does not match the column dimension")
        _finite("x_star", x_star)
    if norm is None:
        norm = spectral_norm(A)
    else:
        norm = float(_finite("norm", norm))
    if x_star is None:
        x_star = np.linalg.lstsq(np.asarray(A), b, rcond=None)[0]
    return (A, b, x_star, norm, *_matrix_products(A))


def make_bilinear(A, b=None, D_x=1.0, D_y=1.0, costs=(1.0, 1.0), name="bilinear",
                  x_star=None, norm=None):
    """Bilinear saddle ``f(x, y) = <A x - b, y>`` with zero composite terms.

    Starts at the origin.  The saddle point ``(x*, 0)`` is attached when the
    linear system ``A x = b`` is consistent; a known solution `x_star`
    skips the least-squares solve that would find it.  ``L_xy = ||A||``:
    a known `norm`, or else `spectral_norm` of `A`.  `A` is a dense
    array or a `TripletMatrix`; ``structure["A"]`` keeps it in the form
    its products multiply through (see `_product_operand`).
    """
    A, b, xs, norm, matvec, rmatvec = _linear_system(A, b, x_star, norm)
    m, n = A.shape

    def grad_x(z):
        return rmatvec(z[1])

    def grad_y(z):
        return matvec(z[0]) - b

    def f_value(z):
        return float(np.dot(matvec(z[0]) - b, z[1]))

    saddle = None
    if x_star is not None or np.linalg.norm(np.asarray(A) @ xs - b) \
            <= 1e-10 * (1.0 + np.linalg.norm(b)):
        saddle = (xs, np.zeros(m))
    return SaddleProblem(
        grad_x=grad_x, grad_y=grad_y,
        psi_x=ZeroTerm(), psi_y=ZeroTerm(),
        x0=np.zeros(n), y0=np.zeros(m),
        L_x=0.0, L_y=0.0,
        L_xy=norm,
        D_x=D_x, D_y=D_y, costs=costs, saddle=saddle,
        f_value=f_value,
        structure={"kind": "bilinear", "A": A, "b": b,
                   "matvec": matvec, "rmatvec": rmatvec}, name=name)


def make_quadratic(A, b=None, side="x", other_dim=1, D_x=1.0, D_y=1.0,
                   costs=(1.0, 1.0), name=None, x_star=None, norm=None):
    """One-sided quadratic saddle.

    ``side='x'`` gives ``f = 0.5 * ||A x - b||^2`` (the y-agent is inert);
    ``side='y'`` gives ``f = -0.5 * ||A y - b||^2``.  Both oracles return
    partial gradients of ``f``: the active one ``A^T (A x - b)`` or
    ``A^T (b - A y)``, the inert one zeros.  The active block of the
    saddle is a least-squares minimiser; a known one, `x_star`, skips the
    solve that would find it.  `norm` and `A` are as in `make_bilinear`;
    the active agent's constant is ``||A||^2``.

    When `A` is dense (see `_product_operand`) with no more columns than
    rows, ``n <= m``, the normal matrix ``G = A^T A`` (n x n, no larger
    than `A`) and ``c = A^T b`` are formed once, and each active query
    makes one product: ``G x - c`` on the x side, ``c - G y`` on the y
    side.  A `TripletMatrix` or a wide dense `A`, where ``G`` would be
    denser or larger than `A`, keeps two products per query,
    ``A^T (A x - b)`` or ``A^T (b - A y)``.  The two forms agree up to
    rounding; `f_value` and ``structure`` read `A` itself either way.
    """
    if side not in ("x", "y"):
        raise ValueError("side must be 'x' or 'y'")
    A, b, ws, norm, matvec, rmatvec = _linear_system(A, b, x_star, norm)
    m, n = A.shape
    structure = {
        "kind": f"quadratic_{side}", "A": A, "b": b, "other_dim": other_dim,
        "matvec": matvec, "rmatvec": rmatvec,
        # Whether the minimiser ``ws`` attains zero residual.
        "consistent": bool(np.linalg.norm(matvec(ws) - b)
                           <= 1e-9 * (1.0 + np.linalg.norm(b)))}
    own, half = (0, 0.5) if side == "x" else (1, -0.5)

    def place(active, inert):
        return (active, inert) if side == "x" else (inert, active)

    # c - G y is -(G y - c), and b - A y is -(A y - b), bit for bit:
    # rounding is symmetric in sign.
    if isinstance(A, np.ndarray) and n <= m:
        # The bytes of ``A.T @ A``, without its slow path at the default
        # BLAS threads (7.8 ms against 0.07 ms, k = 50 chain, 2 cores).
        normal, c = A.T.dot(A).dot, rmatvec(b)

        def active(z):
            g = normal(z[own])
            return g - c if side == "x" else c - g
    else:
        def active(z):
            r = matvec(z[own])
            return rmatvec(r - b if side == "x" else b - r)

    # One read-only zero vector serves every inert query.
    zero = np.zeros(other_dim)
    zero.flags.writeable = False

    def inert(z):
        return zero

    def f_value(z):
        return half * float(np.linalg.norm(matvec(z[own]) - b) ** 2)

    grad_x, grad_y = place(active, inert)
    x0, y0 = place(np.zeros(n), np.zeros(other_dim))
    L_x, L_y = place(norm ** 2, 0.0)
    return SaddleProblem(
        grad_x=grad_x, grad_y=grad_y,
        psi_x=ZeroTerm(), psi_y=ZeroTerm(), x0=x0, y0=y0,
        L_x=L_x, L_y=L_y, L_xy=0.0, D_x=D_x, D_y=D_y, costs=costs,
        saddle=place(ws, np.zeros(other_dim)), f_value=f_value,
        structure=structure,
        name=f"quadratic_{side}" if name is None else name)


def make_strongly_convex_concave(mu_x, mu_y, coupling, n=1, D_x=1.0, D_y=1.0,
                                 costs=(1.0, 1.0), name="scsc"):
    """Coupled quadratic saddle with saddle point at the origin.

    ``f(x, y) = (mu_x/2)||x||^2 - (mu_y/2)||y||^2 + coupling * <x, y>`` on
    ``R^n x R^n``.  The start point sits at distance ``D_x`` (resp. ``D_y``)
    from the saddle in each block, so runs are nontrivial.
    """
    if mu_x <= 0 or mu_y <= 0:
        raise ValueError("strong convexity moduli must be positive")
    u = np.ones(n) / np.sqrt(n)

    def grad_x(z):
        return mu_x * z[0] + coupling * z[1]

    def grad_y(z):
        return -mu_y * z[1] + coupling * z[0]

    def f_value(z):
        x, y = z
        return float(0.5 * mu_x * x @ x - 0.5 * mu_y * y @ y
                     + coupling * x @ y)

    return SaddleProblem(
        grad_x=grad_x, grad_y=grad_y,
        psi_x=ZeroTerm(), psi_y=ZeroTerm(),
        x0=D_x * u, y0=D_y * u,
        L_x=float(mu_x), L_y=float(mu_y), L_xy=float(coupling),
        D_x=D_x, D_y=D_y, costs=costs,
        saddle=(np.zeros(n), np.zeros(n)), f_value=f_value,
        structure={"kind": "scsc", "mu_x": float(mu_x), "mu_y": float(mu_y),
                   "coupling": float(coupling), "n": n}, name=name)


# ---------------------------------------------------------------------------
# polymatrix variational inequalities
# ---------------------------------------------------------------------------

def make_polymatrix(dims, blocks, b=None, D=None, costs=None, psis=None,
                    name="polymatrix"):
    """Affine monotone VIP ``V_i(z) = sum_j A_ij z_j - b_i``.

    Monotonicity is enforced structurally: off-diagonal blocks must satisfy
    ``A_ji = -A_ij^T`` and diagonal blocks must be symmetric positive
    semidefinite.  Violations raise ``ValueError``.  Every block is kept
    C-contiguous, as `load_instance` rebuilds it, so a transposed view
    (``-M.T``) and its reloaded copy multiply in one order, bit for bit.
    """
    K = len(dims)
    mats = [[None] * K for _ in range(K)]
    for i in range(K):
        for j in range(K):
            Aij = blocks[i][j]
            if Aij is None:
                mats[i][j] = np.zeros((dims[i], dims[j]))
            else:
                Aij = np.ascontiguousarray(
                    np.atleast_2d(np.asarray(Aij, dtype=float)))
                if Aij.shape != (dims[i], dims[j]):
                    raise ValueError(f"block ({i},{j}) has wrong shape")
                mats[i][j] = Aij
    for i in range(K):
        Aii = mats[i][i]
        if not np.allclose(Aii, Aii.T, atol=1e-12):
            raise ValueError(f"diagonal block {i} is not symmetric")
        if Aii.size and np.min(np.linalg.eigvalsh(0.5 * (Aii + Aii.T))) < -1e-10:
            raise ValueError(f"diagonal block {i} is not positive semidefinite")
        for j in range(i + 1, K):
            if not np.allclose(mats[j][i], -mats[i][j].T, atol=1e-12):
                raise ValueError(f"skew condition fails for blocks ({i},{j})")

    if b is None:
        b = [np.zeros(d) for d in dims]
    b = [np.asarray(bi, dtype=float) for bi in b]
    # ||A_ji|| = ||-A_ij^T||: one LAPACK norm per skew pair, mirrored,
    # keeps L exactly symmetric.
    L = np.zeros((K, K))
    for i in range(K):
        for j in range(i, K):
            L[i, j] = L[j, i] = spectral_norm(mats[i][j])

    def make_op(i):
        def op(parts):
            out = -b[i]
            for j in range(K):
                out = out + mats[i][j] @ parts[j]
            return out
        return op

    Abar = np.block(mats)
    zflat, _, _, _ = np.linalg.lstsq(Abar, np.concatenate(b), rcond=None)
    solution = None
    if np.linalg.norm(Abar @ zflat - np.concatenate(b)) <= 1e-10 * (
            1.0 + np.linalg.norm(np.concatenate(b))):
        offs = np.concatenate([[0], np.cumsum(dims)])
        solution = [zflat[offs[i]:offs[i + 1]] for i in range(K)]

    return VipProblem(
        operators=[make_op(i) for i in range(K)],
        psis=psis if psis is not None else [ZeroTerm() for _ in range(K)],
        z0=[np.zeros(d) for d in dims],
        L=L, D=list(D) if D is not None else [1.0] * K,
        costs=costs, solution=solution,
        block_is_gradient=[True] * K,
        structure={"kind": "polymatrix", "blocks": mats, "b": b,
                   "dims": list(dims)}, name=name)


def random_polymatrix(dims, rng, coupling=1.0, diag=0.0, radius=0.8,
                      D=None, name="polymatrix_rand"):
    """Random polymatrix instance with a known interior solution.

    Off-diagonal couplings are scaled to spectral norm `coupling` times a
    uniform draw from ``[0.5, 1]``; diagonal blocks are PSD with norm
    `diag`.  A target point with block norms ``radius * D_i`` is drawn and
    the offsets are chosen so it solves the unconstrained system exactly.
    """
    K = len(dims)
    if D is None:
        D = [1.0] * K
    blocks = [[None] * K for _ in range(K)]
    for i in range(K):
        if diag > 0:
            M = rng.standard_normal((dims[i], dims[i]))
            S = M @ M.T
            blocks[i][i] = diag * S / spectral_norm(S)
        for j in range(i + 1, K):
            M = rng.standard_normal((dims[i], dims[j]))
            scale = coupling * rng.uniform(0.5, 1.0)
            M *= scale / max(spectral_norm(M), 1e-12)
            blocks[i][j] = M
            blocks[j][i] = -M.T
    target = []
    for i in range(K):
        v = rng.standard_normal(dims[i])
        target.append(radius * D[i] * v / np.linalg.norm(v))
    b = []
    for i in range(K):
        bi = np.zeros(dims[i])
        for j in range(K):
            if blocks[i][j] is not None:
                bi = bi + blocks[i][j] @ target[j]
        b.append(bi)
    return make_polymatrix(dims, blocks, b=b, D=D, name=name)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _fmt(value):
    """A key's text: the Python literal of `value` (NumPy scalars and
    arrays, `TripletMatrix` included, as plain numbers and lists)."""
    return repr(np.asarray(value).tolist())


def save_instance(problem, path):
    """Write a generator-built instance to an INI file.

    Only instances produced by the generators in this module or in
    :mod:`saddlesplit.hard_instances` can be saved; hand-built oracle
    closures have no portable representation.  The file holds the keys
    `INSTANCE_KEYS` lists for the kind.  Chain instances are written as
    their recipe (``kind = hard_<kind>``, ``L``, ``D``, ``k``,
    ``D_other``), which `load_instance` rebuilds bit for bit.  A field
    the file cannot hold (a nonzero psi, metric weights other than ones,
    a VI block that is not a gradient) raises ValueError naming it.
    """
    st = problem.structure if getattr(problem, "structure", None) else None
    if st is None or "kind" not in st:
        raise ValueError("instance carries no serialisable structure")
    source = st.get("recipe") or st
    kind = source["kind"]
    if kind not in INSTANCE_KEYS:
        raise ValueError(f"unsupported kind {kind!r}")
    if not all(type(t) is ZeroTerm for t in problem.psis):
        raise ValueError("an instance file cannot hold a nonzero psi")
    if not all(m.identity for m in problem.metrics):
        raise ValueError("an instance file cannot hold non-unit metric weights")
    if not all(problem.block_is_gradient):
        raise ValueError(
            "an instance file cannot hold a block_is_gradient entry False")
    cp = configparser.ConfigParser()
    cp["instance"] = {"kind": kind, "name": problem.name}
    sec = cp["instance"]
    for key in INSTANCE_KEYS[kind]:
        sec[key] = _fmt(source[key] if key in source
                        else getattr(problem, key))
    if kind == "polymatrix":
        for i, row in enumerate(st["blocks"]):
            for j, block in enumerate(row):
                if np.any(block):
                    sec[f"a_{i}_{j}"] = _fmt(block)
            sec[f"b_{i}"] = _fmt(st["b"][i])
    with open(path, "w") as fh:
        cp.write(fh)


def load_instance(path):
    """Rebuild an instance written by `save_instance`."""
    cp = configparser.ConfigParser()
    with open(path) as fh:
        cp.read_file(fh)
    return instance_from_section(cp["instance"])


# The keys an instance section of each kind reads, spelled as its
# generator's keyword arguments.  `instance_from_section` passes the keys
# a section holds, so a missing one takes the generator's default.  Every
# section may also hold ``kind`` and ``name``, and a polymatrix section
# ``a_<i>_<j>`` and ``b_<i>`` for its blocks.
_SADDLE_KEYS = ("D_x", "D_y", "costs")
_CHAIN_KEYS = ("L", "D", "k", "D_other")
INSTANCE_KEYS = {
    "bilinear": ("A", "b") + _SADDLE_KEYS,
    "quadratic_x": ("A", "b", "other_dim") + _SADDLE_KEYS,
    "quadratic_y": ("A", "b", "other_dim") + _SADDLE_KEYS,
    "scsc": ("mu_x", "mu_y", "coupling", "n") + _SADDLE_KEYS,
    "polymatrix": ("dims", "D", "costs"),
    "hard_xy": _CHAIN_KEYS, "hard_x": _CHAIN_KEYS, "hard_y": _CHAIN_KEYS,
}


def _read_key(sec, key):
    """The Python literal `key` holds in `sec`; ValueError naming `key`.

    Matrices and vectors stay nested lists: the generators convert them.
    """
    try:
        value = ast.literal_eval(sec[key])
        return tuple(value) if key == "costs" else value
    except (ValueError, SyntaxError, TypeError) as exc:
        raise ValueError(f"bad value for {key!r}: {exc}") from None


def check_keys(sec, keys, where):
    """Raise ValueError naming the first key of `sec` that `keys` lacks.

    Keys compare case-insensitively: `configparser` lowercases them.
    """
    known = {key.lower() for key in keys}
    for key in sec:
        if key.lower() not in known:
            raise ValueError(f"unknown key {key!r} {where}; "
                             f"available: {', '.join(keys)}")


def instance_from_section(sec):
    """Build an instance from a mapping in the `save_instance` key format.

    A kind reads the keys `INSTANCE_KEYS` lists for it; any other key
    raises ValueError.
    """
    kind = sec["kind"]
    if kind not in INSTANCE_KEYS:
        raise ValueError(f"unsupported kind {kind!r}")
    kwargs = {key: _read_key(sec, key)
              for key in INSTANCE_KEYS[kind] if key in sec}
    K = len(kwargs["dims"]) if kind == "polymatrix" else 0
    blocks = [[f"a_{i}_{j}" for j in range(K)] for i in range(K)]
    rhs = [f"b_{i}" for i in range(K)]
    check_keys(sec, (*INSTANCE_KEYS[kind], "kind", "name", *sum(blocks, []),
                     *rhs), f"for kind {kind!r}")
    name = sec.get("name", kind)
    if kind == "polymatrix":
        return make_polymatrix(
            kwargs.pop("dims"),
            [[_read_key(sec, key) if key in sec else None for key in row]
             for row in blocks],
            b=[_read_key(sec, key) for key in rhs], name=name, **kwargs)
    if kind.startswith("hard_"):
        # Hand-written configs may request the chain construction directly.
        from saddlesplit import hard_instances
        return hard_instances.make_hard_saddle(kind[len("hard_"):],
                                               name=name, **kwargs)
    if kind.startswith("quadratic_"):
        return make_quadratic(side=kind[-1], name=name, **kwargs)
    generator = {"bilinear": make_bilinear,
                 "scsc": make_strongly_convex_concave}[kind]
    return generator(name=name, **kwargs)
