"""Accuracy measures and closed-form complexity bounds.

The quality of a candidate is its restricted duality gap

    gap(x', y') = max_{(x, y) in B ∩ Q} [ F(x', y) - F(x, y') ],

with ``F = f + psi_x - psi_y``, ``Q = dom psi`` and ``B`` the product of
metric balls of radius ``D_i`` around the start point.  For variational
inequalities the weak restricted gap

    gap(z') = sup_{z in B ∩ Q} <V(z), z' - z> + psi(z') - psi(z)

is used.  `_gap_set` gives B ∩ Q as one `GapBlock` per block, whose
psi's `meet_ball` decides how it meets the block's ball; the block owns
the ball's support, maximiser and projection.  `_gap_plan` decides how
the gap is computed: by a closed form over the balls where `_closed_form`
gives one (exact when no psi is left over, a certified upper bound,
``exact=False``, when only ``indicator`` terms are), else by
projected-gradient inner maximisation, flagged as an estimate.
`restricted_gap` makes the plan on every call; ``problem.structure``
keeps only the VI's operator matrix and constant.

Solvers stop through `GapTest`, which answers "is the gap of this
candidate at most epsilon" for one run, with the bound of the same plan;
a trajectory that serves several accuracies gives each row a test of
its own (`accounting.Row.test`).  A closed form's bound is its witness:
the maximisers of the form at the last candidate the test evaluated
give an affine minorant of the form, and the bound answers "no"
wherever that minorant, less a rounding margin, stays above epsilon.
`_witness_anchor` builds the witness once per anchoring candidate, from
products of its own.  A saddle estimate's, with no psi left over and
identity metrics, answers "no" whenever the estimator's first step does
(projected gradient with step 1/L never moves back).  That is all a
bound certifies: every "yes" and every reported gap is a `restricted_gap`
evaluation, at the same candidate as when every candidate is evaluated,
so statuses and gaps are unchanged.
"""

import copy
import math
from dataclasses import dataclass, fields

import numpy as np

from saddlesplit.problems import (TripletMatrix, VipProblem, ball_project,
                                  spectral_norm)

# Iterations of the projected-gradient gap estimator (estimated paths only).
PGA_STEPS = 500
# Relative margin of `GapTest`'s bounds.  It covers the rounding of the
# closed forms and of the bounds themselves, about n * 1.1e-16 relative
# for sums of n terms, for any n up to about 10^7.
_ROUNDING_MARGIN = 1e-8


@dataclass
class GapResult:
    value: float
    exact: bool
    method: str


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

class GapBlock:
    """One block's share B_i ∩ dom psi_i of the gap set: the `metric` ball
    of ``radius`` around `center` within dom ``psi_left`` (None: all of
    it), as ``psi.meet_ball`` decides them from the block's `radius`."""

    def __init__(self, metric, center, radius, psi):
        self.metric, self.center = metric, np.asarray(center, dtype=float)
        self.radius, self.psi_left = psi.meet_ball(self.center, float(radius))

    def support(self, g):
        """max over the ball of ``<g, .>``."""
        dual = self.metric.dual_norm(g)
        return float(g.dot(self.center)) + self.radius * dual

    def maximiser(self, g):
        """The maximiser of ``<g, .>`` over the ball (its center for a zero
        or non-finite dual norm)."""
        dual = self.metric.dual_norm(g)
        if not 0.0 < dual < math.inf:
            return self.center
        return self.center + (self.radius / dual) * self.metric.apply_inv(g)

    def project(self, v):
        """Project onto the ball, then onto dom ``psi_left`` unless None."""
        out = ball_project(self.metric, self.center, self.radius, v)
        if self.psi_left is not None:
            out = self.psi_left.project_domain(self.metric, out)
        return out

    def in_ball(self, w):
        """Whether `w` lies in the ball, to 1e-9."""
        d = np.asarray(w) - self.center
        return self.metric.norm(d) <= self.radius + 1e-9


def _pga_extreme(grad_fn, block, lipschitz, steps, maximize=True):
    """`steps` projected-gradient ascent/descent steps from the center of
    `block` for the inner problem of the gap.

    Each step is ``metric.apply_inv`` and `ball_project`'s arithmetic,
    operation for operation, on the metric's weights (skipped, bit for bit,
    on an identity metric), with one shape check of the gradient per step
    in place of theirs on every call.
    """
    metric, center, radius = block.metric, block.center, block.radius
    weights, identity = metric.weights, metric.identity
    w, psi_left = center.copy(), block.psi_left
    sign = 1.0 if maximize else -1.0
    for _ in range(steps):
        g = np.asarray(grad_fn(w), dtype=float)
        if g.shape != weights.shape:
            raise ValueError(f"gradient of shape {g.shape} does not match "
                             f"metric dimension {weights.size}")
        u = g if identity else g / weights
        if lipschitz > 1e-14:
            step = 1.0 / lipschitz
        else:
            # Linear inner objective: one radius-length move reaches the face.
            dual = math.sqrt(u.dot(g))
            if dual <= 1e-15:
                break
            step = radius / dual
        d = (w + sign * step * u) - center
        nrm = math.sqrt((d if identity else weights * d).dot(d))
        w = center + (d if nrm <= radius else d * (radius / nrm))
        if psi_left is not None:
            w = psi_left.project_domain(metric, w)
    return w


def _psi_value(psi, metric, w):
    v = psi.value(metric, w)
    if not np.isfinite(v):
        raise ValueError("gap evaluated at a point outside dom psi")
    return v


# ---------------------------------------------------------------------------
# restricted gap
# ---------------------------------------------------------------------------

def restricted_gap(problem, candidate):
    """Restricted duality gap of a candidate over B ∩ dom psi.

    Parameters
    ----------
    problem : SaddleProblem or VipProblem
    candidate : sequence of blocks, ``(x, y)`` for saddle problems.

    Returns
    -------
    GapResult
        ``exact`` only for a closed form with no psi left over by `_gap_set`.
    """
    method, exact, value, _ = _gap_plan(problem)
    return GapResult(value(candidate), exact, method)


def _gap_plan(p):
    """``(method, exact, value, make_anchor)``: how the gap of `p` is computed.

    ``value(candidate)`` is the gap at the candidate, a float.
    ``make_anchor()`` (or None) makes `GapTest`'s anchor or None:
    ``anchor(candidate)``, asked after each evaluation and, with no
    candidate, when the test starts, returns a bound or None.
    ``bound(c)`` is a number below the gap of ``c`` in dom psi as
    ``value`` computes it (or NaN), so ``bound(c) > eps`` proves that gap
    above ``eps``.  A VI without polymatrix ``structure`` and an estimated
    saddle without ``f_value`` have no plan: ValueError, raised when a run
    builds its `GapTest`, before it spends any query.
    """
    if isinstance(p, VipProblem):
        if (p.structure or {}).get("kind") != "polymatrix":
            raise ValueError("weak-gap estimation needs affine operator "
                             "structure")
        return "vip-pga-estimate", False, lambda c: _vip_gap(p, c), None
    plan = _closed_form(p)
    if plan is None and p.f_value is None:
        raise ValueError("gap estimation requires function values on the "
                         "instance")
    return plan or ("pga-estimate", False, lambda c: _saddle_gap(p, c),
                    lambda: _first_step_bound(p))


def _gap_set(p):
    """The gap set B ∩ dom psi: one `GapBlock` per block, around its start
    point with radius ``D_i``."""
    if isinstance(p, VipProblem):
        return list(map(GapBlock, p.metrics, p.z0, p.D, p.psis))
    return [GapBlock(p.metric_x, p.x0, p.D_x, p.psi_x),
            GapBlock(p.metric_y, p.y0, p.D_y, p.psi_y)]


def _closed_form(p):
    """The closed form that gives the gap of saddle instance `p`, or None.

    Returns its `_gap_plan` entry, whose anchor maker builds the form's
    witness.  ``bilinear`` and ``quadratic_*`` instances have one when
    every psi `_gap_set` leaves over is an ``indicator``: B ∩ dom psi
    then lies in the blocks' balls, so the form over them is an upper
    bound, and exact when no psi is left.  A ``quadratic_*`` one also
    needs its system consistent, with the minimiser inside the ball.
    Each form's products, ``A w - b`` and ``A^T y``, are defined here
    once, for its value and its witness.
    """
    st = p.structure or {}
    kind = st.get("kind")
    if kind not in ("bilinear", "quadratic_x", "quadratic_y"):
        return None
    gap_set = _gap_set(p)
    left = {block.psi_left for block in gap_set} - {None}
    if not all(psi.indicator for psi in left):
        return None
    exact = not left
    matvec, rmatvec, b = st["matvec"], st["rmatvec"], st["b"]

    def residual(w):
        """``A w - b``: a bilinear's y-gradient, a quadratic's residual."""
        return matvec(w) - b

    if kind == "bilinear":
        bx, by = gap_set

        def bilinear(candidate):
            xbar, ybar = _scored_blocks(p, candidate)
            max_side = by.support(residual(xbar))
            # min over the x-ball of <A^T ybar, x> - <b, ybar>
            min_side = -bx.support(-rmatvec(ybar)) - float(b.dot(ybar))
            return max_side - min_side
        return ("bilinear-closed-form", exact, bilinear,
                lambda: _bilinear_witness(p, gap_set, residual, rmatvec))

    side = 0 if kind == "quadratic_x" else 1
    if not (st["consistent"] and gap_set[side].in_ball(p.saddle[side])):
        return None

    def quadratic(candidate):
        # The inner extreme attains zero residual inside the ball, so
        # only the candidate's own residual remains.
        r = residual(_scored_blocks(p, candidate)[side])
        return 0.5 * _euclid(r) ** 2
    return ("quadratic-closed-form", exact, quadratic,
            lambda: _quadratic_witness(p, side, residual, rmatvec))


def _scored_blocks(p, candidate):
    """The candidate's blocks as float vectors; ValueError outside dom psi."""
    xbar = np.asarray(candidate[0], dtype=float)
    ybar = np.asarray(candidate[1], dtype=float)
    # Every path scores only candidates in dom psi.
    _psi_value(p.psi_x, p.metric_x, xbar)
    _psi_value(p.psi_y, p.metric_y, ybar)
    return xbar, ybar


def _F_at(p, x, y):
    return (p.f_value((x, y)) + _psi_value(p.psi_x, p.metric_x, x)
            - _psi_value(p.psi_y, p.metric_y, y))


def _pga_terms(p, xbar, ybar, gap_set, steps):
    """The estimate's upper and lower terms after `steps` projected-gradient
    steps on each side: ``F(xbar, yhat)`` and ``F(xhat, ybar)``."""
    yhat = _pga_extreme(lambda y: p.grad_y((xbar, y)), gap_set[1], p.L_y,
                        steps)
    xhat = _pga_extreme(lambda x: p.grad_x((x, ybar)), gap_set[0], p.L_x,
                        steps, maximize=False)
    return _F_at(p, xbar, yhat), _F_at(p, xhat, ybar)


def _saddle_gap(p, candidate):
    xbar, ybar = _scored_blocks(p, candidate)
    bx, by = _gap_set(p)
    hi, lo = _pga_terms(p, xbar, ybar, (bx, by), PGA_STEPS)
    # Probing the candidate itself keeps the estimate nonnegative whenever
    # the candidate is feasible (the probe pair contributes exactly zero).
    if by.in_ball(ybar) and bx.in_ball(xbar):
        at_candidate = _F_at(p, xbar, ybar)
        hi, lo = max(hi, at_candidate), min(lo, at_candidate)
    return hi - lo


def _vip_gap(p, candidate):
    st = p.structure
    if "Abar" not in st:
        # Built on the first call, not by the generator, so hand-built
        # polymatrix structures are cached too.
        st["Abar"] = np.block(st["blocks"])
        st["lip"] = 2.0 * spectral_norm(st["Abar"])
    Abar, lip = st["Abar"], st["lip"]
    gap_set = _gap_set(p)
    offs = np.concatenate([[0], np.cumsum(p.dims)])
    bflat = np.concatenate(st["b"])
    zbar = np.concatenate([np.asarray(c, dtype=float) for c in candidate])

    def split(z):
        return [z[offs[i]:offs[i + 1]] for i in range(p.K)]

    # Inner objective g(z) = <A z - b, zbar - z> (+ psi terms added after);
    # concave whenever the diagonal blocks are PSD.
    def grad(zflat):
        return Abar.T @ (zbar - zflat) - (Abar @ zflat - bflat)

    z = np.concatenate([block.center for block in gap_set])
    for _ in range(PGA_STEPS):
        step = 1.0 / lip if lip > 1e-14 else 1.0
        z = z + step * grad(z)
        z = np.concatenate([block.project(w)
                            for block, w in zip(gap_set, split(z))])

    def objective(zflat):
        parts = split(zflat)
        val = float((Abar @ zflat - bflat) @ (zbar - zflat))
        for i in range(p.K):
            val += _psi_value(p.psis[i], p.metrics[i], np.asarray(candidate[i]))
            val -= _psi_value(p.psis[i], p.metrics[i], parts[i])
        return val

    best = objective(z)
    # The candidate itself is a valid probe whenever feasible and contributes
    # exactly zero, keeping the estimated sup nonnegative there.
    if all(block.in_ball(c) for block, c in zip(gap_set, candidate)):
        best = max(best, objective(zbar))
    return best


# ---------------------------------------------------------------------------
# certified stop test
# ---------------------------------------------------------------------------

def _norm_bound(A, row_scale=None, col_scale=None):
    """Upper bound on the spectral norm of ``diag(row_scale) A diag(col_scale)``.

    ``||M||_2 <= sqrt(||M||_1 ||M||_inf)``, from the largest absolute
    column and row sums of the scaled entries (or nonzero triplets).  It
    also bounds ``|| |M| ||_2``.
    """
    if isinstance(A, TripletMatrix):
        v = np.abs(A.vals)
        if row_scale is not None:
            v = v * row_scale[A.rows]
        if col_scale is not None:
            v = v * col_scale[A.cols]
        row_sums = np.bincount(A.rows, weights=v, minlength=A.shape[0])
        col_sums = np.bincount(A.cols, weights=v, minlength=A.shape[1])
    else:
        M = np.abs(A)
        if row_scale is not None:
            M = M * row_scale[:, None]
        if col_scale is not None:
            M = M * col_scale
        row_sums, col_sums = M.sum(axis=1), M.sum(axis=0)
    return math.sqrt(row_sums.max() * col_sums.max())


def _euclid(v):
    return math.sqrt(v.dot(v))


def _last_of(make):
    """`make`, remembering its last candidate: consecutive calls with one
    candidate object compute ``make(candidate)`` once."""
    last = value = None

    def cached(candidate):
        nonlocal last, value
        if candidate is not last:
            value = make(candidate)
            last = candidate
        return value
    return cached


def _witness_anchor(margin, witness, finish=None):
    """The anchor of a closed form, built from the form's witness.

    ``witness(s)`` is the form's affine minorant ``l`` at an evaluated
    candidate ``s`` (a function of the candidate, or None), and
    ``margin(c)`` the rounding margin at candidate ``c``.  The bound is
    ``l(c) - margin(c)``, or `finish` of it; with no evaluated candidate
    there is none.  A witness is built once per anchoring candidate and
    the margin computed once per candidate, for every witness of the
    anchor, however many tests ask.
    """
    margin = _last_of(margin)

    @_last_of
    def anchored(s):
        affine = witness(s)
        if affine is None:
            return None
        if finish is None:
            return lambda c: affine(c) - margin(c)
        return lambda c: finish(affine(c) - margin(c))
    return lambda candidate=None: (None if candidate is None
                                   else anchored(candidate))


def _bilinear_witness(p, gap_set, residual, rmatvec):
    """Anchor of the bilinear closed form: the form's own maximisers.

    At ``c = (x, y)`` the form is ``max_{y' in B_y} <A x - b, y'>
    - min_{x' in B_x} <A^T y, x'> + <b, y>`` over the balls of `_gap_set`
    (centers ``x_c, y_c``, radii ``r_x, r_y``, metric weights ``P``).  At
    an evaluated candidate ``s`` the extremes are the blocks' maximisers
    ``yhat = y_c + r_y P_y^{-1} g_y / ||g_y||_*`` of ``g_y = A x_s - b``
    and ``xhat = x_c - r_x P_x^{-1} g_x / ||g_x||_*`` of ``-g_x``, ``g_x =
    A^T y_s``, formed from ``s`` as the evaluation forms them.  Held there,
    they give the affine minorant

        l(c) = <A^T yhat, x> - <A xhat - b, y> - <b, yhat>

    of the form at every candidate, equal to it at ``s``.

    A "no" must hold for the form as computed.  With Euclidean norms and
    ``size(c) = l_x ||x|| + l_y ||y|| + c_0``, where ``l_x = ||A|| ||y_c||
    + r_y ||P_y^{-1/2} A||``, ``l_y = ||A|| ||x_c|| + r_x ||A P_x^{-1/2}||
    + ||b||`` and ``c_0 = ||b|| ||y_c|| + r_y ||b||_*`` (`_norm_bound`s,
    which also bound the absolute matrices), ``size(c)`` bounds the terms
    of the form at ``c`` and of ``l(c)``.  Each of four roundings then
    moves the comparison by at most ``_ROUNDING_MARGIN size(c)``: the
    form's at ``c``; the computed ``yhat`` and ``xhat``, which may leave
    their balls by a rounding; forming ``A^T yhat``, ``A xhat - b`` and
    ``<b, yhat>``; and the dot products of ``l(c)``.  So the anchor's
    ``l(c) - 4 _ROUNDING_MARGIN size(c)``, computed, is below the
    computed form; its own rounding fits in the margin's slack.
    """
    A, b = p.structure["A"], p.structure["b"]
    bx, by = gap_set
    nA, nb = _norm_bound(A), _euclid(b)
    nAy = _norm_bound(A, row_scale=1.0 / np.sqrt(by.metric.weights))
    nAx = _norm_bound(A, col_scale=1.0 / np.sqrt(bx.metric.weights))
    scale = 4.0 * _ROUNDING_MARGIN
    mx = scale * (nA * _euclid(by.center) + by.radius * nAy)
    my = scale * (nA * _euclid(bx.center) + bx.radius * nAx + nb)
    m0 = scale * (nb * _euclid(by.center)
                  + by.radius * by.metric.dual_norm(b))

    def witness(s):
        gy = residual(np.asarray(s[0], dtype=float))
        gx = rmatvec(np.asarray(s[1], dtype=float))
        yhat, xhat = by.maximiser(gy), bx.maximiser(-gx)
        sx, sy, byhat = rmatvec(yhat), residual(xhat), float(b.dot(yhat))
        return lambda c: sx.dot(c[0]) - sy.dot(c[1]) - byhat
    return _witness_anchor(
        lambda c: mx * _euclid(c[0]) + my * _euclid(c[1]) + m0, witness)


def _quadratic_witness(p, side, residual, rmatvec):
    """Anchor of the one-sided quadratic closed form: the residual
    direction.

    The form is ``||r||^2 / 2`` with ``r = A w - b`` on the active block
    ``w`` (Euclidean), and ``||r||`` is the maximum of ``<u, r>`` over unit
    vectors ``u``.  At an evaluated candidate with residual ``r_s`` it is
    attained at ``u = r_s / ||r_s||``, so ``l(w) = <A^T u, w> - <u, b>``
    is an affine minorant of the residual norm at every candidate.  As in
    `_bilinear_witness`, four roundings (the residual's at ``w``, the
    length of the computed ``u``, forming ``A^T u`` and ``<u, b>``, and the
    dot product of ``l(w)``) each move it by at most ``_ROUNDING_MARGIN
    (||A|| ||w|| + ||b||)``, so ``t = l(w) - 4 _ROUNDING_MARGIN (||A||
    ||w|| + ||b||)`` is below the computed residual norm, and squaring and
    halving that lose a relative ``_ROUNDING_MARGIN`` at most: the
    anchor's ``(1 - _ROUNDING_MARGIN) t^2 / 2`` for ``t > 0`` is below the
    computed form.
    """
    b = p.structure["b"]
    scale = 4.0 * _ROUNDING_MARGIN
    mw, m0 = scale * _norm_bound(p.structure["A"]), scale * _euclid(b)
    half = 0.5 * (1.0 - _ROUNDING_MARGIN)

    def witness(s):
        r = residual(np.asarray(s[side], dtype=float))
        norm = _euclid(r)
        if not (norm > 0.0 and math.isfinite(norm)):
            return None
        u = r / norm
        su, ub = rmatvec(u), float(u.dot(b))
        return lambda c: su.dot(c[side]) - ub
    return _witness_anchor(
        lambda c: mw * _euclid(c[side]) + m0, witness,
        lambda t: half * t * t if t > 0.0 else -math.inf)


def _first_step_bound(p):
    """The anchor of the estimated gap of saddle instance `p`, or None.

    For an instance `_closed_form` leaves to the estimator.  With no psi
    left over by `_gap_set` and identity metrics, each inner problem is an
    L-smooth objective over a Euclidean ball (``L_y`` and ``L_x``, zero
    for a linear side, as the estimator itself assumes), and projected
    gradient with step 1/L never moves it the wrong way (the
    sufficient-decrease lemma).  So the terms after the estimator's first
    step bound those after `PGA_STEPS` steps, and the candidate probe
    only widens them: the first-step value, less a relative margin of the
    size of its terms, is below the estimate.  The bound scores a
    candidate with the same psi checks as `restricted_gap`.  It needs no
    evaluated candidate: the anchor returns it with or without one, and
    it is computed once per candidate for every accuracy.
    """
    gap_set = _gap_set(p)
    if not all(block.psi_left is None and block.metric.identity
               for block in gap_set):
        return None

    @_last_of
    def lower(c):
        xbar, ybar = _scored_blocks(p, c)
        hi, lo = _pga_terms(p, xbar, ybar, gap_set, 1)
        return hi - lo - _ROUNDING_MARGIN * (abs(hi) + abs(lo))
    return lambda candidate=None: lower


class _Evaluations:
    """The gap evaluations of one trajectory, which its rows' tests share.

    It makes the plan's anchor once, and keeps the last candidate it
    evaluated with its result, so tests that ask for one candidate in turn
    evaluate it once.  Every open row scores each candidate in order, and
    a run's final gap is that of the current candidate or the last scored
    one, so the last evaluation is the only one a test asks for again.
    """

    def __init__(self, problem, evaluate):
        self.problem, self.evaluate = problem, evaluate
        self.method, _, _, make_anchor = _gap_plan(problem)
        self.anchor = make_anchor and make_anchor()
        self.candidate = self.result = None

    def __call__(self, candidate):
        if candidate is not self.candidate:
            self.result = self.evaluate(self.problem, candidate)
            self.candidate = candidate
        return self.result


class GapTest:
    """The stop test ``gap <= epsilon`` of one run.

    ``test(candidate)`` scores a candidate and is True when its gap over
    the problem's gap set is at most `epsilon`.  Candidates the bound of
    the problem's `_gap_plan` proves above `epsilon` are answered False
    without being evaluated, as evaluating them would: for a closed form,
    those where the witness of the last candidate this test evaluated,
    less its margin, exceeds `epsilon`; for a saddle estimate, those whose
    first-step bound exceeds `epsilon`, from the first candidate on.  An
    evaluation of another method than the plan's disarms the bound until
    one of the plan's re-arms it.  Gaps with no bound, every VI's among
    them, are evaluated on every call.

    A trajectory that serves several accuracies gives each row a test of
    its own, made by `at`, so each asks for exactly the evaluations, and
    keeps exactly the anchor, of its row's own run.  The tests share one
    anchor and their evaluations: a candidate several of them ask for in
    turn is evaluated once.

    `evaluate` is the gap function, called as ``evaluate(problem,
    candidate)``; solvers hand their `accounting.Trajectory` the
    `restricted_gap` name of their own module, so patches of that name
    see every evaluation.
    """

    def __init__(self, problem, epsilon, evaluate=None):
        self._evaluations = _Evaluations(
            problem, restricted_gap if evaluate is None else evaluate)
        self._start(epsilon)

    def _start(self, epsilon):
        self.epsilon = epsilon
        self._scored = None
        # The bound in force, a lower bound on the computed gap of a
        # candidate, or None: before any evaluation, one that needs none.
        anchor = self._evaluations.anchor
        self._lower = anchor and anchor()

    def at(self, epsilon):
        """A new test at `epsilon` that shares this one's anchor and
        evaluations; it starts as a test made by the constructor does."""
        twin = copy.copy(self)
        twin._start(epsilon)
        return twin

    def __call__(self, candidate):
        self._scored = candidate
        lower = self._lower
        if lower is not None and lower(candidate) > self.epsilon:
            return False
        return self.gap(candidate).value <= self.epsilon

    def gap(self, candidate=None):
        """The `GapResult` of `candidate`, by default the last scored one.

        Evaluated unless it is the last candidate this test, or the tests
        that share its evaluations, evaluated; None when no candidate is
        given and none has been scored.  An evaluation of the plan's
        method anchors the bound at `candidate`; any other disarms it.
        """
        candidate = self._scored if candidate is None else candidate
        if candidate is None:
            return None
        evaluations = self._evaluations
        result = evaluations(candidate)
        self._lower = (evaluations.anchor(candidate)
                       if evaluations.anchor is not None
                       and result.method == evaluations.method else None)
        return result

    def finish(self, candidate, status):
        """The `GapResult` a run that exits with `status` reports: that of
        the last scored candidate (None if none was) when it diverged, else
        that of the `candidate` it returns."""
        return self.gap() if status == "diverged" else self.gap(candidate)


# ---------------------------------------------------------------------------
# theta and closed-form bounds
# ---------------------------------------------------------------------------

def theta_factor(D_x, D_y, Dhat_x, Dhat_y):
    """Robustness factor of the decoupled method to diameter estimates.

    ``theta = (D_x Dhat_y)/(Dhat_x D_y) + (D_y Dhat_x)/(Dhat_y D_x)``;
    always >= 2, with equality exactly for proportional estimates.
    """
    for v in (D_x, D_y, Dhat_x, Dhat_y):
        if v <= 0:
            raise ValueError("diameters must be positive")
    return (D_x * Dhat_y) / (Dhat_x * D_y) + (D_y * Dhat_x) / (Dhat_y * D_x)


@dataclass
class BoundsReport:
    """Closed-form complexity bounds for one instance at one accuracy.

    Saddle instances fill the two-agent entries, VIPs fill `dmvip_comm`
    plus the per-block conditioning terms ``A_i`` and ``B_i``.  The two
    catalyst-style entries, `cat_eg_comm` and `catcat_comm`, are order-only
    (leading expression times the log factors at the given accuracy, no
    hidden constants) and never used in compliance checks.
    """
    theta: float = None
    dmsp_comm: float = None
    dmsp_oracle: float = None
    eg_comm: float = None
    eg_oracle: float = None
    dmvip_comm: float = None
    cat_eg_comm: float = None
    catcat_comm: float = None
    lower_comm: float = None
    lower_oracle: float = None
    A_terms: list = None
    B_terms: list = None

    def as_dict(self):
        """The entries that apply, in declaration order; lists are copied."""
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if v is not None:
                out[f.name] = list(v) if isinstance(v, list) else v
        return out


def complexity_bounds(problem, eps, d_hat=None):
    """Evaluate every closed-form bound applicable to `problem` at `eps`.

    Parameters
    ----------
    problem : SaddleProblem or VipProblem
    eps : float
        Target accuracy; must be positive and finite.
    d_hat : pair of float, optional
        Diameter estimates (saddle problems only).  Default: true diameters.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"accuracy must be positive and finite, got {eps!r}")
    if isinstance(problem, VipProblem):
        K = problem.K
        L, D = problem.L, list(problem.D)
        cross = float(sum(L[i, j] * D[i] * D[j]
                          for i in range(K) for j in range(K) if i != j))
        return BoundsReport(
            dmvip_comm=2.0 + 2.0 * cross / eps,
            A_terms=[float(D[i] * sum(L[i, j] * D[j] for j in range(K)
                                      if j != i)) for i in range(K)],
            B_terms=[float(L[i, i] * D[i] ** 2) for i in range(K)],
        )

    p = problem
    if d_hat is None:
        d_hat = (p.D_x, p.D_y)
    cx, cy = p.costs
    th = theta_factor(p.D_x, p.D_y, d_hat[0], d_hat[1])
    cross = p.L_xy * p.D_x * p.D_y
    quad_x = p.L_x * p.D_x ** 2
    quad_y = p.L_y * p.D_y ** 2
    log1 = max(math.log(1.0 / eps), 1.0)
    Lmax = max(p.L_x, p.L_y, p.L_xy)
    return BoundsReport(
        theta=th,
        dmsp_comm=2.0 + 2.0 * th * cross / eps,
        dmsp_oracle=((cx + cy) * 2.0 * cross / eps
                     + 102.0 * math.sqrt(cross / eps)
                     * (cx * math.sqrt(quad_x / eps)
                        + cy * math.sqrt(quad_y / eps))),
        eg_comm=th * cross / eps + quad_x / eps + quad_y / eps,
        eg_oracle=(cx + cy) * (th * cross / eps + quad_x / eps + quad_y / eps),
        cat_eg_comm=((Lmax * d_hat[0] * d_hat[1] / eps
                      + math.sqrt(p.L_x * d_hat[0] ** 2 / eps)
                      + math.sqrt(p.L_y * d_hat[1] ** 2 / eps)) * log1 ** 2),
        catcat_comm=(p.L_xy * d_hat[0] * d_hat[1] / eps) * log1 ** 3,
        # Lower bounds clamp at zero: a negative bound carries no information.
        lower_comm=max(0.0, (2.0 / 3.0) * cross / eps - 2.0),
        lower_oracle=max(0.0, (cx + cy) / 9.0 * cross / eps
                         + cx / 3.0 * math.sqrt(3.0 * quad_x / (32.0 * eps))
                         + cy / 3.0 * math.sqrt(3.0 * quad_y / (32.0 * eps))
                         - 2.0 * (cx + cy) / 3.0),
    )
