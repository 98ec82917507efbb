import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddlesplit.metrics import (
    ScaledMetric, ProductMetric, all_finite,
)
from saddlesplit.evaluation import GapBlock, _pga_extreme
from saddlesplit.problems import ZeroTerm, ball_project


def test_single_block_zero_vector():
    m = ProductMetric([(ScaledMetric(3), 1.0)])
    assert m.norm(np.zeros(3)) == 0.0
    assert m.dual_norm(np.zeros(3)) == 0.0


def test_two_block_norm_frozen():
    # alpha = (4, 1), identity block metrics, z = (1, 0) -> norm 2
    m = ProductMetric([(ScaledMetric(1), 4.0), (ScaledMetric(1), 1.0)])
    assert m.norm(np.array([1.0, 0.0])) == pytest.approx(2.0, abs=1e-12)
    # alpha = (2, 1), z = (1, 2) -> sqrt(2 + 4) = sqrt(6)
    m2 = ProductMetric([(ScaledMetric(1), 2.0), (ScaledMetric(1), 1.0)])
    assert m2.norm(np.array([1.0, 2.0])) == pytest.approx(np.sqrt(6.0), rel=1e-12)


def test_dual_norm_frozen():
    # single block, alpha = 4, g = 2: dual norm = sqrt(4/4) = 1
    m = ProductMetric([(ScaledMetric(1), 4.0)])
    assert m.dual_norm(np.array([2.0])) == pytest.approx(1.0, abs=1e-12)


def test_dimension_mismatch_raises():
    m = ProductMetric([(ScaledMetric(2), 1.0), (ScaledMetric(3), 1.0)])
    with pytest.raises(ValueError):
        m.norm(np.zeros(4))
    with pytest.raises(ValueError):
        m.join([np.zeros(2), np.zeros(2)])
    with pytest.raises(ValueError):
        ScaledMetric(np.array([1.0, -1.0]))


def test_apply_matches_dense_matrix():
    rng = np.random.default_rng(0)
    pw = rng.uniform(0.5, 2.0, 4)
    m = ProductMetric([(ScaledMetric(pw[:2]), 3.0), (ScaledMetric(pw[2:]), 0.5)])
    dense = np.diag(np.concatenate([3.0 * pw[:2], 0.5 * pw[2:]]))
    z = rng.standard_normal(4)
    assert np.allclose(m.apply(z), dense @ z, atol=1e-14)
    assert np.allclose(m.apply_inv(z), np.linalg.solve(dense, z), atol=1e-14)
    assert m.norm(z) == pytest.approx(np.sqrt(z @ dense @ z), rel=1e-12)
    assert m.dual_norm(z) == pytest.approx(
        np.sqrt(z @ np.linalg.solve(dense, z)), rel=1e-12)


vec3 = st.lists(st.floats(-10, 10, allow_nan=False), min_size=3, max_size=3)
pos3 = st.lists(st.floats(0.1, 10, allow_nan=False), min_size=3, max_size=3)


@settings(max_examples=50, deadline=None)
@given(z=vec3, g=vec3, pw=pos3, alpha=st.floats(0.1, 10))
def test_cauchy_schwarz_duality(z, g, pw, alpha):
    w = ScaledMetric(np.array(pw))
    z, g = np.array(z), np.array(g)
    lhs = abs(float(np.dot(g, z)))
    # The block metric alone and inside a product.
    for m in (w, ProductMetric([(w, alpha)])):
        assert lhs <= m.norm(z) * m.dual_norm(g) + 1e-9


@settings(max_examples=50, deadline=None)
@given(z=vec3, pw=pos3, alpha=st.floats(0.1, 10))
def test_dual_of_applied_equals_primal(z, pw, alpha):
    # ||P z||_* == ||z|| is the defining compatibility of the two norms.
    w = ScaledMetric(np.array(pw))
    z = np.array(z)
    for m in (w, ProductMetric([(w, alpha)])):
        assert m.dual_norm(m.apply(z)) == pytest.approx(m.norm(z), rel=1e-9,
                                                        abs=1e-12)


def test_shape_check_kept_for_every_input_type():
    # float64 vectors skip the re-wrap, everything else is converted; both
    # routes still go through the shape check.
    for m in (ScaledMetric(3),
              ProductMetric([(ScaledMetric(1), 1.0), (ScaledMetric(2), 1.0)])):
        for bad in ([1.0, 2.0], 3, np.ones(2, dtype=np.float32),
                    np.ones((3, 1)), np.float64(1.0)):
            for method in (m.norm, m.dual_norm, m.apply, m.apply_inv):
                with pytest.raises(ValueError):
                    method(bad)
        z = np.array([1.0, -2.0, 0.5])
        for same in (list(z), z.astype(np.float32), np.array([1, -2, 0.5])):
            assert m.norm(same) == m.norm(z)
            assert type(m.norm(same)) is float
            assert type(m.dual_norm(same)) is float


def test_norms_are_python_floats_of_the_dot_product():
    rng = np.random.default_rng(3)
    w = rng.uniform(0.5, 2.0, 5)
    m = ScaledMetric(w)
    z = rng.standard_normal(5)
    assert m.norm(z) == float(np.sqrt(np.dot(w * z, z)))
    assert m.dual_norm(z) == float(np.sqrt(np.dot(z / w, z)))
    assert m.norm(np.full(5, np.nan)) != m.norm(np.full(5, np.nan))


# -- finiteness test ---------------------------------------------------------

_EDGE_VALUES = [np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -5e-324,
                2.2250738585072014e-308, 1.7e308, -1.7e308, 1.0, -1.0]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_EDGE_VALUES),
                          st.floats(allow_nan=True, allow_infinity=True)),
                min_size=0, max_size=40))
def test_all_finite_matches_isfinite(values):
    v = np.array(values, dtype=float)
    with np.errstate(invalid="ignore"):
        assert all_finite(v) == bool(np.isfinite(v).all())


def test_all_finite_on_long_vectors():
    # Long enough for the blocked dot kernels; one bad entry anywhere.
    v = np.full(1001, 1.7e308)
    assert all_finite(v)
    for bad in (np.inf, -np.inf, np.nan):
        for pos in (0, 500, 1000):
            w = v.copy()
            w[pos] = bad
            with np.errstate(invalid="ignore"):
                assert not all_finite(w)


# -- weight checks -----------------------------------------------------------

def test_weights_must_be_finite():
    # An infinite weight would drop its coordinate from the dual norm.
    for bad in ([1.0, np.inf], [np.nan, 1.0]):
        with pytest.raises(ValueError):
            ScaledMetric(bad)


def test_block_weights_must_be_finite():
    for block in ((ScaledMetric(2), np.nan), (ScaledMetric(2), np.inf),
                  (ScaledMetric([1e300, 1.0]), 1e10)):   # overflows to inf
        with pytest.raises(ValueError):
            ProductMetric([block])


def test_a_product_metric_is_the_scaled_metric_of_its_joint_weights():
    m = ProductMetric([(ScaledMetric([1.0, 2.0]), 3.0),
                       (ScaledMetric([0.5]), 2.0)])
    assert isinstance(m, ScaledMetric)
    assert m.weights.tolist() == [3.0, 6.0, 1.0] and m.dim == 3
    assert m.dims == [2, 1] and m.offsets.tolist() == [0, 2, 3]
    assert not m.identity and not m.weights.flags.writeable
    # The bench's span tracer wraps these in ProductMetric's own namespace.
    assert {"inner", "norm", "dual_norm", "apply", "apply_inv", "split",
            "join"} <= set(vars(ProductMetric))
    with pytest.raises(ValueError, match="positive and finite"):
        ProductMetric([(ScaledMetric(1), 1.0), (ScaledMetric(1), -np.inf)])


def test_metric_keeps_a_read_only_copy_of_its_weights():
    w = np.ones(2)
    m = ScaledMetric(w)
    w[0] = 4.0
    assert m.identity and m.norm(np.array([1.0, 0.0])) == 1.0
    for metric in (m, ProductMetric([(m, 1.0)])):
        with pytest.raises(ValueError):
            metric.weights[0] = 4.0


def test_identity_is_decided_from_the_weights():
    assert ScaledMetric(3).identity and ScaledMetric([1.0, 1.0]).identity
    assert not ScaledMetric([1.0, 2.0]).identity
    assert ProductMetric([(ScaledMetric(2), 1.0), (ScaledMetric(1), 1.0)]).identity
    assert not ProductMetric([(ScaledMetric(2), 2.0)]).identity
    assert ProductMetric([(ScaledMetric([0.5]), 2.0)]).identity


# -- the identity path is the weighted arithmetic, bit for bit ---------------

def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_EDGE_VALUES),
                          st.sampled_from(_EDGE_VALUES)),
                min_size=1, max_size=12),
       st.sampled_from([1.0, 0.5, 1e-300, 1e300]))
def test_identity_path_matches_the_weighted_arithmetic(pairs, radius):
    u = np.array([a for a, _ in pairs])
    c = np.array([b for _, b in pairs])
    ones = np.ones(u.size)
    m = ScaledMetric(u.size)
    assert m.identity
    with np.errstate(all="ignore"):
        assert _bits(m.norm(u)) == _bits(math.sqrt((ones * u) @ u))
        assert _bits(m.dual_norm(u)) == _bits(math.sqrt((u / ones) @ u))
        assert _bits(m.apply(u)) == _bits(ones * u)
        assert _bits(m.apply_inv(u)) == _bits(u / ones)
        d = u - c
        nrm = math.sqrt((ones * d) @ d)
        want = c + (d if nrm <= radius else d * (radius / nrm))
        assert _bits(ball_project(m, c, radius, u)) == _bits(want)


class _UnitWeights:
    """Unit weights with the identity path off: the weighted arithmetic."""
    identity = False

    def __init__(self, n):
        self.weights = np.ones(n)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_EDGE_VALUES),
                          st.sampled_from(_EDGE_VALUES)),
                min_size=1, max_size=6),
       st.sampled_from([0.0, 1.0, 3.0]), st.booleans())
def test_pga_identity_path_matches_the_weighted_arithmetic(pairs, lipschitz,
                                                           maximize):
    g = np.array([a for a, _ in pairs])
    center = np.array([b for _, b in pairs])

    def grad(w):
        return g - 0.5 * w
    with np.errstate(all="ignore"):
        got, want = (_pga_extreme(grad, GapBlock(metric, center, 1.0,
                                                 ZeroTerm()),
                                  lipschitz, 4, maximize)
                     for metric in (ScaledMetric(g.size), _UnitWeights(g.size)))
    assert _bits(got) == _bits(want)


def test_ndarray_dot_is_matmul_bit_for_bit():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 7, 16, 31, 64, 101, 255, 1002):
        a = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
        b = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
        for s in (slice(None), slice(1, None), slice(None, None, 2),
                  slice(1, None, 3)):
            x, y = a[s], b[s]
            assert _bits(x.dot(y)) == _bits(x @ y)
            assert _bits(x.dot(x)) == _bits(x @ x)
