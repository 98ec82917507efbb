import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddlesplit.metrics import (
    ScaledMetric, ProductMetric, all_finite,
)


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
    m = ProductMetric([(ScaledMetric(np.array(pw)), alpha)])
    z, g = np.array(z), np.array(g)
    lhs = abs(float(np.dot(g, z)))
    assert lhs <= m.norm(z) * m.dual_norm(g) + 1e-9


@settings(max_examples=50, deadline=None)
@given(z=vec3, pw=pos3, alpha=st.floats(0.1, 10))
def test_dual_of_applied_equals_primal(z, pw, alpha):
    # ||P z||_* == ||z|| is the defining compatibility of the two norms.
    m = ProductMetric([(ScaledMetric(np.array(pw)), alpha)])
    z = np.array(z)
    assert m.dual_norm(m.apply(z)) == pytest.approx(m.norm(z), rel=1e-9, abs=1e-12)


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
