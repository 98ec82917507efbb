import numpy as np
import pytest

from saddlesplit.accounting import OracleLedger, span_check
from saddlesplit.metrics import ScaledMetric


def test_counts_and_weighted_cost_frozen():
    led = OracleLedger(("x", "y"), costs=(1.0, 2.0))
    for _ in range(3):
        led.record("x", np.zeros(1), np.zeros(1))
    for _ in range(4):
        led.record("y", np.zeros(1), np.zeros(1))
    assert led.queries() == {"x": 3, "y": 4}
    assert led.weighted_cost() == pytest.approx(11.0)

    unit = OracleLedger(("x", "y"))
    for _ in range(5):
        unit.record("x", 0, np.zeros(1))
        unit.record("y", 0, np.zeros(1))
    assert unit.weighted_cost() == pytest.approx(10.0)


def test_round_counter():
    led = OracleLedger(("a",))
    assert led.round == 0
    led.end_round()
    assert led.round == 1
    led.end_round()
    assert led.round == 2


def test_visibility_rules():
    led = OracleLedger(("x", "y"))
    led.record("x", 1, np.array([1.0]))
    led.end_round()
    led.record("x", 2, np.array([2.0]))
    # own view sees the open round, a remote agent only closed rounds
    own = led.responses("x", include_open=True)
    remote = led.responses("x", include_open=False)
    assert len(own) == 2 and len(remote) == 1
    assert led.responses("x", through_round=1, include_open=False)[0][0] == 1.0


def test_bind_records_calls():
    led = OracleLedger(("x",))
    oracle = led.bind("x", lambda p: 2.0 * p)
    out = oracle(np.array([1.0, 2.0]))
    assert np.allclose(out, [2.0, 4.0])
    assert led.queries("x") == 1
    pt, resp = led.trace("x")[0]
    assert np.allclose(pt, [1.0, 2.0]) and np.allclose(resp, [2.0, 4.0])


def test_unknown_agent_and_bad_costs():
    led = OracleLedger(("x",))
    with pytest.raises(KeyError):
        led.record("z", 0, np.zeros(1))
    with pytest.raises(ValueError):
        OracleLedger(("x",), costs=(-1.0,))
    with pytest.raises(ValueError):
        OracleLedger(("x", "x"))


def test_span_check_membership():
    led = OracleLedger(("x",))
    m = ScaledMetric(np.array([2.0, 1.0]))
    led.record("x", 0, np.array([2.0, 0.0]))
    led.record("x", 0, np.array([0.0, 1.0]))
    origin = np.array([1.0, 1.0])
    # candidate = origin + 3*P^{-1}g1 - 2*P^{-1}g2
    cand = origin + 3 * np.array([1.0, 0.0]) - 2 * np.array([0.0, 1.0])
    ok, res = span_check(led, "x", cand, origin, m)
    assert ok and res <= 1e-10


def test_span_check_detects_escape():
    led = OracleLedger(("x",))
    m = ScaledMetric(2)
    led.record("x", 0, np.array([1.0, 0.0]))
    ok, res = span_check(led, "x", np.array([0.0, 1.0]), np.zeros(2), m)
    assert not ok
    assert res == pytest.approx(1.0, abs=1e-12)


def test_span_check_empty_history():
    led = OracleLedger(("x",))
    m = ScaledMetric(2)
    ok, res = span_check(led, "x", np.zeros(2), np.zeros(2), m)
    assert ok and res == 0.0
    ok2, _ = span_check(led, "x", np.ones(2), np.zeros(2), m)
    assert not ok2


def test_recorded_points_are_independent_copies():
    led = OracleLedger(("x",))
    oracle = led.bind("x", lambda z: z[0] + z[1])
    x, y = np.array([1.0, 2.0]), np.array([3.0, 4.0])
    oracle((x, y))
    x[:] = -1.0
    y[:] = -1.0
    (point, response), = led.trace("x")
    assert isinstance(point, tuple)
    assert np.array_equal(point[0], [1.0, 2.0])
    assert np.array_equal(point[1], [3.0, 4.0])
    assert np.array_equal(response, [4.0, 6.0])

    ints = OracleLedger(("a",))
    ints.record("a", [0, 1], np.zeros(1))
    ints.record("a", 7, np.zeros(1))
    assert [p for p, _ in ints.trace("a")] == [[0, 1], 7]
