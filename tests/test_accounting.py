import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from saddlesplit import cli
from saddlesplit.accounting import OracleLedger, span_check
from saddlesplit.hard_instances import make_hard_saddle
from saddlesplit.metrics import ScaledMetric
from saddlesplit.problems import random_polymatrix


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
    led = OracleLedger(("x", "y"), capture="full")
    led.record("x", 1, np.array([1.0]))
    led.end_round()
    led.record("x", 2, np.array([2.0]))
    # own view sees the open round, a remote agent only closed rounds
    own = led.responses("x", include_open=True)
    remote = led.responses("x", include_open=False)
    assert len(own) == 2 and len(remote) == 1
    assert led.responses("x", through_round=1, include_open=False)[0][0] == 1.0


def test_bind_records_calls():
    led = OracleLedger(("x",), capture="full")
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
    led = OracleLedger(("x",), capture="full")
    m = ScaledMetric(np.array([2.0, 1.0]))
    led.record("x", 0, np.array([2.0, 0.0]))
    led.record("x", 0, np.array([0.0, 1.0]))
    origin = np.array([1.0, 1.0])
    # candidate = origin + 3*P^{-1}g1 - 2*P^{-1}g2
    cand = origin + 3 * np.array([1.0, 0.0]) - 2 * np.array([0.0, 1.0])
    ok, res = span_check(led, "x", cand, origin, m)
    assert ok and res <= 1e-10


def test_span_check_detects_escape():
    led = OracleLedger(("x",), capture="full")
    m = ScaledMetric(2)
    led.record("x", 0, np.array([1.0, 0.0]))
    ok, res = span_check(led, "x", np.array([0.0, 1.0]), np.zeros(2), m)
    assert not ok
    assert res == pytest.approx(1.0, abs=1e-12)


def test_span_check_empty_history():
    led = OracleLedger(("x",), capture="full")
    m = ScaledMetric(2)
    ok, res = span_check(led, "x", np.zeros(2), np.zeros(2), m)
    assert ok and res == 0.0
    ok2, _ = span_check(led, "x", np.ones(2), np.zeros(2), m)
    assert not ok2


def test_recorded_points_are_independent_copies():
    led = OracleLedger(("x",), capture="full")
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

    ints = OracleLedger(("a",), capture="full")
    ints.record("a", [0, 1], np.zeros(1))
    ints.record("a", 7, np.zeros(1))
    assert [p for p, _ in ints.trace("a")] == [[0, 1], 7]


def test_round_queries_per_closed_round():
    for capture in ("counts", "full"):
        led = OracleLedger(("x", "y"), capture=capture)
        assert led.round_queries("x") == []
        for _ in range(3):
            led.record("x", 0, np.zeros(1))
        led.record("y", 0, np.zeros(1))
        led.end_round()
        led.end_round()
        led.record("y", 0, np.zeros(1))
        led.end_round()
        led.record("x", 0, np.zeros(1))         # open round: not reported
        assert led.round_queries("x") == [3, 0, 0]
        assert led.round_queries("y") == [1, 0, 1]
        assert led.queries("x") == 4
        with pytest.raises(KeyError):
            led.round_queries("z")


def test_counts_ledger_retains_no_points():
    led = OracleLedger(("x",))
    assert led.capture == "counts"
    point = np.arange(4.0)
    alive = weakref.ref(point)
    oracle = led.bind("x", lambda p: 2.0 * p)
    oracle(point)
    del point
    gc.collect()
    assert alive() is None
    assert led.queries("x") == 1

    # 200 queries of 8 KB points and responses: a full ledger would hold
    # 3.2 MB, a counts ledger holds nothing per query.
    big = np.ones(1000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(200):
            oracle(big)
        led.end_round()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert led.queries("x") == 201 and led.round_queries("x") == [201]
    assert grown < 64 * 1024, grown


def test_keep_holds_candidates_only_on_full_ledger():
    counts = OracleLedger(("x",))
    candidate = (np.zeros(3), np.ones(3))
    alive = weakref.ref(candidate[0])
    counts.end_round()
    counts.keep(candidate)
    del candidate
    gc.collect()
    assert alive() is None
    assert counts.kept() == []

    full = OracleLedger(("x",), capture="full")
    kept = [np.arange(2.0), (np.zeros(1), np.ones(1)), np.arange(2.0)]
    for c in kept:
        full.end_round()
        full.keep(c)
    assert len(full.kept()) == len(kept)
    assert all(got is want for got, want in zip(full.kept(), kept))


def test_counts_ledger_refuses_point_reads():
    led = OracleLedger(("x",))
    led.record("x", np.zeros(2), np.ones(2))
    for read in (lambda: led.trace("x"), lambda: led.responses("x"),
                 lambda: span_check(led, "x", np.zeros(2), np.zeros(2),
                                    ScaledMetric(2))):
        with pytest.raises(ValueError, match='capture="full"'):
            read()
    with pytest.raises(ValueError, match="capture"):
        OracleLedger(("x",), capture="points")


def _capture_case(instance):
    if instance == "hard_xy":
        return make_hard_saddle("xy", 1.0, 1.0, 20), ("x", "y")
    rng = np.random.default_rng(7)
    return (random_polymatrix(3, (2, 2, 2), rng, diag=0.5), ("1", "2", "3"))


@pytest.mark.parametrize("instance, solver, eps, params", [
    ("hard_xy", "decoupled", 1.0 / 60.0, {}),
    ("hard_xy", "extragradient", 1.0 / 60.0, {}),
    ("hard_xy", "local_gda", 1.0 / 60.0, {"max_rounds": 60}),
    ("polymatrix", "decoupled", 0.1, {}),
], ids=["hard_xy-decoupled", "hard_xy-extragradient", "hard_xy-local_gda",
        "polymatrix-decoupled"])
def test_capture_levels_agree(instance, solver, eps, params):
    """Counts-only and full capture run the same solver steps."""
    problem, agents = _capture_case(instance)
    results = {}
    for capture in ("counts", "full"):
        led = OracleLedger(agents, costs=problem.costs, capture=capture)
        res = cli._dispatch(problem, solver, eps, params, led)
        results[capture] = (
            res.rounds, led.queries(),
            {a: led.round_queries(a) for a in agents},
            res.status, res.gap.value)
        for a in agents:
            assert sum(led.round_queries(a)) == led.queries(a)
            assert len(led.round_queries(a)) == led.round == res.rounds
        if capture == "full":
            assert all(len(led.trace(a)) == led.queries(a) for a in agents)
            assert res.round_candidates
        else:
            assert res.round_candidates == []
    assert results["counts"] == results["full"]
