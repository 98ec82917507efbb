import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from saddlesplit import cli
from saddlesplit.accounting import CAPTURE_LEVELS, OracleLedger
from saddlesplit.hard_instances import make_hard_saddle
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


def test_bind_records_calls():
    led = OracleLedger(("x",))
    oracle = led.bind("x", lambda p: 2.0 * p)
    out = oracle(np.array([1.0, 2.0]))
    assert np.allclose(out, [2.0, 4.0])
    assert led.queries("x") == 1
    # Bound oracles of two agents at costs (2, 3) across two rounds; the
    # open round's query counts in the totals only.
    led = OracleLedger(("x", "y"), costs=(2.0, 3.0))
    fx, fy = (led.bind(a, lambda p: np.ones(2)) for a in ("x", "y"))
    fx(np.zeros(2))
    fy(np.zeros(2))
    led.end_round()
    fx(np.ones(2))
    fx(np.ones(2))
    led.end_round()
    fy(np.ones(2))
    assert led.round == 2 and led.queries() == {"x": 3, "y": 2}
    assert led.weighted_cost() == pytest.approx(12.0)
    assert led.round_queries("x") == [1, 2]
    assert led.round_queries("y") == [1, 0]


def test_unknown_agent_and_bad_costs():
    led = OracleLedger(("x",))
    with pytest.raises(KeyError):
        led.record("z", 0, np.zeros(1))
    with pytest.raises(ValueError):
        OracleLedger(("x",), costs=(-1.0,))
    with pytest.raises(ValueError):
        OracleLedger(("x", "x"))


def test_round_queries_per_closed_round():
    for capture in CAPTURE_LEVELS:
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
    """No capture level keeps a queried point or response."""
    assert OracleLedger(("x",)).capture == "counts"
    for capture in CAPTURE_LEVELS:
        led = OracleLedger(("x",), capture=capture)
        point = np.arange(4.0)
        alive = weakref.ref(point)
        oracle = led.bind("x", lambda p: 2.0 * p)
        oracle(point)
        del point
        gc.collect()
        assert alive() is None
        assert led.queries("x") == 1

        # 200 queries of 8 KB points and responses: keeping them would
        # hold 3.2 MB, a ledger holds nothing per query.
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
        assert grown < 64 * 1024, (capture, grown)


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

    led = OracleLedger(("x",), capture="candidates")
    kept = [np.arange(2.0), (np.zeros(1), np.ones(1)), np.arange(2.0)]
    for c in kept:
        led.end_round()
        led.keep(c)
    assert len(led.kept()) == len(kept)
    assert all(got is want for got, want in zip(led.kept(), kept))


def test_counts_ledger_refuses_point_reads():
    led = OracleLedger(("x",))
    led.record("x", np.zeros(2), np.ones(2))
    assert led.queries("x") == 1
    for level in ("points", "full"):
        with pytest.raises(ValueError, match="capture"):
            OracleLedger(("x",), capture=level)


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
    """Both capture levels run the same solver steps."""
    problem, agents = _capture_case(instance)
    results = {}
    for capture in CAPTURE_LEVELS:
        led = OracleLedger(agents, costs=problem.costs, capture=capture)
        res = cli._dispatch(problem, solver, eps, params, led)
        results[capture] = (
            res.rounds, led.queries(),
            {a: led.round_queries(a) for a in agents},
            res.status, res.gap.value)
        for a in agents:
            assert sum(led.round_queries(a)) == led.queries(a)
            assert len(led.round_queries(a)) == led.round == res.rounds
        if capture == "candidates":
            assert len(res.round_candidates) == res.rounds
            assert res.round_candidates[-1] is res.candidate
        else:
            assert res.round_candidates == []
    assert results["counts"] == results["candidates"]
