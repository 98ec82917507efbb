import dataclasses

import numpy as np
import pytest

from saddlesplit.accounting import OracleLedger, Row, RunResult
from saddlesplit.baselines import (
    ExtragradientParams, LocalGdaParams, default_scaling, extragradient_run,
    local_gda_run,
)
from saddlesplit.decoupled import (
    DecoupledParams, decoupled_saddle_run, decoupled_vi_run,
)
from saddlesplit.hard_instances import make_hard_saddle
from saddlesplit.metrics import ScaledMetric
from saddlesplit.problems import (
    BallIndicator, VipProblem, make_bilinear, make_strongly_convex_concave,
    random_polymatrix,
)
from saddlesplit.evaluation import complexity_bounds, restricted_gap


def _full_ledger(p):
    """A ledger that makes the solver keep its per-round candidates."""
    return OracleLedger(("x", "y"), costs=p.costs, capture="candidates")


def _unit_bilinear_from_one():
    # f(x, y) = x * y started from (1, 1)
    p = make_bilinear(np.array([[1.0]]))
    p.x0 = np.array([1.0])
    p.y0 = np.array([1.0])
    return p


def test_eg_first_iterations_frozen():
    p = _unit_bilinear_from_one()
    assert default_scaling(p) == pytest.approx((1.0, 1.0))
    params = ExtragradientParams(epsilon=-1.0, max_rounds=4)
    res = extragradient_run(p, params, ledger=_full_ledger(p))
    # round 1 retains the start, round 2 yields the first trial point
    assert np.allclose(res.round_candidates[0][0], [1.0])
    z1 = res.round_candidates[1]
    assert np.allclose(z1[0], [0.0], atol=1e-12)
    assert np.allclose(z1[1], [2.0], atol=1e-12)
    # second trial point is (-2, 0), so the ergodic average is (-1, 1)
    z2bar = res.round_candidates[3]
    assert np.allclose(z2bar[0], [-1.0], atol=1e-12)
    assert np.allclose(z2bar[1], [1.0], atol=1e-12)


def test_a_ledger_handed_in_counts_its_earlier_rounds_against_the_cap():
    p = _unit_bilinear_from_one()
    ledger = OracleLedger(("x", "y"), costs=p.costs)
    ledger.end_round()
    ledger.end_round()
    res = local_gda_run(p, LocalGdaParams(epsilon=-1.0, eta_x=0.1, eta_y=0.1,
                                          max_rounds=5), ledger=ledger)
    assert res.status == "budget_exhausted" and res.rounds == 5
    assert ledger.queries() == {"x": 3, "y": 3}


def test_eg_accounting_shape():
    p = make_bilinear(np.array([[1.0, 0.2], [0.0, 1.0]]), np.array([0.4, -0.1]))
    res = extragradient_run(p, ExtragradientParams(epsilon=1e-2))
    assert res.status == "converged"
    assert res.rounds % 2 == 0
    # one query per agent per round
    assert res.ledger.queries("x") == res.rounds
    assert res.ledger.queries("y") == res.rounds
    assert res.gap.value <= 1e-2


def test_eg_meets_round_bound():
    rng = np.random.default_rng(12)
    for _ in range(3):
        A = rng.standard_normal((2, 2))
        p = make_bilinear(A, rng.standard_normal(2) * 0.3)
        eps = 0.05
        res = extragradient_run(p, ExtragradientParams(epsilon=eps))
        bound = complexity_bounds(p, eps).eg_comm
        assert res.status == "converged"
        assert res.rounds <= bound + 2


def test_gda_first_round_frozen():
    p = make_strongly_convex_concave(1.0, 1.0, 0.1, n=1)
    params = LocalGdaParams(epsilon=-1.0, eta_x=0.5, eta_y=0.5, max_rounds=1)
    res = local_gda_run(p, params, ledger=_full_ledger(p))
    x1, y1 = res.round_candidates[0]
    assert x1[0] == pytest.approx(0.45, abs=1e-12)
    assert y1[0] == pytest.approx(0.55, abs=1e-12)
    assert res.ledger.queries("x") == 1 and res.ledger.queries("y") == 1


def test_gda_converges_weak_coupling():
    p = make_strongly_convex_concave(1.0, 1.0, 0.1, n=1)
    res = local_gda_run(p, LocalGdaParams(epsilon=1e-6, eta_x=0.5, eta_y=0.5),
                        ledger=_full_ledger(p))
    assert res.status == "converged"
    # distance to the saddle decreases geometrically
    dists = [np.hypot(c[0][0], c[1][0]) for c in res.round_candidates[:10]]
    ratios = [b / a for a, b in zip(dists, dists[1:])]
    assert max(ratios) < 1.0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: the gap scores an "
                   "infeasible candidate like a feasible one")
@pytest.mark.parametrize("build, run", [
    # f = x y from (1, 1) with D = 1: the run ends `converged` after 2
    # rounds at (-0.25, 1.75), outside the x-ball, with an exact gap of 0.
    (_unit_bilinear_from_one,
     lambda p: local_gda_run(p, LocalGdaParams(epsilon=0.05))),
    # f = -<b, y> from the origin with D = 1: the run ends `converged` with
    # an exact gap of -5e10 at a y of norm 2.2e11, far outside its ball.
    (lambda: make_bilinear(np.zeros((2, 2)), np.array([0.1, 0.2])),
     lambda p: extragradient_run(p, ExtragradientParams(epsilon=0.1))),
], ids=["local_gda", "extragradient"])
def test_gda_converged_candidate_lies_in_the_restriction_ball(build, run):
    p = build()
    res = run(p)
    assert res.status == "converged"
    x, y = res.candidate
    assert np.linalg.norm(x - p.x0) <= p.D_x * (1.0 + 1e-12)
    assert np.linalg.norm(y - p.y0) <= p.D_y * (1.0 + 1e-12)


def test_gda_diverges_strong_coupling():
    p = make_strongly_convex_concave(1.0, 1.0, 2.0, n=1)
    res = local_gda_run(p, LocalGdaParams(epsilon=1e-9, eta_x=0.5, eta_y=0.5,
                                          max_rounds=2000))
    assert res.status == "diverged"


def test_gda_steps_per_round_accounting():
    p = make_strongly_convex_concave(1.0, 1.0, 0.1, n=1)
    res = local_gda_run(p, LocalGdaParams(epsilon=-1.0, steps_per_round=4,
                                          max_rounds=3))
    assert res.rounds == 3
    assert res.ledger.queries("x") == 12
    assert res.ledger.queries("y") == 12


def test_eg_budget_exhausted_reports_gap_above_eps():
    # Every round's candidate is scored, so a run that exhausts its budget
    # ends at a candidate whose gap is above epsilon.
    p = make_bilinear(np.array([[1.0, 0.2], [0.0, 1.0]]), np.array([0.4, -0.1]))
    res = extragradient_run(p, ExtragradientParams(epsilon=1e-6,
                                                   max_rounds=20))
    assert (res.status, res.rounds) == ("budget_exhausted", 20)
    assert res.gap.value > 1e-6


def test_gda_budget_exhausted_reports_gap_above_eps():
    p = make_strongly_convex_concave(1.0, 1.0, 0.5, n=1)
    res = local_gda_run(p, LocalGdaParams(epsilon=1e-6, max_rounds=5))
    assert (res.status, res.rounds) == ("budget_exhausted", 5)
    assert res.gap.value > 1e-6


@pytest.mark.parametrize("block", [0, 1])
def test_eg_nonfinite_iterate_diverges(block):
    # One agent answers its second query (at the trial point) with NaN, so
    # only that block of the new anchor is nonfinite; either block alone
    # must end the run as diverged after the first iteration.
    p = _unit_bilinear_from_one()
    clean, calls = (p.grad_x, p.grad_y)[block], [0]

    def poisoned(z):
        calls[0] += 1
        return np.full(1, np.nan) if calls[0] == 2 else clean(z)
    if block == 0:
        p.grad_x = poisoned
    else:
        p.grad_y = poisoned
    params = ExtragradientParams(epsilon=-1.0, max_rounds=20)
    res = extragradient_run(p, params)
    assert res.status == "diverged"
    assert res.rounds == 2


@pytest.mark.parametrize("block", [0, 1])
def test_local_gda_nonfinite_iterate_diverges(block):
    # One agent answers its second query with NaN, so only that agent's
    # iterate after round 2 is nonfinite; either side alone must end the
    # run as diverged at that same round.
    p = make_bilinear(np.array([[1.0]]), b=np.array([0.5]))
    clean, calls = (p.grad_x, p.grad_y)[block], [0]

    def poisoned(z):
        calls[0] += 1
        return np.full(1, np.nan) if calls[0] == 2 else clean(z)
    if block == 0:
        p.grad_x = poisoned
    else:
        p.grad_y = poisoned
    res = local_gda_run(p, LocalGdaParams(epsilon=1e-6, max_rounds=50))
    assert res.status == "diverged"
    assert res.rounds == 2


def _ball_bilinear():
    # Both blocks carry a ball term that binds, in non-unit diagonal
    # metrics: the prox branch of each step is taken, unlike on any bench
    # or golden instance (all of which have zero composite terms).
    p = make_bilinear(np.array([[1.0, 0.4, 0.0], [-0.3, 0.8, 0.5]]),
                      b=np.array([0.3, -0.2]))
    return dataclasses.replace(
        p, psi_x=BallIndicator(np.zeros(3), 0.25),
        psi_y=BallIndicator(np.zeros(2), 0.2),
        metric_x=ScaledMetric([2.0, 0.5, 1.25]),
        metric_y=ScaledMetric([1.5, 3.0]))


def test_concentric_ball_terms_merge_into_the_gap_set():
    # Both ball terms are centred on the start point, so the gap set is the
    # balls of radius 0.25 and 0.2, and the closed form is exact over them:
    # r_y ||A x - b||_* + r_x ||A^T y||_* + <b, y>, dual norms in P^{-1}.
    p = _ball_bilinear()
    A, b = np.asarray(p.structure["A"]), p.structure["b"]
    x, y = np.array([0.1, 0.05, -0.02]), np.array([-0.1, 0.05])
    g = restricted_gap(p, (x, y))

    def dual(v, weights):
        return np.sqrt(np.sum(v * v / np.asarray(weights)))
    want = (0.2 * dual(A @ x - b, [1.5, 3.0])
            + 0.25 * dual(A.T @ y, [2.0, 0.5, 1.25]) + b @ y)
    assert g.exact and g.method == "bilinear-closed-form"
    assert g.value == pytest.approx(want, rel=1e-12)
    # x's P-norm is 0.707, outside psi_x's ball of radius 0.25: the closed
    # form refuses it, as the estimator does.
    with pytest.raises(ValueError, match="outside dom psi"):
        restricted_gap(p, ((0.5, 0.0, 0.0), np.zeros(2)))


# Status, rounds, gap and candidate of each run, to the bit, as computed
# with a separate step per block: the joint (x, y) step must do the same
# arithmetic element for element.
_PINNED = {
    "extragradient": (
        "converged", 66, "0x1.04c921bb0fb10p-10",
        (["0x1.51b0384997559p-3", "0x1.13da12cc18432p-7",
          "-0x1.c6d5d86bfdc16p-5"],
         ["-0x1.131e7214a77ffp-3", "0x1.0c3a5e4c92bc9p-4"])),
    "local_gda": (
        "converged", 7, "0x1.8036d58c8cb00p-11",
        (["0x1.5a5eb0e15cfd0p-3", "-0x1.667accd966a17p-6",
          "-0x1.046f809d7591cp-4"],
         ["-0x1.ffd61d11c39d7p-4", "0x1.307ad6c7edc3ep-4"])),
}


def _run_pinned(solver, problem):
    if solver == "extragradient":
        return extragradient_run(
            problem, ExtragradientParams(epsilon=1e-3, max_rounds=300))
    return local_gda_run(problem, LocalGdaParams(
        epsilon=1e-3, steps_per_round=2, max_rounds=40))


@pytest.mark.parametrize("solver", sorted(_PINNED))
def test_prox_branch_results_pinned(solver):
    res = _run_pinned(solver, _ball_bilinear())
    status, rounds, gap, candidate = _PINNED[solver]
    assert res.status == status
    assert res.rounds == rounds
    assert res.gap.value.hex() == gap
    assert [[float(v).hex() for v in block]
            for block in res.candidate] == [list(b) for b in candidate]


@pytest.mark.parametrize("solver", sorted(_PINNED))
@pytest.mark.parametrize("block", [0, 1])
def test_wrong_length_oracle_response_raises(solver, block):
    p = _ball_bilinear()
    if block == 0:
        p.grad_x = lambda z: np.zeros(4)
    else:
        p.grad_y = lambda z: np.zeros(3)
    with pytest.raises(ValueError):
        _run_pinned(solver, p)


# -- certified stop test -----------------------------------------------------

def _counted_gaps(monkeypatch, ledger=None):
    """Spy on the baselines' gap evaluations: each call's candidate, and
    the round count of `ledger` at the call."""
    from saddlesplit import baselines
    from saddlesplit.evaluation import restricted_gap
    calls = []

    def counted(problem, candidate):
        calls.append((candidate, ledger.round if ledger else None))
        return restricted_gap(problem, candidate)

    monkeypatch.setattr(baselines, "restricted_gap", counted)
    return calls


def test_extragradient_stop_test_traffic(monkeypatch):
    # The k = 50 quadratic chain of the benchmark: the run scores all 6888
    # iteration candidates but evaluates under a tenth of them, and stops
    # where, and with the gap bits, it did with every one evaluated.
    from saddlesplit.hard_instances import make_hard_saddle
    calls = _counted_gaps(monkeypatch)
    p = make_hard_saddle("x", 100.0, 1.0, 50)
    res = extragradient_run(p, ExtragradientParams(epsilon=0.002))
    assert res.status == "converged"
    assert res.rounds == 13776
    assert res.gap.value.hex() == "0x1.061893311795fp-9"
    assert len(calls) < 0.1 * (res.rounds // 2)


def test_local_gda_divergence_reports_previous_candidate(monkeypatch):
    # Simultaneous steps spiral out of f = (x - 0.5) y.  The divergence
    # exit reports the gap of the previous round's candidate, which the
    # stop test had skipped, so it is evaluated once, at exit.
    from saddlesplit.evaluation import restricted_gap
    p = make_bilinear(np.array([[1.0]]), b=np.array([0.5]))
    ledger = _full_ledger(p)
    calls = _counted_gaps(monkeypatch, ledger)
    res = local_gda_run(p, LocalGdaParams(epsilon=1e-3, eta_x=0.5,
                                          eta_y=0.5), ledger=ledger)
    assert res.status == "diverged" and res.rounds == 172
    previous = res.round_candidates[-2]
    assert [r for c, r in calls if c is previous] == [172]
    assert len(calls) < res.rounds
    assert res.gap == restricted_gap(p, previous)
    assert res.gap.value.hex() == "0x1.42949e2e579ecp+27"


# -- one trajectory for several accuracies -----------------------------------

def _decoupled(p, params, rows=None):
    run = decoupled_vi_run if isinstance(p, VipProblem) else decoupled_saddle_run
    return run(p, params, rows=rows)


_RUNS = {"extragradient": (extragradient_run, ExtragradientParams),
         "local_gda": (local_gda_run, LocalGdaParams),
         "decoupled": (_decoupled, DecoupledParams)}
# hard_x has no coupling (L_xy = 0), so the decoupled method freezes both
# blocks; poly3 is a 3-block VI, for the decoupled method only.
_PROBE = {
    "hard_x": lambda: make_hard_saddle("x", 100.0, 1.0, 50),
    "hard_xy": lambda: make_hard_saddle("xy", 1.0, 1.0, 500),
    "scsc": lambda: make_strongly_convex_concave(1.0, 1.0, 1.0, n=4),
    "poly3": lambda: random_polymatrix([2, 2, 2], np.random.default_rng(3),
                                       diag=1.0),
}
_LADDER = (0.05, 0.02, 0.01, 0.005)
# Each VI gap is estimated at every candidate; a coarser ladder keeps the
# test short.
_LADDERS = {"poly3": (0.2, 0.1, 0.05, 0.02)}


def _fingerprint(res):
    """Everything a run reports, to the bit."""
    led = res.ledger
    gap = None if res.gap is None else (res.gap.value.hex(), res.gap.exact,
                                        res.gap.method)
    return (res.status, res.rounds,
            {a: led.round_queries(a) for a in led.agents},
            led.weighted_cost(),
            [np.asarray(b, dtype=float).tobytes() for b in res.candidate], gap,
            res.info)


def _shared(run, params, p, ladder):
    rows = [Row(eps, OracleLedger(p.agents, costs=p.costs)) for eps in ladder]
    assert run(p, params(epsilon=None), rows=rows) is None
    return rows


@pytest.mark.parametrize("instance, solver", [
    (instance, solver) for instance in sorted(_PROBE)
    for solver in sorted(_RUNS)
    if solver == "decoupled" or instance != "poly3"])
def test_shared_rows_equal_their_standalone_runs(instance, solver):
    # Each row of one trajectory reports what a run at its epsilon alone
    # does: status, rounds, queries per agent and round, cost, candidate,
    # gap and info.  Local GDA on hard_xy converges at round 1 for 0.05
    # and diverges at round 228 for every smaller epsilon.
    run, params = _RUNS[solver]
    p = _PROBE[instance]()
    rows = _shared(run, params, p, _LADDERS.get(instance, _LADDER))
    for row in rows:
        assert _fingerprint(row.outcome) == \
            _fingerprint(run(p, params(epsilon=row.epsilon)))
    if (instance, solver) == ("hard_xy", "local_gda"):
        assert [(row.outcome.status, row.outcome.rounds) for row in rows] \
            == [("converged", 1)] + [("diverged", 228)] * 3
    if (instance, solver) == ("hard_x", "decoupled"):
        assert [row.outcome.status for row in rows] == ["local_solve"] * 4


def test_a_decoupled_row_closes_at_its_own_cap(monkeypatch):
    # The 0.05 row's default cap, ceil(5) + 2 = 7 rounds, is reached after
    # 8 (rounds come in pairs), before it converges (at 10 uncapped); the
    # rows at smaller epsilon run on to their own stops.
    from saddlesplit import decoupled
    bounds = decoupled.complexity_bounds

    def capped(p, eps, **kwargs):
        report = bounds(p, eps, **kwargs)
        if eps == 0.05:
            report.dmsp_comm = 5.0
        return report

    monkeypatch.setattr(decoupled, "complexity_bounds", capped)
    p = _PROBE["scsc"]()
    rows = _shared(_decoupled, DecoupledParams, p, _LADDER)
    for row in rows:
        assert _fingerprint(row.outcome) == _fingerprint(
            decoupled_saddle_run(p, DecoupledParams(epsilon=row.epsilon)))
    assert [(row.outcome.status, row.outcome.rounds) for row in rows] == [
        ("budget_exhausted", 8), ("converged", 14), ("converged", 18),
        ("converged", 26)]
    assert len(rows[0].outcome.info["a_history"]) == 4


def _candidate_bytes(candidate):
    return [np.asarray(b, dtype=float).tobytes() for b in candidate]


def _gap_failing_at(poisoned):
    """`restricted_gap`, raising FloatingPointError at the candidate whose
    block bytes are `poisoned`."""
    def gap(problem, candidate):
        if _candidate_bytes(candidate) == poisoned:
            raise FloatingPointError("gap failed")
        return restricted_gap(problem, candidate)
    return gap


def test_a_gap_failure_closes_every_open_row(monkeypatch):
    # The gap raises at the candidate the 0.05 run stops on.  The 0.02 run
    # scores that candidate too, but its first-step bound rules it out
    # unevaluated, so on its own it converges.  The shared trajectory
    # evaluates it for the 0.05 row, and the exception closes both rows.
    from saddlesplit import baselines, cli
    p = make_strongly_convex_concave(1.0, 1.0, 1.0, n=4)
    first = extragradient_run(p, ExtragradientParams(epsilon=0.05))
    monkeypatch.setattr(baselines, "restricted_gap",
                        _gap_failing_at(_candidate_bytes(first.candidate)))
    with pytest.raises(FloatingPointError, match="gap failed"):
        extragradient_run(p, ExtragradientParams(epsilon=0.05))
    assert extragradient_run(
        p, ExtragradientParams(epsilon=0.02)).status == "converged"
    with pytest.raises(FloatingPointError, match="gap failed"):
        _shared(extragradient_run, ExtragradientParams, p, (0.05, 0.02))
    for ledger, outcome, _ in cli._runs(p, "extragradient", (0.05, 0.02),
                                        {}, lambda: 0.0):
        assert isinstance(outcome, FloatingPointError)
        assert ledger.round == first.rounds


@pytest.mark.parametrize("solver", ["extragradient", "local_gda",
                                    "decoupled"])
def test_no_shared_row_outlives_a_gap_failure_of_its_own_run(monkeypatch,
                                                             solver):
    # Each distinct candidate that the standalone runs of the ladder
    # evaluate is poisoned in turn.  A row of the shared trajectory may
    # report a `RunResult` only where its own run does not raise.  A run
    # raises exactly when its unpoisoned run evaluates the poisoned
    # candidate, as it runs unchanged up to that evaluation, so each
    # standalone run is made once.  Rows used to run on when the shared
    # test's anchor ruled the failing candidate out: local GDA's rows did
    # in 297 of 832 cases.
    from saddlesplit import baselines, cli, decoupled
    module = decoupled if solver == "decoupled" else baselines
    run, params = _RUNS[solver]
    p = make_hard_saddle("xy", 1.0, 1.0, 10)
    ladder = (0.1, 0.05, 0.02, 0.01)
    evaluated = {}

    def recording(eps):
        seen = evaluated.setdefault(eps, set())

        def gap(problem, candidate):
            seen.add(tuple(_candidate_bytes(candidate)))
            return restricted_gap(problem, candidate)
        return gap

    for eps in ladder:
        monkeypatch.setattr(module, "restricted_gap", recording(eps))
        run(p, params(epsilon=eps))
    for poisoned in sorted(set().union(*evaluated.values())):
        monkeypatch.setattr(module, "restricted_gap",
                            _gap_failing_at(list(poisoned)))
        runs = cli._runs(p, solver, ladder, {}, lambda: 0.0)
        for eps, (_, outcome, _) in zip(ladder, runs):
            if poisoned in evaluated[eps]:
                assert not isinstance(outcome, RunResult), eps


def test_a_frozen_decoupled_row_closes_with_its_own_exception(monkeypatch):
    # hard_x has no coupling, so the decoupled method freezes both blocks
    # and runs the rows one by one, each a run of its own.  The gap raises
    # at the candidate the 0.01 run evaluates: that row closes with the
    # exception, and every other row reports what its run alone does.
    from saddlesplit import decoupled
    p = make_hard_saddle("x", 100.0, 1.0, 5)
    evaluated = []

    def recorded(problem, candidate):
        evaluated.append(_candidate_bytes(candidate))
        return restricted_gap(problem, candidate)

    monkeypatch.setattr(decoupled, "restricted_gap", recorded)
    assert decoupled_saddle_run(
        p, DecoupledParams(epsilon=0.01)).status == "local_solve"
    monkeypatch.setattr(decoupled, "restricted_gap",
                        _gap_failing_at(evaluated[-1]))
    rows = _shared(_decoupled, DecoupledParams, p, _LADDER)
    assert [row.epsilon for row in rows
            if isinstance(row.outcome, FloatingPointError)] == [0.01]
    for row in rows:
        if row.epsilon != 0.01:
            assert _fingerprint(row.outcome) == _fingerprint(
                decoupled_saddle_run(p, DecoupledParams(epsilon=row.epsilon)))


def test_an_estimated_saddle_without_values_is_refused_before_any_query():
    # The first-step bound and the estimate need f; the run used to find
    # out at its first gap evaluation, after two queries per agent.
    p = dataclasses.replace(make_strongly_convex_concave(1.0, 1.0, 1.0, n=2),
                            f_value=None)
    ledger = OracleLedger(p.agents)
    with pytest.raises(ValueError, match="requires function values"):
        extragradient_run(p, ExtragradientParams(epsilon=0.1), ledger=ledger)
    assert ledger.queries() == {a: 0 for a in p.agents}
