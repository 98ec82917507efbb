"""Oracle ledgers: who queried what, when, and at what cost.

Each agent owns one first-order oracle.  Inside a communication round agents
may only query their own oracle; information merges at round boundaries.
The ledger counts queries ``N_i`` per agent, overall and per completed
round, counts completed rounds ``T``, and exposes the weighted cost
``sum_i c_i N_i``.  It never keeps a queried point or response.  A solver
closes each round with `OracleLedger.end_round`, passing the candidate
that round produced; only a ``capture="candidates"`` ledger keeps it.

A `Trajectory` lets one solver run serve several accuracies, each a `Row`
on a ledger of its own.
"""

from array import array
from dataclasses import dataclass, field

import numpy as np

from saddlesplit.evaluation import GapTest

CAPTURE_LEVELS = ("counts", "candidates")
# Statuses of a run that reached its target accuracy.
GOOD_STATUSES = ("converged", "solution_found", "local_solve")


class OracleLedger:
    """Query/round bookkeeping for a set of named agents.

    Parameters
    ----------
    agents : sequence of str
        Agent names, e.g. ``("x", "y")`` or ``("1", "2", "3")``.
    costs : sequence of float, optional
        Per-query cost ``c_i`` of each agent's oracle.  Defaults to ones.
    capture : {"counts", "candidates"}
        ``"counts"`` (the default) keeps query counts only: overall and per
        completed round.  ``"candidates"`` also keeps the candidate passed
        to `end_round` when each round closes.
    """

    def __init__(self, agents, costs=None, capture="counts"):
        self.agents = tuple(agents)
        if len(set(self.agents)) != len(self.agents):
            raise ValueError("agent names must be distinct")
        if costs is None:
            costs = [1.0] * len(self.agents)
        if len(costs) != len(self.agents):
            raise ValueError("one cost per agent required")
        self.costs = {a: float(c) for a, c in zip(self.agents, costs)}
        if not all(0.0 <= c < np.inf for c in self.costs.values()):
            raise ValueError("oracle costs must be finite and nonnegative")
        if capture not in CAPTURE_LEVELS:
            raise ValueError(f"capture must be one of {CAPTURE_LEVELS}, "
                             f"got {capture!r}")
        self.capture = capture
        self._counts = {a: 0 for a in self.agents}
        self._rounds = 0
        # Per agent, its query count at the end of each closed round.
        self._round_ends = {a: array("q") for a in self.agents}
        self._kept = []

    # -- recording ---------------------------------------------------------

    def record(self, agent, point, response):
        """Record one oracle query by `agent` in the current round; only
        the count is kept."""
        if agent not in self._counts:
            raise KeyError(f"unknown agent {agent!r}")
        self._counts[agent] += 1

    def end_round(self, candidate=None):
        """Close the current round, which produced `candidate`; queries
        after this land in the next one.  Only a ``capture="candidates"``
        ledger keeps `candidate`, uncopied: one per closed round."""
        self._rounds += 1
        for a, ends in self._round_ends.items():
            ends.append(self._counts[a])
        if self.capture == "candidates":
            self._kept.append(candidate)

    def bind(self, agent, fn):
        """Wrap `fn` so every call is recorded under `agent`.

        Only ``self.record`` is used, so a `Trajectory` binds its oracles
        through here to record each call on several ledgers.
        """
        def recorded(point):
            response = fn(point)
            self.record(agent, point, response)
            return response
        return recorded

    # -- accessors ---------------------------------------------------------

    @property
    def round(self):
        """Number of completed rounds."""
        return self._rounds

    def queries(self, agent=None):
        if agent is None:
            return dict(self._counts)
        return self._counts[agent]

    def round_queries(self, agent):
        """Queries by `agent` in each closed round, oldest first."""
        ends = self._round_ends[agent]
        return [n - prev for prev, n in zip((0, *ends), ends)]

    def weighted_cost(self):
        """Total cost ``sum_i c_i N_i``."""
        return float(sum(self.costs[a] * n for a, n in self._counts.items()))

    def kept(self):
        """The candidate of each closed round, oldest first; empty on a
        counts ledger."""
        return list(self._kept)


@dataclass
class RunResult:
    """Outcome of one solver run.

    Attributes
    ----------
    status : str
        "converged", "solution_found", "budget_exhausted", "diverged",
        or "local_solve" for the fully decoupled special case.
    candidate : ndarray
        Final joint candidate.
    gap : object or None
        Last gap evaluation (a `GapResult`), when a gap oracle was supplied.
    ledger : OracleLedger
        The run's ledger; `rounds` reads its completed rounds and
        `round_candidates` the candidates its rounds closed with.
    info : dict
        Solver-specific extras (step sizes, inner-iteration stats, ...).
    """
    status: str
    candidate: np.ndarray
    gap: object
    ledger: OracleLedger
    info: dict = field(default_factory=dict)

    @property
    def rounds(self):
        """Communication rounds used, as counted by the ledger."""
        return self.ledger.round

    @property
    def round_candidates(self):
        """Candidate of each completed round, as passed to `end_round`;
        entry ``t`` is the candidate after round ``t + 1``.  Empty unless
        the ledger was built with ``capture="candidates"``."""
        return self.ledger.kept()


@dataclass(eq=False)
class Row:
    """One accuracy that a solver trajectory serves, known by position.

    The row has its own `ledger` and, while a trajectory serves it, its
    own stop `test` (a `GapTest`), so it sees what a run at its `epsilon`
    alone would.  When it closes, `outcome` becomes that run's
    `RunResult`, or an exception, and `on_close(row)` is called.  The
    contract of a row:

    - whenever nothing raises, in the trajectory or in the row's own
      run, its outcome equals that run's;
    - an epsilon that its own round cap refuses closes only this row,
      with that exception, before the trajectory starts;
    - any other exception (an oracle's, an invariant check's, the stop
      test's or a final gap's) propagates out of the solver and leaves
      the open rows without an outcome; `cli` closes every one of them
      with it.  The row's stop test asks for exactly the gap
      evaluations of its own run, so a row whose own run raises in a
      gap evaluation never reports a `RunResult`.

    Rows that the decoupled solver runs one by one (a frozen block) are
    each a run of their own, exception included.
    """
    epsilon: float
    ledger: OracleLedger
    on_close: object = None
    outcome: object = None
    test: object = None

    def close(self, outcome):
        """Settle the row with `outcome` and call `on_close`."""
        self.outcome = outcome
        if self.on_close is not None:
            self.on_close(self)


class Trajectory:
    """The rows one solver run serves, and which of them are still open.

    Without `rows`, a single row at ``params.epsilon`` on `ledger` (a new
    one if None), whose outcome `close` returns.  The ledgers of the open
    rows stay in step: every query and every round closes on each of
    them.  The first open row's stop test is a `GapTest` that scores
    through ``evaluate(problem, candidate)``, the solver module's
    `restricted_gap`, and its `GapTest.at` makes the others', so each row
    keeps the test its own run would and a candidate is evaluated once
    for every row that asks.  ``cap(epsilon)`` is a row's round cap,
    ``params.max_rounds`` without it; a row whose cap raises is closed
    with that exception before the run starts (a single row raises it).
    ``info(ledger)`` is the ``info`` of the result on a row's `ledger`,
    taken when the row closes.  See `Row` for what a row reports.
    """

    def __init__(self, problem, params, ledger, rows, evaluate, info,
                 cap=None):
        self._single = None
        if rows is None:
            if ledger is None:
                ledger = OracleLedger(problem.agents, costs=problem.costs)
            self._single = Row(params.epsilon, ledger)
            rows = [self._single]
        self.info = info
        # Per open row, the trajectory's own round count at which the
        # row's ledger reaches its cap.
        self._ends = {}
        self._round = 0
        for row in rows:
            try:
                cap_rounds = (params.max_rounds if cap is None
                              else cap(row.epsilon))
            except Exception as exc:     # the row's own run raises it here
                if self._single is not None:
                    raise
                row.close(exc)
            else:
                self._ends[row] = cap_rounds - row.ledger.round
        self._refresh(tuple(self._ends))
        for row in self.open:
            row.test = (GapTest(problem, row.epsilon, evaluate)
                        if row is self.open[0]
                        else self.open[0].test.at(row.epsilon))

    def _refresh(self, rows):
        """Make `rows` the open ones; cache their ledgers and the first
        round one of them ends."""
        self.open = rows
        self._ledgers = tuple(row.ledger for row in rows)
        self._next_end = min((self._ends[row] for row in rows), default=0)

    def bind(self, agent, fn):
        """`fn`, each call recorded on every open row's ledger.

        `OracleLedger.bind` is looked up when the run starts, so a wrapper
        installed there sees each oracle computation once.
        """
        return OracleLedger.bind(self, agent, fn)

    def record(self, agent, point, response):
        for ledger in self._ledgers:
            ledger.record(agent, point, response)

    def end_round(self, candidate):
        self._round += 1
        for ledger in self._ledgers:
            ledger.end_round(candidate)

    def running(self, candidate):
        """Close, as budget_exhausted at `candidate`, each open row whose
        cap its rounds have reached; whether any row is still open."""
        if self._round >= self._next_end:
            for row in self.open:
                if self._round >= self._ends[row]:
                    self._finish(row, "budget_exhausted", candidate)
        return bool(self.open)

    def stop(self, candidate, status="converged"):
        """Close, with `status`, each open row whose stop test passes.

        Each row's test scores `candidate`, in row order.
        """
        for row in self.open:
            if row.test(candidate):
                self._finish(row, status, candidate)

    def close(self, status, candidate):
        """Close every open row with `status`; the single row's outcome."""
        for row in self.open:
            self._finish(row, status, candidate)
        return None if self._single is None else self._single.outcome

    def _finish(self, row, status, candidate):
        result = RunResult(status=status, candidate=candidate,
                           gap=row.test.finish(candidate, status),
                           ledger=row.ledger, info=self.info(row.ledger))
        self._refresh(tuple(r for r in self.open if r is not row))
        row.close(result)
