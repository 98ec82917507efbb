"""Oracle ledgers: who queried what, when, and at what cost.

Each agent owns one first-order oracle.  Inside a communication round agents
may only query their own oracle; information merges at round boundaries.
The ledger counts queries ``N_i`` per agent, overall and per completed
round, counts completed rounds ``T``, and exposes the weighted cost
``sum_i c_i N_i``.  It never keeps a queried point or response.  A solver
closes each round with `OracleLedger.end_round`, passing the candidate
that round produced; only a ``capture="candidates"`` ledger keeps it.
"""

from array import array
from dataclasses import dataclass, field

import numpy as np

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
        if any(c < 0 for c in self.costs.values()):
            raise ValueError("oracle costs must be nonnegative")
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

        Only ``self.record`` is used, so a baseline trajectory binds its
        oracles through here to record each call on several ledgers.
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
