"""Oracle ledgers: who queried what, when, and at what cost.

Each agent owns one first-order oracle.  Inside a communication round agents
may only query their own oracle; information merges at round boundaries.
The ledger counts queries ``N_i`` per agent, overall and per completed
round, counts completed rounds ``T``, and exposes the weighted cost
``sum_i c_i N_i``.  Only with ``capture="full"`` does it also keep every
(point, response) pair per agent per round, and the candidate each solver
hands to `OracleLedger.keep` after each round.

`span_check` verifies the gradient-span discipline on a full-capture
ledger: any point an agent can form must sit in the affine span of its
origin and the preconditioned responses it has seen so far.
"""

import copy
from array import array
from dataclasses import dataclass, field

import numpy as np

CAPTURE_LEVELS = ("counts", "full")
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
    capture : {"counts", "full"}
        ``"counts"`` (the default) keeps query counts only: overall and per
        completed round.  ``"full"`` also keeps an independent copy of every
        (point, response) pair, which `trace`, `responses` and `span_check`
        read, and the per-round candidates passed to `keep`.
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
        if capture == "full":
            self._closed = []      # list of dicts: agent -> [(point, response)]
            self._open = {a: [] for a in self.agents}
            self._kept = []

    # -- recording ---------------------------------------------------------

    def record(self, agent, point, response):
        """Record one oracle query by `agent` in the current round."""
        if agent not in self._counts:
            raise KeyError(f"unknown agent {agent!r}")
        self._counts[agent] += 1
        if self.capture == "full":
            self._open[agent].append(
                (copy.deepcopy(point),
                 np.array(response, dtype=float, copy=True)))

    def end_round(self):
        """Close the current round; queries after this land in the next one."""
        self._rounds += 1
        for a, ends in self._round_ends.items():
            ends.append(self._counts[a])
        if self.capture == "full":
            self._closed.append(self._open)
            self._open = {a: [] for a in self.agents}

    def keep(self, candidate):
        """Keep `candidate` as the candidate after the last closed round.

        A ``capture="full"`` ledger stores the object itself, uncopied; a
        counts ledger stores nothing.
        """
        if self.capture == "full":
            self._kept.append(candidate)

    def bind(self, agent, fn):
        """Wrap `fn` so every call is recorded under `agent`."""
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

    def trace(self, agent, through_round=None, include_open=True):
        """All (point, response) pairs recorded by `agent`.

        Needs ``capture="full"``; raises `ValueError` otherwise.

        Parameters
        ----------
        agent : str
        through_round : int, optional
            Only include rounds ``1..through_round``.  Default: all closed
            rounds.
        include_open : bool
            Whether queries of the still-open round are visible.  True for
            the agent's own view, False for what remote agents have seen.
        """
        if self.capture != "full":
            raise ValueError(
                'this ledger keeps counts only; construct it with '
                'capture="full" to read recorded points and responses')
        if through_round is None:
            through_round = len(self._closed)
        out = []
        for rec in self._closed[:through_round]:
            out.extend(rec[agent])
        if include_open and through_round >= len(self._closed):
            out.extend(self._open[agent])
        return out

    def responses(self, agent, through_round=None, include_open=True):
        return [r for _, r in self.trace(agent, through_round, include_open)]

    def kept(self):
        """The candidates passed to `keep`, oldest first; empty on a counts
        ledger."""
        return list(self._kept) if self.capture == "full" else []


def span_check(ledger, agent, candidate, origin, metric,
               through_round=None, include_open=True, tol=1e-8):
    """Check that ``candidate - origin`` lies in span{P^{-1} g : g seen}.

    The responses visible to `agent` (its own oracle answers through the
    given round) are mapped through the inverse block metric and a least
    squares fit of ``candidate - origin`` against them is formed.  Needs a
    ledger built with ``capture="full"``; raises `ValueError` otherwise.

    Returns
    -------
    (ok, residual) : (bool, float)
        `ok` is True when the Euclidean least-squares residual is at most
        ``tol * (1 + ||candidate||)``.
    """
    candidate = np.asarray(candidate, dtype=float)
    origin = np.asarray(origin, dtype=float)
    d = candidate - origin
    gs = ledger.responses(agent, through_round, include_open)
    if gs:
        cols = np.stack([metric.apply_inv(g) for g in gs], axis=1)
        coef, _, _, _ = np.linalg.lstsq(cols, d, rcond=None)
        residual = float(np.linalg.norm(d - cols @ coef))
    else:
        residual = float(np.linalg.norm(d))
    ok = residual <= tol * (1.0 + float(np.linalg.norm(candidate)))
    return ok, residual


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
        `round_candidates` the candidates it kept.
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
        """Candidate available after each completed round, as kept by the
        ledger; entry ``t`` is the candidate after round ``t + 1``.  Empty
        unless the ledger was built with ``capture="full"``."""
        return self.ledger.kept()
