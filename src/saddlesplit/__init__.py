"""Solvers and benchmarks for two-agent saddle problems and multi-agent
monotone variational inequalities under a per-agent oracle cost model.

The package is organised around a few small pieces:

* :mod:`saddlesplit.metrics` -- diagonally scaled block metrics and their duals.
* :mod:`saddlesplit.problems` -- composite terms (prox-friendly regularisers and
  indicators), problem containers, instance generators, serialization.
* :mod:`saddlesplit.accounting` -- oracle ledgers: per-agent query counts,
  communication rounds, weighted cost, and the candidates kept per round;
  the rows (one per accuracy) that one solver trajectory serves.
* :mod:`saddlesplit.baselines` -- extragradient and local gradient
  descent-ascent reference solvers.
* :mod:`saddlesplit.decoupled` -- the anchored proximal-point outer loop with
  per-block inner solvers that never query remote oracles inside a round.
* :mod:`saddlesplit.hard_instances` -- chain-structured bilinear instances with
  known Krylov lower bounds.
* :mod:`saddlesplit.evaluation` -- restricted gap functions and closed-form
  complexity bounds.
* :mod:`saddlesplit.cli` -- configuration-driven benchmark harness.
"""

from saddlesplit.metrics import ScaledMetric, ProductMetric
from saddlesplit.accounting import OracleLedger, RunResult

__all__ = [
    "ScaledMetric",
    "ProductMetric",
    "OracleLedger",
    "RunResult",
]

__version__ = "0.1.0"
