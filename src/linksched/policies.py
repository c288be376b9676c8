"""Interchangeable scheduling policies: callables (graph, q, r) -> Schedule.

:class:`SolverPolicy` feeds a handcrafted per-link utility of backlog and
rate to one independent-set solver: ``lgs`` is the distributed baseline,
``greedy_centralized`` and ``exact_mwis`` are the reference schedulers.
:class:`GcnLgsPolicy` feeds GCN utilities to ``lgs``.

Each policy's ``utilities(graph, q, r)`` is the utility it hands its
solver. It takes (V,) vectors or (B, V) rows of queues and rates alike, so
the baseline's lookahead rollouts and the trainer's reward read many states
in one call. A policy whose ``schedules_with_lgs`` is true would call
``lgs`` on those utilities, so :func:`~linksched.sim.run_episode` solves
the rows of all such policies in one :func:`~linksched.solvers.lgs_rows`
call instead of calling each.
"""

from __future__ import annotations

import inspect
from typing import Callable

import numpy as np

from . import solvers
from .gcn import LEAKY_SLOPE, GcnParams, forward
from .graph import ConflictGraph
from .solvers import Schedule, baseline_utility, lgs


def _is_lgs(solver) -> bool:
    """True when ``solver`` is :func:`~linksched.solvers.lgs`, also while
    wrappers made with ``functools.wraps``, such as a tracer's, stand in for
    it here or in ``solvers``. A stand-in of another kind is not ``lgs``, so
    a policy using one is called slot by slot."""
    return inspect.unwrap(solver) is inspect.unwrap(solvers.lgs)


class SolverPolicy:
    """A solver applied to the :func:`baseline_utility` of (q, r)."""

    def __init__(self, solver: Callable[[ConflictGraph, np.ndarray], Schedule],
                 utility_kind: str = "product"):
        self.solver = solver
        self.utility_kind = utility_kind

    @property
    def schedules_with_lgs(self) -> bool:
        return _is_lgs(self.solver)

    def utilities(self, graph: ConflictGraph, q, r) -> np.ndarray:
        return baseline_utility(q, r, self.utility_kind)

    def __call__(self, graph: ConflictGraph, q, r) -> Schedule:
        return self.solver(graph, self.utilities(graph, q, r))


class GcnLgsPolicy:
    """GCN-derived utilities fed to the distributed local greedy solver.

    The node :meth:`features` are the baseline utility; the convolution uses
    the graph's own cached :attr:`ConflictGraph.laplacian`, so the policy
    holds no per-graph state.
    """

    def __init__(self, params: GcnParams, slope: float = LEAKY_SLOPE,
                 feature_kind: str = "product"):
        self.params = params
        self.slope = slope
        self.feature_kind = feature_kind

    @property
    def schedules_with_lgs(self) -> bool:
        return _is_lgs(lgs)

    def features(self, q, r) -> np.ndarray:
        """The GCN input: one feature per link, (V, 1) or (B, V, 1)."""
        return baseline_utility(q, r, self.feature_kind)[..., None]

    def utilities(self, graph: ConflictGraph, q, r) -> np.ndarray:
        return forward(self.params, graph.laplacian, self.features(q, r),
                       self.slope)[0]

    def __call__(self, graph: ConflictGraph, q, r) -> Schedule:
        return lgs(graph, self.utilities(graph, q, r))
