"""Interchangeable scheduling policies: callables (graph, q, r) -> Schedule.

:class:`SolverPolicy` feeds a handcrafted per-link utility of backlog and
rate to one independent-set solver: ``lgs`` is the distributed baseline,
``greedy_centralized`` and ``exact_mwis`` are the reference schedulers.
:class:`GcnLgsPolicy` feeds GCN utilities to ``lgs``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .gcn import LEAKY_SLOPE, GcnParams, forward
from .graph import ConflictGraph, normalized_laplacian
from .solvers import Schedule, baseline_utility, lgs


class SolverPolicy:
    """A solver applied to the :func:`baseline_utility` of (q, r)."""

    def __init__(self, solver: Callable[[ConflictGraph, np.ndarray], Schedule],
                 utility_kind: str = "product"):
        self.solver = solver
        self.utility_kind = utility_kind

    def __call__(self, graph: ConflictGraph, q, r) -> Schedule:
        return self.solver(graph, baseline_utility(q, r, self.utility_kind))


class GcnLgsPolicy:
    """GCN-derived utilities fed to the distributed local greedy solver.

    The node features are the baseline utility; the Laplacian of the most
    recently seen graph is cached, which covers the per-episode and
    per-instance usage patterns.
    """

    def __init__(self, params: GcnParams, slope: float = LEAKY_SLOPE,
                 feature_kind: str = "product"):
        self.params = params
        self.slope = slope
        self.feature_kind = feature_kind
        self._graph: ConflictGraph | None = None
        self._laplacian: np.ndarray | None = None

    def laplacian_for(self, graph: ConflictGraph) -> np.ndarray:
        if graph is not self._graph:
            self._graph = graph
            self._laplacian = normalized_laplacian(graph)
        return self._laplacian

    def utilities(self, graph: ConflictGraph, q, r) -> np.ndarray:
        features = baseline_utility(q, r, self.feature_kind)[:, None]
        u, _ = forward(self.params, self.laplacian_for(graph), features,
                       self.slope)
        return u

    def __call__(self, graph: ConflictGraph, q, r) -> Schedule:
        return lgs(graph, self.utilities(graph, q, r))
