"""Interchangeable scheduling policies: a utility function plus a solver name.

Every policy has the same two parts. ``utilities(graph, x)`` is the
per-link utility it schedules on: given (B, V) rows of the one input
feature, backlog x rate, it returns (B, V) utilities. The rows are
read-only. :func:`~linksched.sim.run_episode` weighs every row of a slot in
one :func:`~linksched.solvers.baseline_utility` call into one buffer per
run and passes each policy its (K, V) block of it, one row per trace,
K = 1 included; the next slot overwrites that block, so a policy that
keeps its rows past the call copies them. ``run_episode`` checks what
the policies return, so a policy checks nothing. ``solver`` names the
independent-set solver that turns those utilities into a schedule:
``"lgs"`` (the distributed baseline), ``"greedy"`` or ``"exact"`` (the
centralized reference schedulers). A policy holds no solver function:
:func:`~linksched.sim.run_episode` solves every policy's utilities, the
rows of all policies that name one solver in one call of it per slot.

:class:`SolverPolicy` hands its solver the baseline's weight, backlog x
rate itself; :class:`GcnLgsPolicy` hands its solver the GCN's utilities of
that one feature per link: ``lgs`` in evaluation, which reports its
message rounds, and ``greedy`` on training's main trajectory, which reads
no rounds. Greedy's scan in (utility, node ID) order picks LGS's schedule
on every row, signed utilities and zeros included, at a fraction of the
cost of a one-row :func:`~linksched.solvers.lgs_rows` call. The GCN runs
as :func:`~linksched.gcn.propagate`, :func:`~linksched.gcn.forward`'s
layer loop without its input checks or the cache that only training's
backward pass reads.
"""

from __future__ import annotations

import numpy as np

from .gcn import LEAKY_SLOPE, GcnParams, propagate
from .graph import ConflictGraph


class SolverPolicy:
    """A solver, by name, applied to backlog x rate as it stands."""

    def __init__(self, solver: str):
        self.solver = solver

    def utilities(self, graph: ConflictGraph, x) -> np.ndarray:
        return x


class GcnLgsPolicy:
    """GCN-derived utilities fed to the distributed local greedy solver, or
    to another solver by name.

    ``solver="greedy"`` schedules exactly what ``"lgs"`` does, without
    message rounds (training uses it; see the module docstring). The GCN's
    one input feature per node is backlog x rate, the one input a
    checkpoint is trained on; the convolution uses the graph's own cached
    :attr:`ConflictGraph.laplacian`, so the policy holds no per-graph state.
    Its utilities are bitwise :func:`~linksched.gcn.forward`'s, whose layer
    loop it runs, unchecked, on float64 rows of the graph's width.
    """

    def __init__(self, params: GcnParams, slope: float = LEAKY_SLOPE,
                 solver: str = "lgs"):
        self.solver = solver
        self.params = params
        self.slope = slope

    def utilities(self, graph: ConflictGraph, x) -> np.ndarray:
        return propagate(self.params, graph.laplacian, x[..., None],
                         self.slope)[..., 0]
