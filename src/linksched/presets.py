"""Named conflict-graph families used throughout the experiments.

Recognized names (case-insensitive, surrounding whitespace ignored; each
count <X> written plain, in ASCII digits with no leading zero, as the
instance readers read their numerals):

    star<X>   star graph, X peripheral links (X+1 <= STAR_MAX_NODES nodes)
    ba-m<X>   Barabasi-Albert graph on 70 nodes, X edges per new node
    ba-mix    BA graphs with size drawn from {100,150,...,300} and
              attachment from {2,5,10,15,20}, sampled independently
    er        Erdos-Renyi graph, 50 nodes, edge probability 0.1
    tree      power-law tree, 50 nodes, exponent 3
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graph import (ConflictGraph, as_rng, generate_ba, generate_er,
                    generate_power_law_tree, generate_star)

BA_NODES = 70
BA_MIX_SIZES = (100, 150, 200, 250, 300)
BA_MIX_ATTACH = (2, 5, 10, 15, 20)
ER_NODES = 50
ER_EDGE_PROB = 0.1
TREE_NODES = 50
TREE_EXPONENT = 3.0
STAR_MAX_NODES = 10_000  # refused above this before anything is built
# a family's count: ASCII digits and no leading zero; 0 itself parses, so
# that the range check refuses it with its own message
PLAIN_COUNT = "0|[1-9][0-9]*"


@dataclass(frozen=True)
class GraphConfig:
    """A named random-graph family; ``build`` draws one instance. A
    ``fixed`` family builds the same graph on every draw and draws nothing
    from the generator (a star)."""

    name: str
    max_nodes: int
    _builder: Callable[[np.random.Generator], ConflictGraph]
    fixed: bool = False

    def build(self, rng: np.random.Generator | int | None = None) -> ConflictGraph:
        return self._builder(as_rng(rng))

    def for_run(self) -> "GraphConfig":
        """This family for the draws of one run: a fixed family builds its
        graph once, here, and returns that one graph, whose derived tables
        are cached on it, on every draw; any other family is itself. The
        graph lives as long as the returned config, so nothing outlives
        the run that holds it."""
        if not self.fixed:
            return self
        graph = self.build()
        return GraphConfig(self.name, self.max_nodes, lambda gen: graph, True)


def _ba_mix(gen: np.random.Generator) -> ConflictGraph:
    n = int(gen.choice(BA_MIX_SIZES))
    m = int(gen.choice(BA_MIX_ATTACH))
    return generate_ba(n, m, gen)


def parse_graph_config(name: str) -> GraphConfig:
    """Resolve a configuration name into a :class:`GraphConfig`, named by
    its key: the name stripped and in lower case. A count not written
    plain, such as ``star030``, ``ba-m02`` or one in full-width digits, is
    refused as an unknown name rather than read as another family's, whose
    name it would then carry into every file the run writes."""
    key = name.strip().lower()
    star = re.fullmatch(f"star({PLAIN_COUNT})", key)
    if star:
        x = int(star.group(1))
        if not 1 <= x < STAR_MAX_NODES:
            raise ValueError(f"{name}: star needs 1 to {STAR_MAX_NODES - 1} "
                             "peripherals")
        return GraphConfig(key, x + 1, lambda gen, x=x: generate_star(x),
                           fixed=True)
    ba = re.fullmatch(f"ba-m({PLAIN_COUNT})", key)
    if ba:
        m = int(ba.group(1))
        if not 1 <= m < BA_NODES:
            raise ValueError(f"{name}: attachment count must lie in [1, {BA_NODES})")
        return GraphConfig(key, BA_NODES,
                           lambda gen, m=m: generate_ba(BA_NODES, m, gen))
    if key == "ba-mix":
        return GraphConfig(key, max(BA_MIX_SIZES), _ba_mix)
    if key == "er":
        return GraphConfig(key, ER_NODES,
                           lambda gen: generate_er(ER_NODES, ER_EDGE_PROB, gen))
    if key == "tree":
        return GraphConfig(
            key, TREE_NODES,
            lambda gen: generate_power_law_tree(TREE_NODES, TREE_EXPONENT, gen))
    raise ValueError(f"unknown graph configuration: {name!r}")
