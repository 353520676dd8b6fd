"""Every small connected graph, one per isomorphism class, from the networkx
graph atlas; networkx is a test dependency only."""

from __future__ import annotations

import networkx as nx

from spanforge.resistance import Graph


def connected_graphs_upto(max_n: int = 7, min_n: int = 2) -> list[Graph]:
    """All connected graphs on min_n..max_n vertices, one per isomorphism
    class, in atlas order, with s = 0 and t = n-1."""
    if max_n > 7:
        raise ValueError("the atlas covers graphs on at most 7 vertices")
    out = []
    for g in nx.graph_atlas_g()[1:]:
        n = g.number_of_nodes()
        if not (min_n <= n <= max_n):
            continue
        if not nx.is_connected(g):
            continue
        out.append(Graph(n=n, edges=frozenset(g.edges()), s=0, t=n - 1))
    return out
