"""Test-only graph oracle: networkx digraphs built from parent lists.

The package reads Markov boundaries straight off parent lists; the tests
check them, and the generators' graph properties, against networkx.
"""
import networkx as nx


def digraph(names, parents):
    """The DiGraph with an edge names[q] -> names[v] for every q in parents[v]."""
    g = nx.DiGraph()
    g.add_nodes_from(names)
    g.add_edges_from((names[q], names[v]) for v, pa in enumerate(parents) for q in pa)
    return g
