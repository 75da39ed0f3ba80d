"""Graph helpers on target tables: Tarjan SCCs, cycle periods, restriction.

A graph on nodes 0..rows-1 is a (rows, w) integer table: row u holds the
targets of u's edges, -1 for no edge.  `delta`, `delta2` and the transposed
radius tables are all of this form.
"""

import itertools
from math import gcd

import numpy as np


def _adjacency(targets):
    return [[t for t in row if t >= 0] for row in np.asarray(targets).tolist()]


def restrict(targets, nodes):
    """Rows `nodes` of a target table, targets renumbered to positions
    within `nodes`; -1 where the edge is absent or leaves `nodes`."""
    targets = np.asarray(targets)
    position = np.full(targets.shape[0] + 1, -1)  # the extra slot maps -1 to -1
    position[nodes] = np.arange(len(nodes))
    return position[targets[nodes]]


def strongly_connected_components(targets):
    """Strongly connected components of the graph of a target table.

    Iterative Tarjan; returns a list of components (each a sorted list of
    nodes) in reverse topological order of the condensation.
    """
    adjacency = _adjacency(targets)
    n = len(adjacency)
    index = [0] * n  # visit order from 1; n + 1 once the component is out
    low = [0] * n
    stack, work, components = [], [], []
    counter = itertools.count(1)

    def visit(v):
        index[v] = low[v] = next(counter)
        stack.append(v)
        work.append((v, iter(adjacency[v])))

    for root in range(n):
        if index[root]:
            continue
        visit(root)
        while work:
            u, it = work[-1]
            for v in it:
                if not index[v]:
                    visit(v)
                    break
                low[u] = min(low[u], index[v])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[u])
                if low[u] == index[u]:
                    comp = []
                    while not comp or comp[-1] != u:
                        comp.append(stack.pop())
                        index[comp[-1]] = n + 1
                    comp.sort()
                    components.append(comp)
    return components


def is_strongly_connected(targets):
    return len(targets) <= 1 or len(strongly_connected_components(targets)) == 1


def component_period(targets):
    """Period (gcd of cycle lengths) of a strongly connected target table,
    such as a block cut out by `restrict`.  A single node without a
    self-loop has no cycle; 1 is returned as a harmless default.
    """
    adjacency = _adjacency(targets)
    level = [-1] * len(adjacency)
    level[0] = 0
    order = [0]
    g = 0
    for u in order:
        for v in adjacency[u]:
            if level[v] >= 0:
                g = gcd(g, level[u] + 1 - level[v])
            else:
                level[v] = level[u] + 1
                order.append(v)
    return abs(g) if g else 1
