"""Graph helpers on target tables: Tarjan SCCs, cycle periods, restriction.

A graph on nodes 0..rows-1 is a (rows, w) integer table: row u holds the
targets of u's edges, -1 for no edge.  `delta`, `delta2` and the transposed
radius tables are all of this form.  One traversal, `tarjan`, gives the
components and a depth per node, from which `labelled_period` reads each
component's period without a second pass.
"""

import numpy as np


def restrict(targets, nodes):
    """Rows `nodes` of a target table, targets renumbered to positions
    within `nodes`; -1 where the edge is absent or leaves `nodes`."""
    targets = np.asarray(targets)
    position = np.full(targets.shape[0] + 1, -1)  # the extra slot maps -1 to -1
    position[nodes] = np.arange(len(nodes))
    return position[targets[nodes]]


def tarjan(targets, flips=None):
    """Strongly connected components of a target table's graph, and the
    depth of every node in the depth-first forest that found them.

    Iterative Tarjan over the flat table: roots are taken in node order and
    each node's edges in slot order, walked with one edge pointer per node.
    Returns (components, depth): the components, each a sorted list of
    nodes, in reverse topological order of the condensation, and each
    node's depth in the forest as a list.

    `flips`, a 0/1 table shaped like `targets`, puts a Z2 label on each
    edge (a voltage graph, Gross & Tucker, Topological Graph Theory, 1987).
    The same traversal then also returns each node's parity, the sum mod 2
    of the flips along its tree path from its root, as a third list: an
    edge u -> v of flip f closes a walk of odd total flip through the tree
    exactly when f ^ parity[u] ^ parity[v] is 1 (`pairs.DeadlockAnalysis`
    lifts a quotient graph with it).
    """
    table = np.asarray(targets)
    n = len(table)
    width = table.shape[1] if n else 0
    flat = table.ravel().tolist()
    flip = None if flips is None else np.asarray(flips).ravel().tolist()
    index = [0] * n  # visit order from 1; n + 1 once the component is out
    low = [0] * n
    depth = [0] * n
    parity = [0] * n
    edge = [u * width for u in range(n)]  # flat position of each node's next edge
    stack, components = [], []
    visited = 0
    for root in range(n):
        if index[root]:
            continue
        visited += 1
        index[root] = low[root] = visited
        stack.append(root)
        path = [root]
        while path:
            u = path[-1]
            e, end = edge[u], (u + 1) * width
            while e < end:
                v = flat[e]
                e += 1
                if v < 0:
                    continue
                if not index[v]:
                    break
                if index[v] < low[u]:
                    low[u] = index[v]
            else:
                path.pop()
                if path and low[u] < low[path[-1]]:
                    low[path[-1]] = low[u]
                if low[u] == index[u]:
                    comp = []
                    while not comp or comp[-1] != u:
                        comp.append(stack.pop())
                        index[comp[-1]] = n + 1
                    comp.sort()
                    components.append(comp)
                continue
            edge[u] = e
            visited += 1
            index[v] = low[v] = visited
            depth[v] = len(path)
            if flip is not None:
                parity[v] = parity[u] ^ flip[e - 1]
            stack.append(v)
            path.append(v)
    return (components, depth) if flips is None else (components, depth, parity)


def strongly_connected_components(targets):
    """Strongly connected components of the graph of a target table, each
    a sorted list of nodes, in reverse topological order of the
    condensation: the components of `tarjan`."""
    return tarjan(targets)[0]


def is_strongly_connected(targets):
    return len(targets) <= 1 or len(strongly_connected_components(targets)) == 1


def labelled_period(targets, labels):
    """Period (gcd of cycle lengths) of a strongly connected target table
    from path-length labels: labels[v] - labels[r] is the length of some
    path from one fixed node r to v.

    All paths from r to v have one length modulo the period d, so d
    divides labels[u] + 1 - labels[v] on every edge u -> v, hence their gcd
    g.  A cycle's length is the sum of these terms along it, so g divides
    every cycle length, hence d.  Thus g = d.  A table without a cycle (one
    node without a self-loop) gets 1 as a harmless default.
    """
    targets = np.asarray(targets)
    labels = np.asarray(labels)
    rows, slots = np.nonzero(targets >= 0)
    g = np.gcd.reduce(np.abs(labels[rows] + 1 - labels[targets[rows, slots]]))
    return int(g) if g else 1


def component_period(targets):
    """Period of a strongly connected target table, such as a block cut
    out by `restrict`: `labelled_period` on the depths of `tarjan`, whose
    one tree from node 0 labels every node by a path length from it."""
    return labelled_period(targets, tarjan(targets)[1])
