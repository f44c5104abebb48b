"""The one-``bincount`` push step, kept as the oracle for the blocked kernel.

``bincount_pagerank`` is ``pagerank`` as it was before the push step became
one ``np.add.at`` per block of source nodes: every step builds the per-edge
shares of all nodes with one ``np.repeat`` and sums them into the targets
with one ``bincount``. The rest of the update is unchanged, so the current
kernel must return bitwise-equal scores, iteration count and final delta.
"""
import numpy as np

from patentflow.pagerank import DANGLING_UNIFORM_OTHERS, convergence_delta


def bincount_pagerank(graph, params):
    """``(scores, iterations, final_delta)`` of the one-``bincount`` kernel."""
    n = graph.node_count
    d = params.damping
    base = (1.0 - d) / n
    dangling = graph.dangling_nodes
    inv_out = np.zeros(n)
    linked = graph.out_degrees > 0
    inv_out[linked] = 1.0 / graph.out_degrees[linked]
    exclude_self = params.dangling_mode == DANGLING_UNIFORM_OTHERS and n > 1

    cur = np.full(n, 1.0 / n)
    iterations = 0
    delta = float("inf")
    for iterations in range(1, params.max_iterations + 1):
        dangling_mass = float(cur[dangling].sum())
        inflow = np.bincount(
            graph.out_indices, weights=np.repeat(cur * inv_out, graph.out_degrees), minlength=n
        )
        if exclude_self:
            nxt = base + d * (inflow + dangling_mass / (n - 1.0))
            nxt[dangling] -= d * (cur[dangling] / (n - 1.0))
        else:
            nxt = base + d * (inflow + dangling_mass / n)
        delta = convergence_delta(cur, nxt)
        cur = nxt
        if delta < params.epsilon:
            break
    return cur, iterations, delta
