"""The one-``bincount`` push step, kept as the oracle for the CSC kernel.

``bincount_pagerank`` is ``pagerank`` with its inflow computed another way:
every step builds the per-edge shares of all nodes with one ``np.repeat``
and sums them into the targets with one ``bincount``, in edge order. So
each node's inflow is summed left to right over its in-neighbors in
ascending index order, as the CSC product sums it. The rest of the update
is the same, so ``pagerank`` must return bitwise-equal scores, iteration
count and final delta.

``convergence_delta`` is the package's L1 distance between two score
vectors from before ``pagerank`` computed each step's delta in a reused
buffer. It is kept unchanged as this kernel's delta.
"""
import numpy as np

from patentflow.errors import PatentFlowError
from patentflow.pagerank import DANGLING_UNIFORM_OTHERS


def convergence_delta(prev: np.ndarray, nxt: np.ndarray) -> float:
    """L1 distance between two score vectors."""
    prev = np.asarray(prev, dtype=np.float64)
    nxt = np.asarray(nxt, dtype=np.float64)
    if prev.shape != nxt.shape:
        raise PatentFlowError(
            f"score vectors differ in length: {prev.shape} vs {nxt.shape}"
        )
    return float(np.abs(nxt - prev).sum())


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
