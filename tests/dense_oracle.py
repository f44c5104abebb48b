"""Dense reference PageRank and the random graphs the oracle tests draw.

``dense_pagerank`` materializes the full transition matrix and runs plain
matrix-vector power iteration; it shares no accumulation code with the
sparse engine and exists purely as an independent cross-check.
"""
import numpy as np

from patentflow import CitationGraph, PageRankParams, PatentFlowError, build_graph
from patentflow.pagerank import DANGLING_UNIFORM_OTHERS

DENSE_NODE_LIMIT = 2000


def dense_pagerank(graph: CitationGraph, params: PageRankParams) -> np.ndarray:
    """Fixed point via explicit dense transition matrix.

    Iterates to one tenth of ``params.epsilon`` and raises if that cannot
    be reached; an unconverged oracle would be worthless. Limited to
    graphs of up to 2000 nodes because the full N*N matrix is built.
    """
    n = graph.node_count
    if n == 0:
        raise PatentFlowError("dense_pagerank requires a non-empty graph")
    if n > DENSE_NODE_LIMIT:
        raise PatentFlowError(
            f"dense_pagerank is limited to {DENSE_NODE_LIMIT} nodes, got {n}"
        )
    exclude_self = params.dangling_mode == DANGLING_UNIFORM_OTHERS and n > 1
    m = np.zeros((n, n))
    for j in range(n):
        outs = graph.out_neighbors(j)
        if outs.size:
            m[outs, j] = 1.0 / outs.size
        elif exclude_self:
            m[:, j] = 1.0 / (n - 1)
            m[j, j] = 0.0
        else:
            m[:, j] = 1.0 / n

    teleport = (1.0 - params.damping) / n
    tol = params.epsilon / 10.0
    p = np.full(n, 1.0 / n)
    for _ in range(max(10 * params.max_iterations, 1000)):
        nxt = teleport + params.damping * (m @ p)
        if np.abs(nxt - p).sum() < tol:
            return nxt
        p = nxt
    raise PatentFlowError("dense reference iteration did not reach tolerance")


def random_graph(node_count: int, edge_count: int, seed: int) -> CitationGraph:
    """Seeded random directed graph for oracle comparisons.

    From two nodes on, about a tenth of the nodes are barred from citing
    anything, so the dangling redistribution path is always hit.
    """
    rng = np.random.default_rng(seed)
    if node_count >= 2:
        k = max(1, node_count // 10)
        silent = rng.choice(node_count, size=k, replace=False)
        mask = np.ones(node_count, dtype=bool)
        mask[silent] = False
        sources = np.flatnonzero(mask)
    else:
        sources = np.arange(node_count)
    src = sources[rng.integers(0, sources.size, size=edge_count)]
    dst = rng.integers(0, node_count, size=edge_count)
    return build_graph(np.column_stack((src, dst)), node_count)


def random_citation_edges(node_count: int, edge_count: int, seed: int) -> np.ndarray:
    """Large-scale citation-shaped edge sample (vectorized, index pairs).

    Every patent cites a strictly earlier one, with a quadratic skew toward
    old patents so in-degrees get the usual heavy tail. Patents that never
    appear as citers are dangling.
    """
    rng = np.random.default_rng(seed)
    citing = rng.integers(1, node_count, size=edge_count)
    u = rng.random(edge_count)
    cited = np.minimum((citing * u * u).astype(np.int64), citing - 1)
    return np.column_stack((citing, cited))
