"""The three-``lexsort`` graph build and rebuild-based restriction, kept as oracles.

``lexsort_build_graph`` and ``rebuild_induced_subgraph`` are the graph
layer's ``build_graph`` and ``induced_subgraph`` as they were before the
one-sort composite-key build and the sort-free mask restriction replaced
them. Their bodies are unchanged apart from the function names, the
int32 node indices that the graph now stores (the CSR ``indices`` and the
remap) and their return value: as the graph now builds its in-CSR on first
read, they return it beside the graph, as ``(graph, in_indptr,
in_indices)``. The current code must return bitwise-equal arrays, equal
dtypes and equal build reports.
"""
import numpy as np

from patentflow.errors import MalformedEdgeError, PatentFlowError
from patentflow.graph import CitationGraph, GraphBuildReport


def _csr_from_pairs(src: np.ndarray, dst: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    order = np.lexsort((dst, src))
    indices = dst[order].astype(np.int32)
    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, indices


def lexsort_build_graph(edges, node_count: int) -> tuple[CitationGraph, np.ndarray, np.ndarray]:
    n = int(node_count)
    if n < 0:
        raise PatentFlowError(f"node_count must be non-negative, got {node_count}")
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise PatentFlowError("edges must be a sequence of (citing, cited) pairs")
    edges_input = arr.shape[0]
    src = arr[:, 0]
    dst = arr[:, 1]

    bad = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
    if bad.any():
        i = int(np.argmax(bad))
        raise MalformedEdgeError(
            f"edge ({int(src[i])}, {int(dst[i])}) out of range for node_count={n}"
        )

    loops = src == dst
    self_loops = int(loops.sum())
    if self_loops:
        src, dst = src[~loops], dst[~loops]

    duplicates = 0
    if src.size:
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        dup = np.zeros(src.size, dtype=bool)
        dup[1:] = (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
        duplicates = int(dup.sum())
        if duplicates:
            src, dst = src[~dup], dst[~dup]

    report = GraphBuildReport(
        edges_input=edges_input,
        edges_stored=int(src.size),
        self_loops_dropped=self_loops,
        duplicate_edges_dropped=duplicates,
    )
    out_indptr, out_indices = _csr_from_pairs(src, dst, n)
    in_indptr, in_indices = _csr_from_pairs(dst, src, n)
    return CitationGraph(n, out_indptr, out_indices, report), in_indptr, in_indices


def rebuild_induced_subgraph(
    graph: CitationGraph, keep
) -> tuple[tuple[CitationGraph, np.ndarray, np.ndarray], np.ndarray]:
    keep_arr = np.asarray(list(keep) if isinstance(keep, (set, frozenset)) else keep,
                          dtype=np.int64)
    if keep_arr.size and (keep_arr.min() < 0 or keep_arr.max() >= graph.node_count):
        raise PatentFlowError("keep set contains indices outside the graph")
    keep_mask = np.zeros(graph.node_count, dtype=bool)
    keep_mask[keep_arr] = True
    kept = np.flatnonzero(keep_mask)
    remap = np.full(graph.node_count, -1, dtype=np.int32)
    remap[kept] = np.arange(kept.size, dtype=np.int32)

    src = graph.edge_sources()
    dst = graph.out_indices
    mask = keep_mask[src] & keep_mask[dst]
    new_edges = np.column_stack((remap[src[mask]], remap[dst[mask]]))
    sub = lexsort_build_graph(new_edges, kept.size)
    return sub, remap
