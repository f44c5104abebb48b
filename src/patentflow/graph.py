"""Immutable compressed adjacency for directed citation graphs.

Nodes are dense integers in ``[0, node_count)``. Out-links are stored as
CSR-style index arrays, and the in-links, their transpose, are built on
first read; degree queries are O(1) and neighbor iteration is a contiguous
slice either way. Self-loops and duplicate edges are dropped and counted.
Node indices are int32 and edge offsets (``indptr``) int64, so node counts
are limited to MAX_NODE_COUNT (2,147,483,647); edge counts are not.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import MalformedEdgeError, PatentFlowError

# Largest node count whose indices fit in int32; its edge keys
# ``row << 32 | col`` (below 2**63) fit in int64.
MAX_NODE_COUNT = 2**31 - 1
# rows per block of the blocked loops, which keep their temporaries small
_CHUNK_ROWS = 1 << 16


@dataclass(frozen=True)
class GraphBuildReport:
    """Edge bookkeeping from one build_graph call."""

    edges_input: int
    edges_stored: int
    self_loops_dropped: int
    duplicate_edges_dropped: int


@dataclass(frozen=True, eq=False)
class CitationGraph:
    """Directed graph frozen after construction.

    No attribute can be assigned or deleted and every array is read-only, so
    a graph can be shared across threads without locking: racing first reads
    of the lazy in-CSR or ``in_degrees`` publish identical arrays (Python
    3.11 builds each under a lock; 3.12 and later may build twice).
    Neighbor lists are sorted ascending, which fixes the floating-point
    accumulation order of folds over them. Equality and hashing are by identity.
    PageRank reads the out-CSR unchecked, so a graph refuses one that is not
    a CSR of ``node_count`` rows, or whose indices leave ``[0, node_count)``.
    """

    node_count: int
    out_indptr: np.ndarray
    out_indices: np.ndarray
    build_report: GraphBuildReport
    out_degrees: np.ndarray = field(init=False)
    dangling_nodes: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        n = int(self.node_count)
        indptr = _integer_indices(self.out_indptr, "out_indptr").astype(np.int64, copy=False)
        indices = _integer_indices(self.out_indices, "out_indices")
        if not (0 <= n <= MAX_NODE_COUNT and indptr.shape == (n + 1,) and indices.ndim == 1 and indptr[0] == 0
                and indptr[-1] == indices.size and ((degrees := np.diff(indptr)) >= 0).all()):
            raise PatentFlowError(f"not a CSR of {n} rows (0 to {MAX_NODE_COUNT}) and {indices.size} entries")
        if indices.size and indices.view(f"u{indices.itemsize}").max() >= n:
            raise MalformedEdgeError(f"out_indices holds a node index outside [0, {n})")
        vars(self).update(node_count=n, out_indptr=indptr, out_indices=indices.astype(np.int32, copy=False),
                          out_degrees=degrees, dangling_nodes=np.flatnonzero(degrees == 0))
        _freeze_arrays(*(getattr(self, f.name) for f in fields(self)))

    @cached_property
    def _in_csr(self) -> tuple[np.ndarray, np.ndarray]:
        return _freeze_arrays(*_transpose(self))

    @property
    def in_indptr(self) -> np.ndarray:
        return self._in_csr[0]

    @property
    def in_indices(self) -> np.ndarray:
        return self._in_csr[1]

    @cached_property
    def in_degrees(self) -> np.ndarray:
        return _freeze_arrays(np.bincount(self.out_indices, minlength=self.node_count))[0]

    @property
    def edge_count(self) -> int:
        return int(self.out_indices.size)

    def out_neighbors(self, u: int) -> np.ndarray:
        return self.out_indices[self.out_indptr[u]:self.out_indptr[u + 1]]

    def in_neighbors(self, u: int) -> np.ndarray:
        return self.in_indices[self.in_indptr[u]:self.in_indptr[u + 1]]

    def adjacent(self, mask: np.ndarray, *, citing: bool) -> np.ndarray:
        """Mask of the nodes that cite a node of the boolean ``mask`` (with
        ``citing``) or that such a node cites, read from those nodes' CSR rows:
        the cost grows with the entries read, not with the edge count."""
        indptr, indices = (self.in_indptr, self.in_indices) if citing else (self.out_indptr, self.out_indices)
        nodes = np.flatnonzero(mask)
        degrees = indptr[nodes + 1] - indptr[nodes]
        # entry j of node k's row sits at indptr[k] + j; shifting each row's
        # output positions by (start - output offset) gives that
        shift = np.repeat(indptr[nodes] - (np.cumsum(degrees) - degrees), degrees)
        shift += np.arange(shift.size)
        found = np.zeros(self.node_count, dtype=bool)
        found[indices[shift]] = True
        return found

    def edge_sources(self) -> np.ndarray:
        """Source index of every stored edge, aligned with ``out_indices``."""
        return np.repeat(np.arange(self.node_count, dtype=np.int32), self.out_degrees)

    def edge_array(self) -> np.ndarray:
        """All stored edges as an (m, 2) array ordered by (source, target)."""
        return np.column_stack((self.edge_sources(), self.out_indices))

    def __repr__(self) -> str:
        return (
            f"CitationGraph(nodes={self.node_count}, edges={self.edge_count}, "
            f"dangling={self.dangling_nodes.size})"
        )


def _freeze_arrays(*values) -> tuple:
    """Mark every array among ``values`` read-only, and return ``values``."""
    for value in values:
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return values


def _transpose(graph: CitationGraph) -> tuple[np.ndarray, np.ndarray]:
    """The in-CSR, from one sort of the (target, source) keys."""
    keys = np.left_shift(graph.out_indices, 32, dtype=np.int64)
    keys |= graph.edge_sources()
    keys.sort()
    return _csr(keys, graph.node_count)


def _csr(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row pointers and int32 indices (the low words) of the sorted keys ``row << 32 | col``."""
    return np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) << 32), keys.astype(np.int32)


def _compact(values: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Move the rows of ``values`` where ``keep`` is set to its front, in blocks that keep copies small."""
    if keep.all():
        return values
    rows = 0
    for a in range(0, len(values), _CHUNK_ROWS):
        block = np.compress(keep[a:a + _CHUNK_ROWS], values[a:a + _CHUNK_ROWS], axis=0)
        values[rows:rows + len(block)] = block
        rows += len(block)
    return values[:rows]


def _integer_indices(values, what: str) -> np.ndarray:
    """``values`` as int32 or int64 (such input is not copied; other integer
    dtypes become int64). Raises PatentFlowError for non-empty float, bool
    or object input, which a cast would reinterpret."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise PatentFlowError(f"{what} must be integer indices, got dtype {arr.dtype}")
    return arr if arr.dtype in (np.int32, np.int64) else arr.astype(np.int64)


def edge_index_array(edges, node_count: int) -> np.ndarray:
    """``edges`` as an (m, 2) int32 or int64 array of indices in ``[0, node_count)``.

    Raises PatentFlowError when ``edges`` is not integer or not shaped
    (m, 2), and MalformedEdgeError when an index falls outside the range.
    """
    arr = _integer_indices(edges, "edges")
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise PatentFlowError("edges must be a sequence of (citing, cited) pairs")
    # read unsigned, a negative index is at least 2**31, so one bound checks both ends
    unsigned = arr.view(f"u{arr.itemsize}")
    if arr.size and unsigned.max() >= node_count:
        src, dst = arr[int(np.argmax(unsigned >= node_count)) // 2].tolist()
        raise MalformedEdgeError(f"edge ({src}, {dst}) out of range for node_count={node_count}")
    return arr


def build_graph(edges, node_count: int, *, remap=None) -> CitationGraph:
    """Build a CitationGraph from (citing, cited) index pairs.

    Self-loops and duplicate pairs are dropped and counted in the build
    report. Raises MalformedEdgeError if any index falls outside
    ``[0, node_count)``, and PatentFlowError if ``node_count`` exceeds
    MAX_NODE_COUNT. With ``remap``, the pairs index ``remap``, whose entries
    are the node indices: the graph is that of ``remap[edges]``, built
    without that copy.

    Each direction (the in-CSR when first read) is one sort of the int64 key
    ``row << 32 | col``, built a block of edges at a time; the sorted keys
    give the row pointers, and their low words the ascending int32 indices.
    """
    n = int(node_count)
    if n < 0:
        raise PatentFlowError(f"node_count must be non-negative, got {node_count}")
    if n > MAX_NODE_COUNT:
        raise PatentFlowError(
            f"node_count {n} exceeds {MAX_NODE_COUNT}, the largest whose node indices fit in int32"
        )
    if remap is None:
        arr = edge_index_array(edges, n)
    else:
        nodes = _integer_indices(remap, "remap").ravel()
        if nodes.size and nodes.view(f"u{nodes.itemsize}").max() >= n:
            raise MalformedEdgeError(f"remap holds a node index outside [0, {n})")
        arr = edge_index_array(edges, len(nodes))
    edges_input = arr.shape[0]
    keys, kept = np.empty(edges_input, dtype=np.int64), np.empty(edges_input, dtype=bool)
    for a in range(0, edges_input, _CHUNK_ROWS):
        b = a + _CHUNK_ROWS
        block = arr[a:b] if remap is None else nodes.take(arr[a:b])
        # widened before the shift, which int32 would overflow
        np.left_shift(block[:, 0], 32, out=keys[a:b], dtype=np.int64)
        keys[a:b] |= block[:, 1]
        np.not_equal(block[:, 0], block[:, 1], out=kept[a:b])
    self_loops = edges_input - int(np.count_nonzero(kept))
    keys = _compact(keys, kept)
    keys.sort()
    kept[:1] = True  # now whether a sorted key differs from the one before it
    np.not_equal(keys[1:], keys[:-1], out=kept[1:keys.size])
    keys = _compact(keys, kept[:keys.size])
    del kept
    report = GraphBuildReport(edges_input, keys.size, self_loops, edges_input - self_loops - keys.size)
    indptr, indices = _csr(keys, n)
    del keys  # before the graph makes its degree arrays
    return CitationGraph(n, indptr, indices, report)


def _restrict(indptr: np.ndarray, indices: np.ndarray, keep_mask: np.ndarray,
              remap: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One CSR direction cut to kept rows and kept columns, then re-indexed.

    ``ends`` is ``[0, *(kept + 1)]``: the old ``indptr`` positions whose
    count of surviving entries before them is the new ``indptr``.
    """
    mask = np.repeat(keep_mask, np.diff(indptr))
    mask &= keep_mask[indices]
    surviving = np.zeros(mask.size + 1, dtype=np.int64)
    np.cumsum(mask, out=surviving[1:])
    return surviving[indptr[ends]], remap[indices[mask]]


def induced_subgraph(graph: CitationGraph, keep) -> tuple[CitationGraph, np.ndarray]:
    """Restrict a graph to the given node set.

    Returns the re-indexed subgraph plus the old-to-new remap array
    (length ``graph.node_count``, -1 for dropped nodes). New indices
    follow ascending old-index order.

    Raises PatentFlowError when ``keep`` is not of an integer dtype (a
    boolean mask is refused) or holds an index outside the graph.

    Nothing is sorted: neighbor lists are already ascending and distinct,
    and the remap is monotone, so masking each list keeps both properties.
    """
    keep_arr = _integer_indices(list(keep) if isinstance(keep, (set, frozenset)) else keep, "keep")
    if keep_arr.size and keep_arr.view(f"u{keep_arr.itemsize}").max() >= graph.node_count:
        raise PatentFlowError("keep set contains indices outside the graph")
    keep_mask = np.zeros(graph.node_count, dtype=bool)
    keep_mask[keep_arr] = True
    kept = np.flatnonzero(keep_mask)
    remap = np.full(graph.node_count, -1, dtype=np.int32)
    remap[kept] = np.arange(kept.size, dtype=np.int32)

    ends = np.concatenate(([0], kept + 1))
    out_indptr, out_indices = _restrict(graph.out_indptr, graph.out_indices, keep_mask, remap, ends)
    m = int(out_indices.size)
    sub = CitationGraph(kept.size, out_indptr, out_indices, GraphBuildReport(m, m, 0, 0))
    if "_in_csr" in vars(graph):  # restricting the parent's in-CSR is cheaper than a sort
        in_csr = _restrict(graph.in_indptr, graph.in_indices, keep_mask, remap, ends)
        vars(sub)["_in_csr"] = _freeze_arrays(*in_csr)
    return sub, remap
