"""Iterative PageRank over the in-link structure of a citation graph.

The update is synchronous (every new score is computed from the previous
vector) with the rank of dangling nodes redistributed evenly each step so
total mass stays at 1. Iteration starts from the uniform vector and stops
when the L1 change between consecutive vectors drops below epsilon.

Each step's inflow is a run of scipy CSC products over the graph's
out-CSR, where column ``s`` holds ``s``'s targets, cut into blocks of whole
columns of at most ``_CHUNK_ROWS`` entries (or one larger column; see
``_column_blocks``). Each block's product walks its columns in ascending
order and adds each term to its target, and the blocks run in column
order from a result of 0.0, so a node's inflow is summed left to right
over its in-neighbors in ascending index order. On its second call, a
graph of ``_SPLIT_EDGES`` edges or more, on more than one CPU, is cut into
one target range per usable CPU, of about equal entry counts (see
``_product_parts``), kept while the graph lives: each range keeps only its
own targets of every block, so each target's sum is unchanged, and the
ranges' blocks run on threads, each adding into its own targets of one
result vector. Every block's values are one buffer of ones the size of the
largest block, and each term is ``1.0 * ((1 / out_degree(s)) * cur[s])``.
A call adds that buffer (0.5 MB at ``_CHUNK_ROWS``) and three score
vectors, and a graph's first call its blocks' row pointers (4 bytes per
node). At 1M nodes and 10M edges on two CPUs, the kept split holds 4.8
bytes per edge (an int32 copy of the indices and two sets of int32 row
pointers). The dangling-mass scalar is reduced in fixed index order too,
so a run is bitwise reproducible whatever the part count.
"""
from __future__ import annotations

import os
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np
# y += A @ x for a CSC matrix A, into the caller's y; the public ``A @ x``
# returns a fresh vector, which would cost each step a copy into place. This
# private function checks dtypes but no bounds, and its signature may change
# between releases, so pyproject.toml pins scipy to the minor version tested.
from scipy.sparse._sparsetools import csc_matvec as _csc_matvec

from .errors import PatentFlowError
from .graph import _CHUNK_ROWS, CitationGraph, _freeze_arrays

DANGLING_UNIFORM_ALL = "uniform-all"
DANGLING_UNIFORM_OTHERS = "uniform-others"
_DANGLING_MODES = (DANGLING_UNIFORM_ALL, DANGLING_UNIFORM_OTHERS)

DEFAULT_EPSILON = 1e-6
DEFAULT_MAX_ITERATIONS = 1000

# Edges below which PageRank's product is one part (see _part_count). A
# five-damping sweep on a fresh citation-shaped graph with 10 edges per node,
# split on two CPUs, was slower at 1M and 2M edges and faster at 4M.
_SPLIT_EDGES = 4_000_000
# The graphs ranked so far. A graph absent has not been ranked, and its
# first call runs whole; a present one maps to None until its second call
# splits it, then to its parts (see _product_parts). The keys are weak and
# no part refers to its graph, so a graph's parts die with it.
_PARTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _is_real(value: object) -> bool:
    """True for a real number, numpy's included, that is not a bool."""
    return isinstance(value, Real) and not isinstance(value, bool)


def _is_integer(value: object) -> bool:
    """True for an integer, numpy's included, that is not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class PageRankParams:
    """Knobs for one PageRank computation."""

    damping: float
    epsilon: float = DEFAULT_EPSILON
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    dangling_mode: str = DANGLING_UNIFORM_ALL

    def __post_init__(self) -> None:
        if not _is_real(self.damping) or not 0.0 <= self.damping < 1.0:
            raise PatentFlowError(f"damping must be a number in [0, 1), got {self.damping!r}")
        if not _is_real(self.epsilon) or not 0.0 < self.epsilon < float("inf"):
            raise PatentFlowError(f"epsilon must be a positive finite number, got {self.epsilon!r}")
        if not _is_integer(self.max_iterations):
            raise PatentFlowError(f"max_iterations must be an integer, got {self.max_iterations!r}")
        if self.max_iterations < 1:
            raise PatentFlowError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.dangling_mode not in _DANGLING_MODES:
            raise PatentFlowError(
                f"dangling_mode must be one of {_DANGLING_MODES}, got {self.dangling_mode!r}"
            )


@dataclass(frozen=True, eq=False)
class PageRankResult:
    """One run: its scores, its params and each step's L1 delta in order."""

    scores: np.ndarray
    params: PageRankParams
    delta_history: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.delta_history:
            raise PatentFlowError("a PageRank result needs the delta of at least one step")
        _freeze_arrays(self.scores)

    @property
    def iterations(self) -> int:
        return len(self.delta_history)

    @property
    def final_delta(self) -> float:
        return self.delta_history[-1]

    @property
    def converged(self) -> bool:
        """Whether the last step's delta fell below epsilon, where ``pagerank`` stops."""
        return self.final_delta < self.params.epsilon


def pagerank(graph: CitationGraph, params: PageRankParams) -> PageRankResult:
    """Run the iterative scheme until the L1 delta drops below epsilon.

    Hitting max_iterations is reported via ``converged=False``, not raised,
    so sweeps over slow damping values always complete.
    """
    n = graph.node_count
    if n == 0:
        raise PatentFlowError("pagerank requires a non-empty graph")

    d = params.damping
    base = (1.0 - d) / n
    dangling = graph.dangling_nodes
    # uniform-others degenerates to uniform-all on a single-node graph:
    # there is no "other" node to receive the mass.
    exclude_self = params.dangling_mode == DANGLING_UNIFORM_OTHERS and n > 1
    spread = n - 1.0 if exclude_self else n  # nodes that share the dangling mass
    # the result's vector comes before the call's temporaries, so that when
    # they are freed no hole stays below it in the allocator's heap (after a
    # 1M-node graph's first call, such a hole kept 4 MB resident)
    scores = cur = np.empty(n)
    parts = _product_parts(graph)
    degrees = graph.out_degrees
    # every block's values are a view of one buffer of ones, and the product
    # reads share = (1 / out_degree) * scores. The ones, share and the spare
    # score vector are one block, returned whole when the call ends, so no
    # freed hole is left in the allocator's heap.
    width = max(indices.size for part in parts for *_, indices in part)
    ones, share, nxt = np.split(np.empty(width + 2 * n), [width, width + n])
    ones.fill(1.0)
    scores.fill(1.0 / n)

    def products(part: tuple) -> None:
        # nxt += M @ share over the part's blocks in column order, in scipy's
        # csc_matvec, which releases the GIL; a part adds only to its own
        # targets
        for a, b, indptr, indices in part:
            _csc_matvec(n, b - a, indptr, indices, ones[:indices.size], share[a:b], nxt)

    deltas = []
    # the main thread runs the first part, and the pool's queue the others;
    # a pool starts its threads on its first submit, so one part starts none
    with ThreadPoolExecutor(max(min(_cpus(), len(parts)) - 1, 1)) as pool:
        for _ in range(params.max_iterations):
            dangling_mass = float(cur[dangling].sum())
            # nxt = base + d * (inflow + dangling_mass / spread); each term of a
            # target's inflow is 1.0 * ((1.0 / out_degree(s)) * cur[s]), and the
            # terms are summed in column order from 0.0. A dangling node's
            # share is inf or nan; its column is empty.
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(1.0, degrees, out=share)
                share *= cur
            nxt.fill(0.0)
            running = [pool.submit(products, part) for part in parts[1:]]
            products(parts[0])
            for future in running:
                future.result()
            nxt += dangling_mass / spread
            nxt *= d
            nxt += base
            if exclude_self:
                nxt[dangling] -= d * (cur[dangling] / spread)
            # cur's buffer is not read again, so it holds |nxt - cur| for the
            # delta, then takes the next step
            deltas.append(float(np.abs(np.subtract(nxt, cur, out=cur), out=cur).sum()))
            cur, nxt = nxt, cur
            if deltas[-1] < params.epsilon:
                break

    if cur is not scores:  # the result keeps no view of the call's block
        scores[:] = cur
    return PageRankResult(scores=scores, params=params, delta_history=tuple(deltas))


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (macOS and Windows have none), else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _product_parts(graph: CitationGraph) -> tuple[tuple[tuple, ...], ...]:
    """The out-CSR as one PageRank call's product reads it: whole on the
    graph's first call, and from its second on as the target ranges built
    then and kept in ``_PARTS``. A five-damping sweep earns the split back
    from ``_SPLIT_EDGES``, a lone call only on large graphs: one d = 0.5
    call on a fresh ``make_edges(m // 10, m, 3704)`` graph, on two CPUs,
    took 0.43 s when it built the split against 0.31 s whole at 6M edges
    (medians of 7, slower in 7 of 7 alternating pairs) and 0.76 against
    0.60 s at 10M (medians of 9, slower in 8 of 9), but 2.27 against 2.68 s
    at 24M (medians of 3, measured earlier). Racing second calls may each
    build the split, the same arrays, and each run alone."""
    if graph not in _PARTS:
        _PARTS[graph] = None
        return _split(graph, 1)
    parts = _PARTS[graph]
    if parts is None:
        parts = _PARTS[graph] = _split(graph, _part_count(graph))
    return parts


def _part_count(graph: CitationGraph) -> int:
    """How many target ranges ``graph``'s product is cut into: one per
    usable CPU.

    One on one CPU, below ``_SPLIT_EDGES`` edges, or with fewer than
    1.125 n edges, which bounds the row pointers a split keeps, 4 bytes per
    node per part on top of 4 per edge, to 3.6 bytes per edge per part (a
    split ran no slower below it, as README says).
    """
    threads = _cpus()
    if threads == 1 or graph.edge_count < _SPLIT_EDGES or 8 * graph.edge_count < 9 * graph.node_count:
        return 1
    return threads


def _column_blocks(indptr: np.ndarray) -> list[int]:
    """The bounds of the column blocks of the CSR with row pointers
    ``indptr``: each block takes as many whole columns as fit in
    ``_CHUNK_ROWS`` entries, or one column larger than that (at most n - 1
    entries), so its offsets from 0 fit in int32."""
    bounds = [0]
    while bounds[-1] < indptr.size - 1:
        a = bounds[-1]
        b = int(np.searchsorted(indptr, indptr[a] + _CHUNK_ROWS, side="right")) - 1
        bounds.append(max(b, a + 1))
    return bounds


def _split(graph: CitationGraph, parts: int) -> tuple[tuple[tuple, ...], ...]:
    """``graph``'s out-CSR as ``parts`` target ranges of about m / parts
    entries each. A range is a tuple of blocks ``(a, b, indptr, indices)``,
    one per column block of ``_column_blocks``: the CSC matrix of shape
    (n, b - a) holding each of columns a to b - 1's targets in the range,
    ascending, with int32 row pointers from 0. One part's indices are views
    of the out-CSR's; more parts' are one copy."""
    n, m = graph.node_count, graph.edge_count
    out_indptr, out_indices, degrees = graph.out_indptr, graph.out_indices, graph.out_degrees
    bounds = _column_blocks(out_indptr)
    blocks = [(a, b, int(out_indptr[a]), int(out_indptr[b])) for a, b in zip(bounds, bounds[1:])]
    if parts == 1:
        return (tuple((a, b, *_freeze_arrays((out_indptr[a:b + 1] - lo).astype(np.int32), out_indices[lo:hi]))
                      for a, b, lo, hi in blocks),)
    # entries per bin of 2**shift targets, at most 4,096 bins, counted in
    # blocks (bincount would copy all the indices to int64): the cuts fall
    # between bins, so each part's entry count is within a bin of m / parts
    shift = max(0, n.bit_length() - 12)
    ends = np.zeros(((n - 1) >> shift) + 1, dtype=np.int64)
    for a in range(0, m, _CHUNK_ROWS):
        ends += np.bincount(out_indices[a:a + _CHUNK_ROWS] >> shift, minlength=ends.size)
    np.cumsum(ends, out=ends)  # entries with target bin <= t
    cuts = np.searchsorted(ends, np.arange(1, parts) * m // parts, side="right").tolist()
    ranges = (0, *(min(c << shift, n) for c in cuts), n)
    part_of = np.repeat(np.arange(parts, dtype=np.min_scalar_type(parts - 1)), np.diff(ranges))
    indices = np.empty(m, dtype=np.int32)  # each block's entries, by part, each in column order
    split = [[] for _ in range(parts)]
    for a, b, lo, hi in blocks:
        targets = out_indices[lo:hi]
        part = part_of.take(targets)
        # each column's entries in each part, summed down the columns
        key = np.repeat(np.arange(0, (b - a) * parts, parts), degrees[a:b])
        key += part
        counts = np.bincount(key, minlength=(b - a) * parts).reshape(b - a, parts)
        np.cumsum(counts, axis=0, out=counts)
        indptr = np.zeros((parts, b - a + 1), dtype=np.int32)
        indptr[:, 1:] = counts.T
        indices[lo:hi] = targets.take(np.argsort(part, kind="stable"))
        for k, size in enumerate(counts[-1].tolist()):
            split[k].append((a, b, *_freeze_arrays(indptr[k], indices[lo:lo + size])))
            lo += size
    return tuple(map(tuple, split))
