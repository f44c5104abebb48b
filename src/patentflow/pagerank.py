"""Iterative PageRank over the in-link structure of a citation graph.

The update is synchronous (every new score is computed from the previous
vector) with the rank of dangling nodes redistributed evenly each step so
total mass stays at 1. Iteration starts from the uniform vector and stops
when the L1 change between consecutive vectors drops below epsilon.

Each step's inflow is a run of scipy products over the graph's out-CSR
that add each term ``1.0 * ((1 / out_degree(s)) * cur[s])`` to its target
``t``, from a result of 0.0, in ascending source order for every target, so
a node's inflow is summed left to right over its in-neighbors in ascending
index order. A graph's first call runs the out-CSR whole, as CSC column
blocks (column ``s`` holds ``s``'s targets) of whole columns of at most
``_CHUNK_ROWS`` entries, or one larger column (see ``_column_blocks``), in
column order. Its second call builds the graph's tiles (see ``_tiles``),
kept while the graph lives: every entry once as an int32 (target, source)
pair, grouped by target tile ``t // _TILE_NODES`` and in source order
within a tile, so a tile's terms land in 512 KB of the result, which stays
in a core's cache. From then on each step runs the tiles through scipy's
``coo_matvec`` in blocks of at most ``_CHUNK_ROWS`` entries, as one group
of whole tiles per usable CPU from ``_SPLIT_EDGES`` edges (see
``_product_parts``), each group on its own thread and adding into its own
targets of one result vector. Every block's values are one buffer of ones
the size of the largest block. A call adds that buffer (0.5 MB at
``_CHUNK_ROWS``) and three score vectors, and a graph's first call its
blocks' row pointers (4 bytes per node). The kept tiles hold 8 bytes per
edge. The dangling-mass scalar is reduced in fixed index order too, so a
run is bitwise reproducible whatever the group count.
"""
from __future__ import annotations

import os
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np
# y += A @ x into the caller's y, for a CSC matrix A and for a COO one; the
# public ``A @ x`` returns a fresh vector, which would cost each step a copy
# into place. These private functions check dtypes but no bounds, so they
# read only a graph's checked CSR, and their signatures may change between
# releases, so pyproject.toml pins scipy to the minor version tested.
from scipy.sparse._sparsetools import coo_matvec as _coo_matvec, csc_matvec as _csc_matvec

from .errors import PatentFlowError
from .graph import _CHUNK_ROWS, CitationGraph, _freeze_arrays

DANGLING_UNIFORM_ALL = "uniform-all"
DANGLING_UNIFORM_OTHERS = "uniform-others"
_DANGLING_MODES = (DANGLING_UNIFORM_ALL, DANGLING_UNIFORM_OTHERS)

DEFAULT_EPSILON = 1e-6
DEFAULT_MAX_ITERATIONS = 1000

# Targets per tile: a tile's 512 KB of the result fits a core's 2 MB L2.
_TILE_NODES = 1 << 16
# Edges below which a graph's tiles run as one group (see _part_count). A
# five-damping sweep on a citation-shaped graph with 10 edges per node, as
# two groups on two CPUs against one, took 0.415 against 0.419 s at 2M edges
# (lower in 4 of 8 alternating pairs), 0.943 against 0.953 s at 4M (7 of 8)
# and 1.24 against 1.77 s at 6M (6 of 6).
_SPLIT_EDGES = 4_000_000
# The graphs ranked so far. A graph absent has not been ranked, and its
# first call runs whole; a present one maps to None until its second call
# builds its tiles, then to them (see _product_parts). The keys are weak and
# the tiles refer to no graph, so a graph's tiles die with it.
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


def pagerank(graph: CitationGraph, params: PageRankParams, *, cpus: int | None = None) -> PageRankResult:
    """Run the iterative scheme until the L1 delta drops below epsilon.

    Hitting max_iterations is reported via ``converged=False``, not raised,
    so sweeps over slow damping values always complete. ``cpus`` caps the
    threads the product runs on (default: every CPU this process may run
    on, see ``_cpus``); results are bitwise the same for every value.
    """
    n = graph.node_count
    if n == 0:
        raise PatentFlowError("pagerank requires a non-empty graph")
    if cpus is not None and (not _is_integer(cpus) or cpus < 1):
        raise PatentFlowError(f"cpus must be an integer >= 1, got {cpus!r}")

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
    groups = _product_parts(graph, _cpus() if cpus is None else min(cpus, _cpus()))
    degrees = graph.out_degrees
    # every block's values are a view of one buffer of ones, and the product
    # reads share = (1 / out_degree) * scores. The ones, share and the spare
    # score vector are one block, returned whole when the call ends, so no
    # freed hole is left in the allocator's heap.
    width = max((k for group in groups for _, k, *_ in group), default=0)
    ones, share, nxt = np.split(np.empty(width + 2 * n), [width, width + n])
    ones.fill(1.0)
    scores.fill(1.0 / n)

    def products(group: tuple) -> None:
        # nxt += M @ share over the group's blocks in order, in scipy's
        # csc_matvec or coo_matvec, which release the GIL; a group adds only
        # to its own targets
        for kernel, k, a, b, *args in group:
            kernel(*args, ones[:k], share[a:b], nxt)

    deltas = []
    # the main thread runs the first group, and the pool's queue the others;
    # a pool starts its threads on its first submit, so one group starts none
    with ThreadPoolExecutor(max(len(groups) - 1, 1)) as pool:
        for _ in range(params.max_iterations):
            dangling_mass = float(cur[dangling].sum())
            # nxt = base + d * (inflow + dangling_mass / spread); each term of a
            # target's inflow is 1.0 * ((1.0 / out_degree(s)) * cur[s]), and the
            # terms are summed in source order from 0.0. A dangling node's
            # share is inf or nan; it is the source of no entry.
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(1.0, degrees, out=share)
                share *= cur
            nxt.fill(0.0)
            running = [pool.submit(products, group) for group in groups[1:]]
            products(groups[0])
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


def _product_parts(graph: CitationGraph, cpus: int) -> tuple[tuple[tuple, ...], ...]:
    """The groups of blocks ``(kernel, entries, a, b, *args)`` of one
    PageRank call's product on ``graph``, each block run as
    ``kernel(*args, ones[:entries], share[a:b], nxt)``: on the graph's first
    call one group of the out-CSR's CSC column blocks, and from its second
    on the tiles built then and kept in ``_PARTS``, cut into
    ``_part_count(graph, cpus)`` runs of whole tiles, each at the tile start
    nearest its share of the entries, in blocks of at most ``_CHUNK_ROWS``
    entries. Racing second calls may each build the tiles, the same arrays,
    and each run alone.

    A lone call stays whole because small graphs do not earn the build
    back: on a fresh ``make_edges(m // 10, m, 3704)`` graph on two CPUs, one
    d = 0.5 call that built the tiles took 0.087 against 0.066 s whole at
    2M edges (a 31 ms build; medians of 15) and 0.286 against 0.272 s at
    6M, but 0.62 against 0.74 s at 10M (medians of 9) and 1.44 against
    1.89 s at 24M (medians of 5). Two calls, the second tiled, took 0.68
    and 0.63 s against 0.64 and 0.63 s both whole at 6M, and 1.28 against
    1.34 and 1.41 s at 10M (medians of 9 in each of two processes), where
    the target-range split the tiles replaced took 0.75 against 0.64 and
    1.58 against 1.35 s."""
    n = graph.node_count
    if graph not in _PARTS:
        _PARTS[graph] = None
        indptr, bounds = graph.out_indptr, _column_blocks(graph.out_indptr)
        return (tuple((_csc_matvec, int(indptr[b] - indptr[a]), a, b, n, b - a,
                       (indptr[a:b + 1] - indptr[a]).astype(np.int32), graph.out_indices[indptr[a]:indptr[b]])
                      for a, b in zip(bounds, bounds[1:])),)
    tiles = _PARTS[graph]
    if tiles is None:
        tiles = _PARTS[graph] = _tiles(graph)
    rows, cols, starts = tiles
    m, count = rows.size, _part_count(graph, cpus)
    cuts = [0, *(int(starts[np.abs(starts - i * m // count).argmin()]) for i in range(1, count)), m]
    ends = [[*range(lo, hi, _CHUNK_ROWS), hi] for lo, hi in zip(cuts, cuts[1:])]  # each group's blocks
    return tuple(tuple((_coo_matvec, b - a, 0, n, b - a, rows[a:b], cols[a:b]) for a, b in zip(e, e[1:]))
                 for e in ends)


def _part_count(graph: CitationGraph, cpus: int) -> int:
    """How many groups of whole tiles ``graph``'s product runs as: one per
    CPU of ``cpus``, or one below ``_SPLIT_EDGES`` edges."""
    return cpus if graph.edge_count >= _SPLIT_EDGES else 1


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


def _tiles(graph: CitationGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``graph``'s out-CSR as ``(rows, cols, starts)``: every entry once, its
    target in int32 ``rows`` and its source in int32 ``cols``, grouped by
    target tile ``t // _TILE_NODES`` and in source order within a tile, and
    each tile's first offset, then m, in int64 ``starts``. Built from the
    graph's checked CSR, since the product checks no bounds, as a stable
    partition of one column block at a time."""
    indptr, indices, degrees = graph.out_indptr, graph.out_indices, graph.out_degrees
    tiles = (graph.node_count - 1) // _TILE_NODES + 1
    bounds = _column_blocks(indptr)
    spans = [(a, b, int(indptr[a]), int(indptr[b])) for a, b in zip(bounds, bounds[1:])]
    # each block's entries per tile, and where they go: after the tile's
    # entries of the blocks before it
    sizes = np.array([np.bincount(indices[lo:hi] // _TILE_NODES, minlength=tiles) for *_, lo, hi in spans])
    starts = np.zeros(tiles + 1, dtype=np.int64)
    np.cumsum(sizes.sum(axis=0), out=starts[1:])
    offsets = np.cumsum(sizes, axis=0) - sizes + starts[:-1]
    rows, cols = np.empty((2, graph.edge_count), dtype=np.int32)
    for (a, b, lo, hi), size, offset in zip(spans, sizes, offsets):
        targets = indices[lo:hi]
        # a stable sort of 8- or 16-bit keys is a radix sort
        order = np.argsort((targets // _TILE_NODES).astype(np.min_scalar_type(tiles - 1)), kind="stable")
        at = np.repeat(offset - (np.cumsum(size) - size), size) + np.arange(hi - lo)
        rows[at] = targets.take(order)
        cols[at] = np.repeat(np.arange(a, b, dtype=np.int32), degrees[a:b]).take(order)
    return _freeze_arrays(rows, cols, starts)
