"""Iterative PageRank over the in-link structure of a citation graph.

The update is synchronous (every new score is computed from the previous
vector) with the rank of dangling nodes redistributed evenly each step so
total mass stays at 1. Iteration starts from the uniform vector and stops
when the L1 change between consecutive vectors drops below epsilon.

Each step's inflow is a run of scipy ``coo_matvec`` products over the
graph's tiles (see ``_tiles``), built on its first call and kept while the
graph lives: every out-CSR entry once as an int32 (target, source) pair,
grouped by target tile ``t // _TILE_NODES`` and in source order within a
tile. Each product adds its terms ``1.0 * ((1 / out_degree(s)) * cur[s])``
to their targets ``t``, from a result of 0.0, so a node's inflow is summed
left to right over its in-neighbors in ascending index order, and a tile's
terms land in 512 KB of the result, which stays in a core's cache. The
tiles run in blocks of at most ``_CHUNK_ROWS`` entries, as
``min(cpus, tile count)`` groups of whole tiles (see ``_product_parts``).

A step runs in two phases, each group on its own thread. First each group
forms ``share = (1 / out_degree) * cur`` over an equal slice of the
targets, since every group's products read all of it. Then each group
finishes its tiles one at a time while they are in cache: it clears the
tile, runs its blocks, applies the update and the uniform-others
correction, and writes ``|nxt - cur|`` over ``cur``. The main thread sums
the dangling mass and the delta over whole vectors in numpy's fixed
pairwise order, so a run is bitwise reproducible whatever the group count.
Every block's values are one buffer of ones the size of the largest block. A
call adds that buffer (0.5 MB at ``_CHUNK_ROWS``) and three score vectors;
the kept tiles hold 8 bytes per edge.
"""
from __future__ import annotations

import os
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np
# y += A @ x into the caller's y, for a COO matrix A; the public ``A @ x``
# returns a fresh vector, which would cost each step a copy into place. This
# private function checks dtypes but no bounds, so it reads only a graph's
# checked CSR, and its signature may change between releases, so
# pyproject.toml pins scipy to the minor version tested.
from scipy.sparse._sparsetools import coo_matvec as _coo_matvec

from .errors import PatentFlowError
from .graph import _CHUNK_ROWS, CitationGraph, _freeze_arrays

DANGLING_UNIFORM_ALL = "uniform-all"
DANGLING_UNIFORM_OTHERS = "uniform-others"
_DANGLING_MODES = (DANGLING_UNIFORM_ALL, DANGLING_UNIFORM_OTHERS)

DEFAULT_EPSILON = 1e-6
DEFAULT_MAX_ITERATIONS = 1000

# Targets per tile: a tile's 512 KB of the result fits a core's 2 MB L2.
_TILE_NODES = 1 << 16
# The graphs ranked so far, each mapped to its tiles (see _product_parts).
# The keys are weak and the tiles refer to no graph, so a graph's tiles die
# with it.
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
    parts = _product_parts(graph, _cpus() if cpus is None else min(cpus, _cpus()))
    # a group: its equal slice of share, then its tiles, each with its own dangling nodes
    groups = [(i * n // len(parts), (i + 1) * n // len(parts),
               [(lo, hi, blocks, dangling[slice(*np.searchsorted(dangling, (lo, hi)))]) for lo, hi, blocks in part])
              for i, part in enumerate(parts)]
    degrees = graph.out_degrees
    # the blocks' ones, share and the spare score vector are one block,
    # returned whole when the call ends, so no freed hole is left in the
    # allocator's heap
    width = max((rows.size for part in parts for *_, blocks in part for rows, _ in blocks), default=0)
    ones, share, nxt = np.split(np.empty(width + 2 * n), [width, width + n])
    ones.fill(1.0)
    scores.fill(1.0 / n)

    def shares(group: tuple) -> None:
        # a dangling node's share is inf or nan; it is the source of no
        # entry. numpy's error state is per thread, so it is set here.
        lo, hi, _ = group
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(1.0, degrees[lo:hi], out=share[lo:hi])
            share[lo:hi] *= cur[lo:hi]

    def finish(group: tuple) -> None:
        # nxt = base + d * (inflow + dangling_mass / spread), one tile at a
        # time while it is in cache; scipy's kernel releases the GIL. cur's
        # slice is not read again, so it takes |nxt - cur| for the delta.
        for lo, hi, blocks, own in group[2]:
            out = nxt[lo:hi]
            out.fill(0.0)
            for rows, cols in blocks:
                _coo_matvec(rows.size, rows, cols, ones[:rows.size], share, nxt)
            out += spread_mass
            out *= d
            out += base
            if exclude_self:
                nxt[own] -= d * (cur[own] / spread)
            np.abs(np.subtract(out, cur[lo:hi], out=cur[lo:hi]), out=cur[lo:hi])

    deltas = []
    # the main thread runs the first group, and the pool's queue the others;
    # a pool starts its threads on its first submit, so one group starts none
    with ThreadPoolExecutor(max(len(groups) - 1, 1)) as pool:
        def run(phase) -> None:
            running = [pool.submit(phase, group) for group in groups[1:]]
            phase(groups[0])
            for future in running:
                future.result()

        for _ in range(params.max_iterations):
            spread_mass = float(cur[dangling].sum()) / spread
            run(shares)  # every group's products read all of share
            run(finish)
            deltas.append(float(cur.sum()))  # whole, in numpy's pairwise order
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
    """The groups of segments ``(lo, hi, blocks)`` of one PageRank call's
    product on ``graph``, one segment per tile kept in ``_PARTS``, whose
    blocks ``(rows, cols)`` of at most ``_CHUNK_ROWS`` entries each add only
    into targets ``lo`` to ``hi - 1``. The tiles are cut into
    ``min(cpus, tile count)`` runs, each at the tile start nearest its share
    of the work, a tile's entries plus its targets; empty tiles and runs are
    kept. A graph's first call builds its tiles; racing calls may each
    build them, the same arrays.

    A first call that builds the tiles is no slower than one over the
    out-CSR in place as CSC column blocks, which it replaced: on a fresh
    ``make_edges(200_000, 2_000_000, 3704)`` graph on two CPUs, a lone d =
    0.5 call took 0.142 against 0.150 s (medians of 9 alternating processes,
    lower in 7). Five-damping sweeps on kept tiles of such graphs (10 edges
    per node), two groups against one: 0.655 against 0.873 s at 2M edges
    (lower in 8 of 9) and 0.813 against 1.141 s at 3M (9 of 9), 0.366
    against 0.374 s at 1M, two tiles (5 of 9), but 0.061 against 0.030 s at
    100k, one tile, where the second group is empty (0 of 9), so there are
    no more groups than tiles."""
    n = graph.node_count
    tiles = _PARTS.get(graph)
    if tiles is None:
        tiles = _PARTS[graph] = _tiles(graph)
    rows, cols, starts = tiles
    count = min(cpus, starts.size - 1)
    # a tile's work: its entries' products and its targets' update, one unit each
    cost = starts + np.minimum(np.arange(starts.size) * _TILE_NODES, n)
    cuts = [0, *(int(np.abs(cost - i * cost[-1] // count).argmin()) for i in range(1, count)), starts.size - 1]
    ends = [[*range(lo, hi, _CHUNK_ROWS), hi] for lo, hi in zip(starts.tolist(), starts[1:].tolist())]
    segments = [(t * _TILE_NODES, min(t * _TILE_NODES + _TILE_NODES, n),
                 tuple((rows[a:b], cols[a:b]) for a, b in zip(e, e[1:])))
                for t, e in enumerate(ends)]
    return tuple(tuple(segments[i:j]) for i, j in zip(cuts, cuts[1:]))


def _column_blocks(indptr: np.ndarray) -> list[int]:
    """The bounds of the column blocks of the CSR with row pointers
    ``indptr``: each block takes as many whole columns as fit in
    ``_CHUNK_ROWS`` entries, or one column larger than that (at most n - 1
    entries), so ``_tiles``' temporaries for one block stay small."""
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
