"""Iterative PageRank over the in-link structure of a citation graph.

The update is synchronous (every new score is computed from the previous
vector) with the rank of dangling nodes redistributed evenly each step so
total mass stays at 1. Iteration starts from the uniform vector and stops
when the L1 change between consecutive vectors drops below epsilon.

Each step pushes every node's share along its out-links with one
unbuffered ``np.add.at`` per block of source nodes, the blocks in ascending
order, so a node's inflow is summed left to right over its in-neighbors in
ascending index order. The dangling-mass scalar is reduced in fixed index
order too, so a run is bitwise reproducible.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Sequence

import numpy as np

from .atomic import atomic_write
from .errors import PatentFlowError
from .graph import CitationGraph, _freeze_arrays

DANGLING_UNIFORM_ALL = "uniform-all"
DANGLING_UNIFORM_OTHERS = "uniform-others"
_DANGLING_MODES = (DANGLING_UNIFORM_ALL, DANGLING_UNIFORM_OTHERS)

DEFAULT_EPSILON = 1e-6
DEFAULT_MAX_ITERATIONS = 1000

# Source nodes per np.add.at call in the push step; the fastest of 4,096 to
# 262,144 in a per-step sweep at 1M nodes / 10M edges.
_PUSH_BLOCK_NODES = 4096


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
    scores: np.ndarray
    iterations: int
    final_delta: float
    converged: bool
    params: PageRankParams

    def __post_init__(self) -> None:
        _freeze_arrays(self.scores)


def convergence_delta(prev: np.ndarray, nxt: np.ndarray) -> float:
    """L1 distance between two score vectors."""
    prev = np.asarray(prev, dtype=np.float64)
    nxt = np.asarray(nxt, dtype=np.float64)
    if prev.shape != nxt.shape:
        raise PatentFlowError(
            f"score vectors differ in length: {prev.shape} vs {nxt.shape}"
        )
    return float(np.abs(nxt - prev).sum())


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
    inv_out = np.zeros(n)
    linked = graph.out_degrees > 0
    inv_out[linked] = 1.0 / graph.out_degrees[linked]
    # uniform-others degenerates to uniform-all on a single-node graph:
    # there is no "other" node to receive the mass.
    exclude_self = params.dangling_mode == DANGLING_UNIFORM_OTHERS and n > 1
    spread = n - 1.0 if exclude_self else n  # nodes that share the dangling mass
    step, indptr = _PUSH_BLOCK_NODES, graph.out_indptr
    blocks = [(slice(lo, lo + step), graph.out_indices[indptr[lo]:indptr[min(lo + step, n)]])
              for lo in range(0, n, step)]

    cur = np.full(n, 1.0 / n)
    iterations = 0
    delta = float("inf")
    converged = False
    for iterations in range(1, params.max_iterations + 1):
        dangling_mass = float(cur[dangling].sum())
        share = cur * inv_out
        inflow = np.zeros(n)
        for nodes, targets in blocks:
            np.add.at(inflow, targets, np.repeat(share[nodes], graph.out_degrees[nodes]))
        nxt = base + d * (inflow + dangling_mass / spread)
        if exclude_self:
            nxt[dangling] -= d * (cur[dangling] / spread)
        delta = convergence_delta(cur, nxt)
        cur = nxt
        if delta < params.epsilon:
            converged = True
            break

    return PageRankResult(
        scores=cur,
        iterations=iterations,
        final_delta=delta,
        converged=converged,
        params=params,
    )


def write_scores_tsv(
    index_to_id: Sequence[str], scores: np.ndarray, path: str | os.PathLike
) -> None:
    """Export ``node_index<TAB>external_id<TAB>score`` rows, 17 significant digits."""
    if len(index_to_id) != len(scores):
        raise PatentFlowError("id list and score vector differ in length")
    with atomic_write(path) as f:
        scores = np.asarray(scores, dtype=np.float64).tolist()
        f.write("".join(map("%d\t%s\t%.17g\n".__mod__, zip(range(len(scores)), index_to_id, scores))))
