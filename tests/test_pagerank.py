import gc
import importlib
import os
import re
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patentflow import (
    CitationGraph,
    PageRankParams,
    PageRankResult,
    PatentFlowError,
    build_graph,
    pagerank,
    write_scores_tsv,
)
from bincount_oracle import bincount_pagerank, convergence_delta
from dense_oracle import dense_pagerank, random_graph

# the package's ``pagerank`` attribute is the function, not the module
pagerank_module = importlib.import_module("patentflow.pagerank")
graph_module = importlib.import_module("patentflow.graph")

SWEEP = (0.01, 0.15, 0.50, 0.85, 0.99)
TIGHT = dict(epsilon=1e-12, max_iterations=20000)


def _parts(count):
    """Patches the CPUs a call may use to ``count`` while it is active, so
    that a graph of at least ``count`` tiles runs as ``count`` groups."""
    return mock.patch.object(pagerank_module, "_cpus", lambda: count)


def _tile(nodes):
    """Patches the tile size to ``nodes`` targets while it is active."""
    return mock.patch.object(pagerank_module, "_TILE_NODES", nodes)


def _tiles_of(graph):
    """The tiles kept for ``graph`` since its first call: its ``(rows, cols,
    starts)``."""
    return pagerank_module._PARTS[graph]


def _ranked_twice(graph, params):
    """``pagerank`` on a graph's first call, which builds its tiles, and on
    its second, which reads them."""
    return pagerank(graph, params), pagerank(graph, params)


def test_damping_zero_is_exactly_uniform():
    g = random_graph(37, 120, seed=0)
    r = pagerank(g, PageRankParams(damping=0.0))
    assert np.array_equal(r.scores, np.full(37, 1.0 / 37))
    assert r.iterations == 1
    assert r.converged
    assert r.final_delta == 0.0


@pytest.mark.parametrize("d", SWEEP)
def test_three_cycle_uniform(d):
    g = build_graph([(0, 1), (1, 2), (2, 0)], 3)
    r = pagerank(g, PageRankParams(damping=d, **TIGHT))
    assert np.abs(r.scores - 1.0 / 3).max() < 1e-9


@pytest.mark.parametrize("d", SWEEP)
def test_two_node_analytic_fixed_point(d):
    # A cites B, B dangling: solving the update gives P(A) = 1/(2+d)
    g = build_graph([(0, 1)], 2)
    r = pagerank(g, PageRankParams(damping=d, **TIGHT))
    assert r.converged
    assert r.scores[0] == pytest.approx(1.0 / (2.0 + d), abs=1e-9)
    assert r.scores[1] == pytest.approx((1.0 + d) / (2.0 + d), abs=1e-9)


def test_two_node_half_damping_fixture():
    g = build_graph([(0, 1)], 2)
    r = pagerank(g, PageRankParams(damping=0.5, **TIGHT))
    assert r.scores[0] == pytest.approx(0.4, abs=1e-9)
    assert r.scores[1] == pytest.approx(0.6, abs=1e-9)


@pytest.mark.parametrize("d", SWEEP)
@pytest.mark.parametrize("mode", ["uniform-all", "uniform-others"])
def test_matches_dense_oracle_100_nodes(d, mode):
    g = random_graph(100, 400, seed=17)
    params = PageRankParams(damping=d, dangling_mode=mode, **TIGHT)
    r = pagerank(g, params)
    assert r.converged
    assert np.abs(r.scores - dense_pagerank(g, params)).max() < 1e-9


def test_mass_conserved_at_every_iteration():
    g = random_graph(60, 150, seed=23)
    for mode in ("uniform-all", "uniform-others"):
        for k in range(1, 8):
            # a capped run exposes the intermediate vector of iteration k
            r = pagerank(g, PageRankParams(damping=0.85, epsilon=1e-300,
                                           max_iterations=k, dangling_mode=mode))
            assert r.iterations == k
            assert abs(r.scores.sum() - 1.0) <= 1e-12 * k


def test_sweep_on_cycle_gives_uniform_vectors():
    g = build_graph([(0, 1), (1, 2), (2, 0)], 3)
    results = [pagerank(g, PageRankParams(damping=d, epsilon=1e-12)) for d in SWEEP]
    assert len(results) == 5
    for r in results:
        assert np.abs(r.scores - 1.0 / 3).max() < 1e-9


def test_sweep_iterations_non_decreasing_in_damping():
    for seed in range(20):
        rng = np.random.default_rng(seed + 1000)
        n = int(rng.integers(30, 200))
        m = int(rng.integers(n, 6 * n))
        g = random_graph(n, m, seed=seed)
        iters = [pagerank(g, PageRankParams(damping=d)).iterations for d in SWEEP]
        assert iters == sorted(iters), f"seed {seed}: {iters}"


def test_default_convergence_threshold():
    g = random_graph(80, 300, seed=5)
    r = pagerank(g, PageRankParams(damping=0.5))
    assert r.params.epsilon == 1e-6
    assert r.converged
    assert r.final_delta < 1e-6


def test_non_convergence_reported_not_raised():
    g = random_graph(80, 300, seed=5)
    r = pagerank(g, PageRankParams(damping=0.99, epsilon=1e-15, max_iterations=3))
    assert not r.converged
    assert r.iterations == 3


def test_empty_graph_rejected():
    g = build_graph([], 0)
    with pytest.raises(PatentFlowError):
        pagerank(g, PageRankParams(damping=0.5))


def test_single_node_graph_both_modes():
    g = build_graph([], 1)
    for mode in ("uniform-all", "uniform-others"):
        r = pagerank(g, PageRankParams(damping=0.7, dangling_mode=mode))
        assert r.scores[0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(damping=1.0),
        dict(damping=-0.1),
        dict(damping=0.5, epsilon=0.0),
        dict(damping=0.5, max_iterations=0),
        dict(damping=0.5, dangling_mode="nope"),
        dict(damping=0.5, epsilon=float("inf")),
        dict(damping=0.5, epsilon=float("nan")),
        dict(damping=0.5, max_iterations=2.5),
        dict(damping=0.5, max_iterations=True),
        dict(damping=0.5, max_iterations="10"),
        dict(damping=False),
        dict(damping=0.5, epsilon=True),
        dict(damping="0.5"),
        dict(damping=0.5, epsilon=None),
        dict(damping=0.5 + 0j),
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(PatentFlowError):
        PageRankParams(**kwargs)


def test_params_accept_numpy_integer_iterations():
    params = PageRankParams(damping=0.5, max_iterations=np.int64(3))
    assert pagerank(random_graph(20, 60, seed=1), params).iterations <= 3


def test_params_accept_numpy_floats():
    params = PageRankParams(damping=np.float64(0.5), epsilon=np.float32(1e-6))
    assert pagerank(random_graph(20, 60, seed=1), params).converged


@pytest.mark.parametrize("cpus", [0, -1, True, 1.0, "2"])
def test_cpus_must_be_a_positive_integer(cpus):
    with pytest.raises(PatentFlowError, match="cpus must be an integer >= 1"):
        pagerank(random_graph(10, 30, seed=1), PageRankParams(damping=0.5), cpus=cpus)


def test_convergence_delta_examples():
    assert convergence_delta([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert convergence_delta([0.5, 0.5], [0.6, 0.4]) == pytest.approx(0.2, abs=1e-15)
    with pytest.raises(PatentFlowError):
        convergence_delta([0.5], [0.5, 0.5])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=50))
def test_convergence_delta_matches_elementwise_recount(pairs):
    prev = np.array([a for a, _ in pairs])
    nxt = np.array([b for _, b in pairs])
    expected = 0.0
    for a, b in pairs:
        expected += abs(b - a)
    assert convergence_delta(prev, nxt) == pytest.approx(expected, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("seed", [9, 10, 11])
def test_bitwise_determinism_across_runs(seed):
    g = random_graph(300, 1500, seed=seed)
    params = PageRankParams(damping=0.85, epsilon=1e-10, max_iterations=5000)
    base = pagerank(g, params)
    other = pagerank(g, params)
    assert np.array_equal(base.scores, other.scores)
    assert base.iterations == other.iterations
    assert base.final_delta == other.final_delta


def test_repeated_runs_bitwise_identical():
    g = random_graph(120, 500, seed=31)
    params = PageRankParams(damping=0.5)
    a = pagerank(g, params)
    b = pagerank(g, params)
    assert np.array_equal(a.scores, b.scores)


@pytest.mark.parametrize("mode", ["uniform-all", "uniform-others"])
def test_second_run_leaves_first_scores_untouched(mode):
    # each run's step buffers are its own: a later run, at another damping,
    # writes none of the arrays an earlier result holds
    g = random_graph(120, 500, seed=32)
    first = pagerank(g, PageRankParams(damping=0.85, dangling_mode=mode))
    kept = first.scores.copy()
    second = pagerank(g, PageRankParams(damping=0.3, dangling_mode=mode))
    assert np.array_equal(first.scores, kept)
    assert not np.shares_memory(first.scores, second.scores)


def _left_to_right_pagerank(g, params):
    """The update as documented, in plain Python: each node's inflow is
    summed left to right over its in-neighbors in ascending index order.

    The dangling mass and the L1 delta are numpy reductions in index order,
    as in the engine.
    """
    n, d = g.node_count, params.damping
    base = (1.0 - d) / n
    inv_out = [1.0 / k if k else 0.0 for k in g.out_degrees.tolist()]
    in_lists = [[] for _ in range(n)]
    for u, v in g.edge_array().tolist():  # (source, target) order
        in_lists[v].append(u)
    dangling = g.dangling_nodes
    exclude_self = params.dangling_mode == "uniform-others" and n > 1
    cur = np.full(n, 1.0 / n)
    for iterations in range(1, params.max_iterations + 1):
        dangling_mass = float(cur[dangling].sum())
        spread = dangling_mass / (n - 1.0) if exclude_self else dangling_mass / n
        nxt = []
        for v in range(n):
            inflow = 0.0
            for u in in_lists[v]:
                inflow += float(cur[u]) * inv_out[u]
            nxt.append(base + d * (inflow + spread))
        if exclude_self:
            for v in dangling.tolist():
                nxt[v] -= d * (float(cur[v]) / (n - 1.0))
        nxt = np.array(nxt)
        delta = float(np.abs(nxt - cur).sum())
        cur = nxt
        if delta < params.epsilon:
            break
    return cur, iterations, delta


@pytest.mark.parametrize("seed", [11, 12, 13])
@pytest.mark.parametrize("mode", ["uniform-all", "uniform-others"])
def test_matches_left_to_right_oracle_bitwise(seed, mode):
    g = random_graph(50, 600, seed=seed)
    assert g.in_degrees.max() >= 8 and g.dangling_nodes.size
    for d in (0.5, 0.85):
        params = PageRankParams(damping=d, epsilon=1e-13, dangling_mode=mode)
        r = pagerank(g, params)
        scores, iterations, delta = _left_to_right_pagerank(g, params)
        assert (r.iterations, r.final_delta) == (iterations, delta)
        assert np.array_equal(r.scores, scores)


@pytest.mark.parametrize("block", [2, 3, 5])
@pytest.mark.parametrize("mode", ["uniform-all", "uniform-others"])
def test_block_seams_match_left_to_right_oracle_bitwise(block, mode):
    n = 6 * block + 1  # the last block holds one node
    rng = np.random.default_rng(block)
    sources = np.setdiff1d(np.arange(n), np.arange(block, 2 * block))  # block 1 only dangling
    planted = [(1, 0), (2 * block, 0), (4 * block, 0), (6 * block, 0)]
    edges = np.vstack((planted, np.column_stack((rng.choice(sources, 8 * n), rng.integers(0, n, 8 * n)))))
    g = build_graph(edges, n)
    assert n % block and not g.out_degrees[block:2 * block].any()
    assert np.unique(g.in_neighbors(0) // block).size >= 3
    for graph in (g, build_graph([], 2 * block + 1)):
        for d in (0.5, 0.85):
            params = PageRankParams(damping=d, epsilon=1e-13, dangling_mode=mode)
            r = pagerank(graph, params)
            scores, iterations, delta = _left_to_right_pagerank(graph, params)
            assert (r.iterations, r.final_delta) == (iterations, delta)
            assert np.array_equal(r.scores, scores)


@pytest.mark.parametrize("mode", ["uniform-all", "uniform-others"])
def test_matches_bincount_oracle_bitwise_at_real_block_size(mode):
    block = 4096
    n = 7 * block // 2
    g = random_graph(n, 8 * n, seed=41)
    assert n % block and g.dangling_nodes.size
    assert g.edge_count > pagerank_module._CHUNK_ROWS  # each layout takes two blocks or more
    for d in (0.15, 0.5, 0.85):
        params = PageRankParams(damping=d, epsilon=1e-12, dangling_mode=mode)
        scores, iterations, delta = bincount_pagerank(g, params)
        for parts in (None, 3, 7):  # every usable CPU, and three and seven
            with _parts(parts) if parts else nullcontext(), _tile(1000):  # 15 tiles
                results = _ranked_twice(random_graph(n, 8 * n, seed=41), params)
            for r in results:
                assert (r.iterations, r.final_delta) == (iterations, delta)
                assert np.array_equal(r.scores, scores)


def test_the_private_scipy_kernels_add_left_to_right_under_the_pin():
    # pagerank calls scipy's private coo_matvec, which checks no bounds and
    # may change between minor releases: the installed scipy must be one
    # pyproject.toml allows, and it must add y[t] += a * x[s] in entry order,
    # as a plain loop does
    pin = re.search(r'"scipy>=(\d+)\.(\d+),<(\d+)\.(\d+)"',
                    (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    low, high = tuple(map(int, pin.group(1, 2))), tuple(map(int, pin.group(3, 4)))
    version = tuple(int(part) for part in scipy.__version__.split(".")[:2])
    assert low <= version < high, (f"scipy {scipy.__version__} is outside pyproject.toml's pin "
                                   f"{pin.group(0)}: check coo_matvec's signature before moving it")
    # four columns into three rows; row 0's terms cancel unless added in order
    x = np.array([1e16, 1.0, -1e16, 3.0])
    columns = [[(0, 1.0), (2, 0.5)], [(0, 1.0)], [(0, 1.0), (1, 0.1)], [(0, 0.7), (2, 3.0)]]
    entries = [(t, s, a) for s, column in enumerate(columns) for t, a in column]
    expected = [0.0] * 3
    for t, s, a in entries:
        expected[t] += a * x[s]
    targets, sources, values = (np.array(v) for v in zip(*entries))
    targets, sources = targets.astype(np.int32), sources.astype(np.int32)
    coo = np.zeros(3)
    order = np.argsort(targets, kind="stable")  # the tiles' order: by target, then source
    pagerank_module._coo_matvec(len(entries), targets[order], sources[order], values[order], x, coo)
    assert expected[0] == 3 * 0.7  # the first three terms cancel exactly
    assert coo.tolist() == expected


@pytest.mark.parametrize("mode", ["uniform-all", "uniform-others"])
def test_int32_indices_match_int64_indices_bitwise(mode):
    block = 4096
    n = 5 * block // 2
    g = random_graph(n, 8 * n, seed=43)
    assert g.out_indices.dtype == np.int32 and g.dangling_nodes.size
    wide = CitationGraph(n, g.out_indptr, g.out_indices.astype(np.int64), g.build_report)
    for d in (0.15, 0.5, 0.85):
        params = PageRankParams(damping=d, epsilon=1e-12, dangling_mode=mode)
        r, w = pagerank(g, params), pagerank(wide, params)
        assert (r.iterations, r.final_delta) == (w.iterations, w.final_delta)
        assert np.array_equal(r.scores, w.scores)


@pytest.mark.parametrize("mode", ["uniform-all", "uniform-others"])
@pytest.mark.parametrize("d", [0.0, 0.5, 0.99])
@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 24), edges=st.lists(st.tuples(st.integers(0, 23), st.integers(0, 23)), max_size=80))
@example(n=1, edges=[])  # one node
@example(n=5, edges=[])  # no edges
@example(n=4, edges=[(0, 0), (2, 2)])  # every node dangling once the self-loops go
@example(n=6, edges=[(0, 1), (0, 2), (1, 2), (2, 1)])  # nodes 0, 3, 4 and 5 without in-links
def test_matches_bincount_oracle_bitwise_on_any_graph(mode, d, n, edges):
    g = build_graph([(u % n, v % n) for u, v in edges], n)
    params = PageRankParams(damping=d, max_iterations=300, dangling_mode=mode)
    r = pagerank(g, params)
    scores, iterations, delta = bincount_pagerank(g, params)
    assert (r.iterations, r.final_delta) == (iterations, delta)
    assert np.array_equal(r.scores, scores)


@pytest.mark.parametrize("parts", [1, 2, 3, 7])
@pytest.mark.parametrize("mode", ["uniform-all", "uniform-others"])
@pytest.mark.parametrize("d", [0.0, 0.5, 0.99])
@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 24), edges=st.lists(st.tuples(st.integers(0, 23), st.integers(0, 23)), max_size=80),
       chunk=st.sampled_from([1, 3, 7, 1 << 16]),  # entries per block
       tile=st.sampled_from([1, 2, 3, 1 << 16]))  # targets per tile
@example(n=1, edges=[], chunk=1 << 16, tile=1 << 16)  # one node
@example(n=5, edges=[], chunk=1 << 16, tile=1)  # no edges
@example(n=4, edges=[(0, 0), (2, 2)], chunk=1 << 16, tile=2)  # every node dangling once the self-loops go
@example(n=5, edges=[(0, 3), (1, 3), (2, 3), (4, 3)], chunk=1, tile=1)  # one target: every group but one empty
@example(n=9, edges=[(s, t) for s in range(9) for t in (3, 4, 5) if s != t], chunk=7, tile=3)  # every target in one tile
@example(n=9, edges=[(s, t) for s in range(9) for t in (0, 2, 7, 8) if s != t], chunk=3, tile=3)  # tile 1 empty
@example(n=6, edges=[(0, 5), (5, 0), (1, 2), (2, 4), (4, 1), (3, 0)], chunk=1, tile=3)  # n a multiple of the tile
@example(n=7, edges=[(0, 6), (6, 0), (1, 2), (2, 4), (4, 1), (3, 6)], chunk=3, tile=3)  # n one more
@example(n=12, edges=[(0, t) for t in range(1, 12)] + [(t, 0) for t in range(1, 12)], chunk=3, tile=2)  # a hub column
# nodes 1, 2, 5, 6 and 8 dangling: some in every tile of 2 or 3 targets
@example(n=9, edges=[(0, 1), (0, 5), (0, 7), (3, 0), (3, 8), (4, 2), (4, 6), (7, 4), (7, 3)], chunk=3, tile=2)
@example(n=9, edges=[(0, 1), (0, 5), (0, 7), (3, 0), (3, 8), (4, 2), (4, 6), (7, 4), (7, 3)], chunk=1, tile=3)
@example(n=6, edges=[(1, 1), (4, 4)], chunk=1, tile=1)  # every node dangling, so every tile of 1 holds one
# nodes 0, 7 and 8 dangling: tiles of 1, 2 or 3 targets from 2 to 5 hold none
@example(n=9, edges=[(1, 0), (1, 5), (2, 8), (2, 6), (3, 7), (3, 4), (4, 1), (5, 2), (6, 3)], chunk=1, tile=1)
@example(n=9, edges=[(1, 0), (1, 5), (2, 8), (2, 6), (3, 7), (3, 4), (4, 1), (5, 2), (6, 3)], chunk=7, tile=2)
@example(n=9, edges=[(1, 0), (1, 5), (2, 8), (2, 6), (3, 7), (3, 4), (4, 1), (5, 2), (6, 3)], chunk=3, tile=3)
def test_matches_bincount_oracle_bitwise_at_any_part_count(parts, mode, d, n, edges, chunk, tile):
    with _parts(parts), _tile(tile), mock.patch.object(graph_module, "_CHUNK_ROWS", chunk), \
            mock.patch.object(pagerank_module, "_CHUNK_ROWS", chunk):
        g = build_graph([(u % n, v % n) for u, v in edges], n)
        params = PageRankParams(damping=d, max_iterations=300, dangling_mode=mode)
        results = _ranked_twice(g, params)
        assert len(pagerank_module._product_parts(g, parts)) == min(parts, (n - 1) // tile + 1)  # tiles
    assert _tiles_of(g) is not None
    scores, iterations, delta = bincount_pagerank(g, params)
    for r in results:
        assert (r.iterations, r.final_delta) == (iterations, delta)
        assert np.array_equal(r.scores, scores)


@pytest.mark.parametrize("index", ["int32", "int64"])
@pytest.mark.parametrize("parts", [1, 3, 300])
def test_wide_offsets_and_many_parts_match_bincount_oracle_bitwise(index, parts):
    # a hand-built graph's int64 indices are stored as int32, so its tiles
    # are int32 too; 400 tiles of 5 targets, whose keys sort as uint16, run
    # as up to 300 groups
    built = random_graph(2000, 9000, seed=50)
    g = CitationGraph(2000, built.out_indptr, built.out_indices.astype(index), built.build_report)
    for mode in ("uniform-all", "uniform-others"):
        params = PageRankParams(damping=0.85, epsilon=1e-10, dangling_mode=mode)
        with _parts(parts), _tile(5):
            results = _ranked_twice(g, params)
            assert len(pagerank_module._product_parts(g, parts)) == parts
        rows, cols, starts = _tiles_of(g)
        assert (rows.dtype, cols.dtype, starts.size) == (np.int32, np.int32, 401)
        scores, iterations, delta = bincount_pagerank(g, params)
        for r in results:
            assert (r.iterations, r.final_delta) == (iterations, delta)
            assert np.array_equal(r.scores, scores)


@pytest.mark.parametrize("parts", [1, 3])
def test_no_block_passes_the_chunk_size_unless_it_is_one_column(monkeypatch, parts):
    # node 7 cites 50 others, past a block's 4 entries; the other nodes cite
    # up to 5 each, so a column block of the tiles' build that ran several
    # columns past 4 entries would show; the tiles' product blocks are cut by
    # entries, so none passes 4
    monkeypatch.setattr(pagerank_module, "_CHUNK_ROWS", 4)
    monkeypatch.setattr(pagerank_module, "_TILE_NODES", 7)
    rng = np.random.default_rng(54)
    n = 60
    edges = [(7, t) for t in range(8, 58)]
    edges += [(s, t) for s in range(n) if s != 7 for t in rng.choice(n, rng.integers(0, 6), replace=False)]
    for mode in ("uniform-all", "uniform-others"):
        g = build_graph(edges, n)
        assert g.out_degrees[7] == 50
        params = PageRankParams(damping=0.85, epsilon=1e-12, dangling_mode=mode)
        with _parts(parts):
            results = _ranked_twice(g, params)
        bounds = pagerank_module._column_blocks(g.out_indptr)
        assert bounds[0] == 0 and bounds[-1] == n
        assert all(g.out_indptr[b] - g.out_indptr[a] <= 4 or b - a == 1 for a, b in zip(bounds, bounds[1:]))
        assert 7 in bounds and 8 in bounds
        groups = pagerank_module._product_parts(g, parts)
        assert len(groups) == parts
        assert all(0 < rows.size <= 4 for group in groups for *_, blocks in group for rows, _ in blocks)
        scores, iterations, delta = bincount_pagerank(g, params)
        for r in results:
            assert (r.iterations, r.final_delta) == (iterations, delta)
            assert np.array_equal(r.scores, scores)


@pytest.mark.parametrize("mode", ["uniform-all", "uniform-others"])
def test_delta_history_ends_in_final_delta_at_every_part_count(mode):
    histories = set()
    for parts in (1, 2, 3, 7):
        with _parts(parts), _tile(16):  # 25 tiles
            for params in (PageRankParams(damping=0.85, epsilon=1e-10, dangling_mode=mode),
                           PageRankParams(damping=0.99, max_iterations=4, dangling_mode=mode)):
                for r in _ranked_twice(random_graph(400, 3000, seed=46), params):
                    assert len(r.delta_history) == r.iterations
                    assert r.delta_history[-1] == r.final_delta
                    histories.add((params.damping, r.delta_history))
    assert len(histories) == 2  # one per params, whatever the part count
    assert len(dict(histories)[0.99]) == 4


def test_a_graph_is_tiled_once_on_its_first_call(monkeypatch):
    # a graph's first call builds its tiles, and every later call reads them
    built = []
    tiles = pagerank_module._tiles
    monkeypatch.setattr(pagerank_module, "_tiles", lambda graph: built.append(graph) or tiles(graph))
    g = random_graph(300, 2400, seed=45)
    assert g not in pagerank_module._PARTS
    pagerank(g, PageRankParams(damping=0.85))
    assert built == [g] and _tiles_of(g) is not None
    for mode in ("uniform-all", "uniform-others"):
        pagerank(g, PageRankParams(damping=0.85, dangling_mode=mode))
    assert built == [g]
    assert "_in_csr" not in vars(g)


@pytest.mark.parametrize("tile", [1, 3, 64, 1 << 16])
def test_tiles_hold_the_out_csr_in_tile_then_source_order(monkeypatch, tile):
    # the tiles are the out-CSR's entries, each once, stably partitioned by
    # target tile (so in source order within one); each tile is a segment
    # that runs its own entries in blocks, and the groups, of any count, are
    # runs of whole segments
    monkeypatch.setattr(pagerank_module, "_CHUNK_ROWS", 50)
    monkeypatch.setattr(pagerank_module, "_TILE_NODES", tile)
    g = random_graph(300, 2400, seed=48)
    _ranked_twice(g, PageRankParams(damping=0.5))
    rows, cols, starts = _tiles_of(g)
    sources = np.repeat(np.arange(g.node_count), g.out_degrees)
    order = np.argsort(g.out_indices // tile, kind="stable")
    assert np.array_equal(rows, g.out_indices[order]) and np.array_equal(cols, sources[order])
    assert np.array_equal(starts, np.searchsorted(rows // tile, np.arange((g.node_count - 1) // tile + 2)))
    assert not rows.flags.writeable and not cols.flags.writeable
    n = g.node_count
    for count in (1, 2, 3, 7):
        groups = pagerank_module._product_parts(g, count)
        assert len(groups) == min(count, starts.size - 1)  # empty groups are kept
        segments = [segment for group in groups for segment in group]
        # the segments are the tiles, empty ones too: they cover [0, n) once, in order
        assert [(lo, hi) for lo, hi, _ in segments] == [(t, min(t + tile, n)) for t in range(0, n, tile)]
        at = 0  # each block starts where the one before it ends, and each tile's first at its start
        for (lo, hi, blocks), start, end in zip(segments, starts, starts[1:]):
            assert at == start
            for r, c in blocks:
                assert 0 < r.size <= 50 and (_offset(r, rows), _offset(c, cols)) == (at, at) and c.size == r.size
                assert lo <= r.min() and r.max() < hi  # no block crosses its tile
                at += r.size
            assert at == end
        assert at == g.edge_count


def _offset(view, array):
    """Where in ``array``'s entries its view ``view`` starts."""
    return (view.__array_interface__["data"][0] - array.__array_interface__["data"][0]) // array.itemsize


def test_a_one_part_call_starts_no_thread(monkeypatch):
    counts, matvec = set(), pagerank_module._coo_matvec
    monkeypatch.setattr(pagerank_module, "_coo_matvec",
                        lambda *args: counts.add(threading.active_count()) or matvec(*args))
    before = threading.active_count()
    with _parts(1), _tile(16):
        _ranked_twice(random_graph(300, 2400, seed=45), PageRankParams(damping=0.85))
    assert counts == {before}
    assert threading.active_count() == before


def test_the_tile_count_caps_the_groups(monkeypatch):
    # eight usable CPUs: a graph of one tile (at most 65,536 nodes) runs as
    # one group on the calling thread and starts none, and one of three
    # tiles runs as three groups
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    runs, groups, matvec, parts = set(), [], pagerank_module._coo_matvec, pagerank_module._product_parts
    monkeypatch.setattr(pagerank_module, "_product_parts",
                        lambda graph, cpus: groups.append(len(found := parts(graph, cpus))) or found)
    monkeypatch.setattr(pagerank_module, "_coo_matvec", lambda *args: runs.add(
        (threading.get_ident(), threading.active_count())) or matvec(*args))
    before = threading.active_count()
    g = random_graph(3000, 30000, seed=52)
    params = PageRankParams(damping=0.5)
    one = pagerank(g, params, cpus=8)
    assert groups == [1] and runs == {(threading.get_ident(), before)}
    monkeypatch.setattr(pagerank_module, "_TILE_NODES", 1000)
    runs.clear()
    three = pagerank(random_graph(3000, 30000, seed=52), params, cpus=7)
    assert groups == [1, 3]
    assert 1 < len({ident for ident, _ in runs}) <= 3  # the pool may reuse an idle worker
    assert threading.active_count() == before
    scores, iterations, delta = bincount_pagerank(g, params)
    for r in (one, three):
        assert (r.iterations, r.final_delta) == (iterations, delta)
        assert np.array_equal(r.scores, scores)


@pytest.mark.parametrize("cpus, parts", [(None, 1), (3, 3)])
def test_without_an_affinity_mask_the_cpu_count_is_used(monkeypatch, cpus, parts):
    # macOS and Windows have no os.sched_getaffinity; os.cpu_count() may be None
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(pagerank_module, "_TILE_NODES", 100)  # 30 tiles
    counts, product_parts = [], pagerank_module._product_parts
    monkeypatch.setattr(pagerank_module, "_product_parts",
                        lambda graph, cpus: counts.append(len(found := product_parts(graph, cpus))) or found)
    g = random_graph(3000, 30000, seed=52)
    params = PageRankParams(damping=0.5)
    scores, iterations, delta = bincount_pagerank(g, params)
    for r in _ranked_twice(g, params):
        assert (r.iterations, r.final_delta) == (iterations, delta)
        assert np.array_equal(r.scores, scores)
    assert counts == [parts, parts]


@pytest.mark.parametrize("cpus, nodes, parts", [
    (1, 1, 1),
    (8, 1, 1),
    (8, 65_536, 1),  # one tile at eight CPUs
    (1, 65_537, 1),
    (2, 65_537, 2),
    (7, 65_537, 2),  # two tiles at seven CPUs
    (2, 196_608, 2),
    (3, 196_608, 3),
    (7, 196_609, 4),
    (8, 1_000_000, 8),  # one group per CPU
])
def test_part_count_table(cpus, nodes, parts):
    # min(cpus, tiles) groups, whatever the edge count
    assert len(pagerank_module._product_parts(build_graph([], nodes), cpus)) == parts


def test_the_kept_parts_keep_no_graph_alive():
    gc.collect()
    kept = len(pagerank_module._PARTS)  # graphs other tests still hold
    g = random_graph(300, 2400, seed=45)
    with _parts(3):
        _ranked_twice(g, PageRankParams(damping=0.85))
    assert _tiles_of(g) is not None
    assert len(pagerank_module._PARTS) == kept + 1
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None
    assert len(pagerank_module._PARTS) == kept


def test_racing_calls_on_a_fresh_graph_stay_bitwise(monkeypatch):
    # two threads on one graph's first call, which both may build its tiles,
    # then on its second
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(pagerank_module, "_TILE_NODES", 256)
    g = random_graph(3000, 30000, seed=53)
    params = PageRankParams(damping=0.85, epsilon=1e-10)
    scores, iterations, delta = bincount_pagerank(g, params)
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(2):
            results, start = [], threading.Barrier(2)

            def run():
                start.wait()
                results.append(pagerank(g, params))

            racers = [threading.Thread(target=run) for _ in range(2)]
            for racer in racers:
                racer.start()
            for racer in racers:
                racer.join(timeout=60)
                assert not racer.is_alive()
            assert len(results) == 2
            for r in results:
                assert (r.iterations, r.final_delta) == (iterations, delta)
                assert np.array_equal(r.scores, scores)
    finally:
        sys.setswitchinterval(interval)
    assert _tiles_of(g) is not None
    assert threading.active_count() == before


class _PartFailed(Exception):
    pass


@pytest.mark.parametrize("where", ["main", "worker"])
def test_a_failing_part_raises_and_leaves_no_thread(monkeypatch, where):
    # three CPUs, so two worker threads run groups on any host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(pagerank_module, "_TILE_NODES", 16)
    product = pagerank_module._coo_matvec

    def failing(*args):
        if (threading.current_thread() is threading.main_thread()) == (where == "main"):
            raise _PartFailed
        product(*args)

    monkeypatch.setattr(pagerank_module, "_coo_matvec", failing)
    before = threading.active_count()
    with pytest.raises(_PartFailed):
        pagerank(random_graph(300, 2400, seed=45), PageRankParams(damping=0.85))
    assert threading.active_count() == before


def test_a_worker_failing_on_a_later_step_raises_and_leaves_no_thread(monkeypatch):
    # a worker's kernel fails on the third step, after that step's shares
    # (phase 1) are formed: the call raises, every submitted future has run,
    # and no thread is left
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(pagerank_module, "_TILE_NODES", 16)
    product, futures, calls = pagerank_module._coo_matvec, [], []

    class Pool(ThreadPoolExecutor):
        def submit(self, *args):
            futures.append(super().submit(*args))
            return futures[-1]

    g = random_graph(300, 2400, seed=45)
    workers = sum(len(blocks) for group in pagerank_module._product_parts(g, 3)[1:] for *_, blocks in group)

    def failing(*args):
        if threading.current_thread() is not threading.main_thread():
            calls.append(None)  # the workers' blocks of one step run only after the last step's
            if len(calls) > 2 * workers:
                raise _PartFailed
        product(*args)

    monkeypatch.setattr(pagerank_module, "_coo_matvec", failing)
    monkeypatch.setattr(pagerank_module, "ThreadPoolExecutor", Pool)
    before = threading.active_count()
    with pytest.raises(_PartFailed):
        pagerank(g, PageRankParams(damping=0.85))
    assert len(calls) > 2 * workers  # the other worker may fail too
    assert len(futures) == 3 * 2 * 2  # three steps of two phases, each on two workers
    assert all(future.done() for future in futures)
    assert threading.active_count() == before


def test_more_threads_than_cores_with_fast_switching_stay_bitwise(monkeypatch):
    # seven groups on seven threads, switching every microsecond: each writes
    # only its own tiles' targets, so no update is lost
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(7)))
    monkeypatch.setattr(pagerank_module, "_TILE_NODES", 64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for mode in ("uniform-all", "uniform-others"):
            params = PageRankParams(damping=0.85, epsilon=1e-10, dangling_mode=mode)
            _, r = _ranked_twice(random_graph(3000, 30000, seed=49), params)
            scores, iterations, delta = bincount_pagerank(random_graph(3000, 30000, seed=49), params)
            assert (r.iterations, r.final_delta) == (iterations, delta)
            assert np.array_equal(r.scores, scores)
    finally:
        sys.setswitchinterval(interval)


# tracemalloc counts one pagerank call's peak, its tiles included, on this
# input (10 edges per node), in either dangling mode, as the default groups
# or four. A graph's first call, which builds its tiles, read 10.75 to 10.84
# bytes per edge: the tiles' 8 bytes per edge (int32 targets and sources),
# three score vectors (2.4 bytes per edge here) and the build's block
# temporaries. A later call read 2.75 to 2.80: three score vectors and the
# ones of one block.
_PAGERANK_PEAK_BYTES_PER_EDGE = {"first": 11.5, "later": 3.5}


@pytest.mark.parametrize("parts", [None, 4], ids=["default", "4"])
def test_pagerank_peak_memory_per_edge(parts):
    with _parts(parts) if parts else nullcontext():
        for mode in ("uniform-all", "uniform-others"):
            g = random_graph(200_000, 2_000_000, seed=47)  # four tiles
            for call in ("first", "later"):
                tracemalloc.start()
                try:
                    pagerank(g, PageRankParams(damping=0.85, dangling_mode=mode))
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak < _PAGERANK_PEAK_BYTES_PER_EDGE[call] * g.edge_count


def _graph_with_dangling(n, m, k, seed):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n - k, size=m)
    dst = rng.integers(0, n, size=m)
    return build_graph(np.column_stack((src, dst)), n)


def test_dangling_mode_proximity():
    # the self-excluded entry of a dangling node deviates by about
    # d/(1-d)/(N-1), so the blanket 1e-3 bound needs N in the thousands;
    # every node that receives redistribution in both modes stays under
    # it already at N=150
    g = _graph_with_dangling(150, 600, 8, seed=3)
    receiving = np.ones(150, dtype=bool)
    receiving[g.dangling_nodes] = False
    for d in SWEEP:
        ra = pagerank(g, PageRankParams(damping=d, **TIGHT))
        ro = pagerank(g, PageRankParams(damping=d, dangling_mode="uniform-others", **TIGHT))
        rel = np.abs(ra.scores[receiving] - ro.scores[receiving]) / ra.scores[receiving]
        assert rel.max() < 1e-3

    g = _graph_with_dangling(1200, 5000, 60, seed=4)
    for d in SWEEP:
        ra = pagerank(g, PageRankParams(damping=d, **TIGHT))
        ro = pagerank(g, PageRankParams(damping=d, dangling_mode="uniform-others", **TIGHT))
        rel = np.abs(ra.scores - ro.scores) / ra.scores
        assert rel.max() < 1e-3


def test_low_damping_approaches_uniform_monotonically():
    for seed in (5, 6, 7):
        g = random_graph(80, 300, seed=seed)
        devs = []
        for d in (0.5, 0.25, 0.1, 0.01):
            r = pagerank(g, PageRankParams(damping=d, **TIGHT))
            devs.append(np.abs(r.scores - 1.0 / 80).max())
        assert all(devs[i] > devs[i + 1] for i in range(len(devs) - 1))


def test_scores_tsv_format(tmp_path):
    two_node = pagerank(build_graph([(0, 1)], 2), PageRankParams(damping=0.5, **TIGHT)).scores
    special = np.array([0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan])
    path = tmp_path / "scores.tsv"
    for scores in (two_node, special):
        ids = [str(4683195 + i) for i in range(scores.size)]
        write_scores_tsv(ids, scores, path)
        rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]
        # each float64 scalar formatted by numpy, as rows were written one scalar at a time
        assert rows == [[str(i), pid, f"{s:.17g}"] for i, (pid, s) in enumerate(zip(ids, scores))]
        assert np.array_equal([float(r[2]) for r in rows], scores, equal_nan=True)


def test_hand_built_result_scores_are_read_only():
    scores = np.array([0.25, 0.75])
    result = PageRankResult(scores, PageRankParams(damping=0.5), (0.0,))
    assert result.scores is scores and not scores.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        result.scores[0] = 1.0
    assert not pagerank(build_graph([(0, 1)], 2), PageRankParams(damping=0.5)).scores.flags.writeable


def test_result_reads_iterations_final_delta_and_converged_off_its_history():
    params = PageRankParams(damping=0.5, epsilon=1e-3)
    for history, converged in (((0.5, 2e-3), False), ((0.5, 1e-3), False), ((0.5, 5e-4), True)):
        r = PageRankResult(np.array([0.5, 0.5]), params, history)
        assert (r.iterations, r.final_delta, r.converged) == (2, history[-1], converged)
        with pytest.raises(AttributeError):
            r.converged = not converged
    with pytest.raises(PatentFlowError, match="at least one step"):
        PageRankResult(np.array([0.5, 0.5]), params, ())


@pytest.mark.parametrize("ids, scores", [(["a"], np.zeros(2)), (["a", "b"], np.zeros(1))],
                         ids=["fewer-ids", "fewer-scores"])
def test_scores_tsv_errors(tmp_path, ids, scores):
    path = tmp_path / "scores.tsv"
    with pytest.raises(PatentFlowError, match="^id list and score vector differ in length$"):
        write_scores_tsv(ids, scores, path)
    assert not path.exists()
