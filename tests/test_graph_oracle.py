"""The one-sort graph build and the mask restriction against the code they replaced.

``lexsort_oracle`` keeps the three-``lexsort`` ``build_graph`` and the
rebuild-based ``induced_subgraph``, which return the in-CSR beside the graph.
Every CSR, degree and dangling array must match in values and dtype, and the
build reports and remap must be equal, including on self-loops, duplicates,
empty graphs and empty or full keep sets. The graph's in-CSR and in-degrees,
built on first read, are compared the same way.
"""
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexsort_oracle import lexsort_build_graph, rebuild_induced_subgraph
from patentflow import PatentFlowError, build_graph, induced_subgraph
from patentflow import graph as graph_module
from patentflow.graph import MAX_NODE_COUNT

ARRAYS = ("out_indptr", "out_indices", "out_degrees", "dangling_nodes")


def _assert_same_graph(got, want):
    """``want`` is an oracle's ``(graph, in_indptr, in_indices)``; its
    in-degrees are ``np.diff(in_indptr)``, as the graph once derived them."""
    graph, in_indptr, in_indices = want
    assert got.node_count == graph.node_count
    assert got.build_report == graph.build_report
    wanted = {name: getattr(graph, name) for name in ARRAYS}
    wanted.update(in_indptr=in_indptr, in_indices=in_indices, in_degrees=np.diff(in_indptr))
    for name, w in wanted.items():
        g = getattr(got, name)
        assert g.dtype == w.dtype, name
        assert np.array_equal(g, w), name


@st.composite
def messy_edges(draw, max_nodes=25):
    """Node count (0 included) and edges with planted self-loops and repeats."""
    n = draw(st.integers(0, max_nodes))
    if n == 0:
        return 0, []
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=80))
    loops = draw(st.lists(node, max_size=5))
    repeats = draw(st.lists(st.sampled_from(edges), max_size=20)) if edges else []
    edges = edges + [(u, u) for u in loops] + repeats
    return n, draw(st.permutations(edges))


@st.composite
def graphs_and_keeps(draw):
    n, edges = draw(messy_edges())
    graph = build_graph(edges, n)
    kind = draw(st.sampled_from(["empty", "full", "some"]))
    if kind == "empty":
        keep = []
    elif kind == "full":
        keep = list(range(n))
    else:
        keep = draw(st.lists(st.integers(0, n - 1), max_size=2 * n)) if n else []
    form = draw(st.sampled_from([list, set, np.array]))
    return graph, form(keep)


@settings(max_examples=300, deadline=None)
@given(messy_edges())
def test_build_graph_matches_lexsort_oracle(case):
    n, edges = case
    _assert_same_graph(build_graph(edges, n), lexsort_build_graph(edges, n))


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
@settings(max_examples=100, deadline=None)
@given(case=messy_edges())
def test_blocked_build_matches_lexsort_oracle_across_block_seams(chunk, case):
    # blocks of a few edges put the key fill's and both compactions' seams
    # between self-loops, repeats and their neighbours
    n, edges = case
    with mock.patch.object(graph_module, "_CHUNK_ROWS", chunk):
        got = build_graph(edges, n)
    _assert_same_graph(got, lexsort_build_graph(edges, n))


def test_compact_with_every_row_kept_returns_its_input():
    for values in (np.arange(10, dtype=np.int64), np.zeros((0, 3), dtype=np.uint8)):
        assert graph_module._compact(values, np.ones(len(values), dtype=bool)) is values


@pytest.mark.parametrize("chunk", [7, 1 << 16])
def test_build_without_self_loops_or_duplicates_matches_lexsort_oracle(chunk):
    # input free of self-loops keeps every row of the first compaction, and
    # input free of duplicates every row of the second
    rng = np.random.default_rng(46)
    n = 400
    edges = rng.integers(0, n, size=(6_000, 2))
    edges[:300, 1] = edges[:300, 0]
    edges[300:900] = edges[900:1_500]
    no_loops = edges[edges[:, 0] != edges[:, 1]]
    no_repeats = edges[np.unique(edges[:, 0] << 32 | edges[:, 1], return_index=True)[1]]
    no_repeats = no_repeats[rng.permutation(len(no_repeats))]
    neither = no_repeats[no_repeats[:, 0] != no_repeats[:, 1]]
    with mock.patch.object(graph_module, "_CHUNK_ROWS", chunk):
        for case, loops, repeats in ((no_loops, False, True), (no_repeats, True, False), (neither, False, False)):
            got = build_graph(case, n)
            report = got.build_report
            assert (report.self_loops_dropped > 0, report.duplicate_edges_dropped > 0) == (loops, repeats)
            _assert_same_graph(got, lexsort_build_graph(case, n))


@settings(max_examples=300, deadline=None)
@given(messy_edges(), st.data())
def test_build_through_remap_matches_lexsort_oracle(case, data):
    # a remap onto fewer nodes is not one to one, so it makes self-loops and
    # duplicates of its own
    n, edges = case
    nodes = data.draw(st.integers(1, max(n, 1)))
    dtype = data.draw(st.sampled_from([np.int32, np.int64]))
    remap = np.array(data.draw(st.lists(st.integers(0, nodes - 1), min_size=n, max_size=n)), dtype=dtype)
    edges = np.array(edges, dtype=data.draw(st.sampled_from([np.int32, np.int64]))).reshape(-1, 2)
    with mock.patch.object(graph_module, "_CHUNK_ROWS", data.draw(st.sampled_from([1, 3, 1 << 16]))):
        got = build_graph(edges, nodes, remap=remap)
    _assert_same_graph(got, lexsort_build_graph(remap[edges], nodes))


@settings(max_examples=300, deadline=None)
@given(graphs_and_keeps())
def test_induced_subgraph_matches_rebuild_oracle(case):
    graph, keep = case
    sub, remap = induced_subgraph(graph, keep)
    want_sub, want_remap = rebuild_induced_subgraph(graph, keep)
    assert remap.dtype == want_remap.dtype
    assert np.array_equal(remap, want_remap)
    _assert_same_graph(sub, want_sub)


def _refuse_transpose(graph):
    raise AssertionError("the in-CSR was sorted again")


@settings(max_examples=200, deadline=None)
@given(graphs_and_keeps())
def test_lazy_in_csr_matches_oracle_and_subgraphs_agree(case):
    graph, keep = case
    n, edges = graph.node_count, graph.edge_array()
    _, in_indptr, in_indices = lexsort_build_graph(edges, n)
    read_first, unread = build_graph(edges, n), build_graph(edges, n)
    lazy = (read_first.in_indptr, read_first.in_indices, read_first.in_degrees)
    for got, want in zip(lazy, (in_indptr, in_indices, np.diff(in_indptr))):
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert not got.flags.writeable
    again = (read_first.in_indptr, read_first.in_indices, read_first.in_degrees)
    assert all(a is b for a, b in zip(lazy, again))
    # neither call sorts: the first restricts its parent's in-CSR, and the
    # second leaves the subgraph's to its own first read
    with mock.patch.object(graph_module, "_transpose", _refuse_transpose):
        sub_first, remap_first = induced_subgraph(read_first, keep)
        restricted = (sub_first.in_indptr, sub_first.in_indices)
        sub_lazy, remap_lazy = induced_subgraph(unread, keep)
    assert np.array_equal(remap_first, remap_lazy)
    for name in ("out_indptr", "out_indices", "out_degrees", "dangling_nodes", "in_degrees"):
        a, b = getattr(sub_first, name), getattr(sub_lazy, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for a, b in zip(restricted, (sub_lazy.in_indptr, sub_lazy.in_indices)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
        assert not a.flags.writeable


def test_large_random_graph_matches_lexsort_oracle():
    rng = np.random.default_rng(7)
    n = 5_000
    edges = rng.integers(0, n, size=(60_000, 2))
    edges[:500, 1] = edges[:500, 0]
    edges[500:2_000] = edges[2_000:3_500]
    graph = build_graph(edges, n)
    _assert_same_graph(graph, lexsort_build_graph(edges, n))
    keep = np.flatnonzero(rng.random(n) < 0.7)
    sub, remap = induced_subgraph(graph, keep)
    want_sub, want_remap = rebuild_induced_subgraph(graph, keep)
    assert np.array_equal(remap, want_remap)
    _assert_same_graph(sub, want_sub)


def test_max_node_count_is_largest_int32_index_and_keys_fit_int64():
    assert MAX_NODE_COUNT == np.iinfo(np.int32).max == 2_147_483_647
    # the largest key ``row << 32 | col``, and the row pointers' probe for row n
    assert (MAX_NODE_COUNT - 1) << 32 | (MAX_NODE_COUNT - 1) < 2**63
    assert MAX_NODE_COUNT << 32 < 2**63


def test_node_count_beyond_key_range_rejected_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(PatentFlowError, match="fit in int32"):
            build_graph([], MAX_NODE_COUNT + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
