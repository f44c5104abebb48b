import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_dataset
from patentflow import (
    CitationGraph,
    MalformedEdgeError,
    PatentFlowError,
    apply_exclusion,
    assignee_exclusion_set,
    build_graph,
    induced_subgraph,
)
from patentflow.graph import MAX_NODE_COUNT, GraphBuildReport, edge_index_array

CSR = ("out_indptr", "out_indices", "in_indptr", "in_indices")


@st.composite
def edge_lists(draw, max_nodes=25, max_edges=80):
    n = draw(st.integers(1, max_nodes))
    m = draw(st.integers(0, max_edges))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), min_size=m, max_size=m))
    return n, edges


def test_three_cycle():
    g = build_graph([(0, 1), (1, 2), (2, 0)], 3)
    assert g.node_count == 3
    assert g.edge_count == 3
    assert g.dangling_nodes.tolist() == []
    assert list(g.out_degrees) == [1, 1, 1]
    assert list(g.in_degrees) == [1, 1, 1]


def test_single_edge_dangling():
    g = build_graph([(0, 1)], 2)
    assert list(g.out_degrees) == [1, 0]
    assert list(g.in_degrees) == [0, 1]
    assert g.dangling_nodes.tolist() == [1]


def test_self_loop_and_duplicate_dropped():
    g = build_graph([(0, 1), (0, 1), (1, 1)], 2)
    assert g.edge_count == 1
    assert list(g.out_neighbors(0)) == [1]
    assert g.build_report.duplicate_edges_dropped == 1
    assert g.build_report.self_loops_dropped == 1
    assert g.build_report.edges_input == 3
    assert g.build_report.edges_stored == 1


def test_out_of_range_edge_rejected():
    with pytest.raises(MalformedEdgeError, match=r"\(1, 5\)"):
        build_graph([(0, 1), (1, 5)], 3)
    with pytest.raises(MalformedEdgeError):
        build_graph([(-1, 0)], 3)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("bad", ["-1", "min", "n", "max"])
@pytest.mark.parametrize("row, col", [(0, 0), (-1, 1)], ids=["first-row", "last-row"])
def test_out_of_range_index_rejected_at_either_end(dtype, bad, row, col):
    # the range check reads the indices unsigned, where a negative one is at
    # least 2**31, so one bound must catch both ends in either dtype
    value = {"-1": -1, "min": np.iinfo(dtype).min, "n": 4, "max": np.iinfo(dtype).max}[bad]
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 0]], dtype=dtype)
    edges[row, col] = value
    src, dst = edges[row].tolist()
    with pytest.raises(MalformedEdgeError, match=rf"^edge \({src}, {dst}\) out of range for node_count=4$"):
        build_graph(edges, 4)
    with pytest.raises(MalformedEdgeError, match=rf"^edge \({src}, {dst}\) out of range for node_count=4$"):
        build_graph(edges, 3, remap=np.array([0, 1, 2, 1], dtype=dtype))
    remap = np.array([0, 1, 2, 1], dtype=dtype)
    remap[row] = 3 if bad == "n" else value
    with pytest.raises(MalformedEdgeError, match=r"^remap holds a node index outside \[0, 3\)$"):
        build_graph(np.zeros((1, 2), dtype=dtype), 3, remap=remap)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: build_graph([], -1), "node_count must be non-negative, got -1"),
        (lambda: induced_subgraph(build_graph([(0, 1)], 2), [1, 2]),
         "keep set contains indices outside the graph"),
        (lambda: induced_subgraph(build_graph([(0, 1)], 2), [-1]),
         "keep set contains indices outside the graph"),
    ],
    ids=["negative-node-count", "keep-past-end", "negative-keep"],
)
def test_graph_errors(call, message):
    with pytest.raises(PatentFlowError, match=f"^{message}$"):
        call()


def _row_gather(indptr, indices, nodes):
    """The neighbours of ``nodes``, concatenated, by the shift gather of the
    ``CitationGraph.in_neighbors_of`` that ``adjacent`` replaced, in either
    CSR direction."""
    degrees = np.diff(indptr)[nodes]
    shift = np.repeat(indptr[nodes] - (np.cumsum(degrees) - degrees), degrees)
    shift += np.arange(shift.size)
    return indices[shift]


def _mask_of(nodes, n):
    mask = np.zeros(n, dtype=bool)
    mask[nodes] = True
    return mask


@st.composite
def graphs_and_masks(draw):
    n, edges = draw(edge_lists())
    return n, edges, draw(st.lists(st.booleans(), min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(graphs_and_masks())
@example((0, [], []))
@example((4, [(0, 1), (2, 1), (1, 3)], [False] * 4))  # an empty mask
@example((4, [(0, 1), (2, 1), (1, 3)], [True] * 4))  # an all-true mask
@example((5, [(0, 1), (1, 2)], [True, False, False, True, True]))  # nodes 3 and 4 have no edges
def test_adjacent_matches_the_gathers_it_replaced(case):
    n, edges, mask = case
    mask = np.array(mask, dtype=bool)
    g = build_graph(edges, n)
    stored = {(u, v) for u, v in edges if u != v}
    for citing, indptr, indices in ((True, g.in_indptr, g.in_indices),
                                    (False, g.out_indptr, g.out_indices)):
        got = g.adjacent(mask, citing=citing)
        assert got.dtype == bool and got.shape == (n,)
        assert np.array_equal(got, _mask_of(_row_gather(indptr, indices, np.flatnonzero(mask)), n))
        assert np.array_equal(got, _mask_of(indices[np.repeat(mask, np.diff(indptr))], n))
        want = {u for u, v in stored if mask[v]} if citing else {v for u, v in stored if mask[u]}
        assert set(np.flatnonzero(got).tolist()) == want


def test_neighbor_lists_sorted():
    g = build_graph([(0, 3), (0, 1), (0, 2), (2, 0), (1, 0)], 4)
    assert list(g.out_neighbors(0)) == [1, 2, 3]
    assert list(g.in_neighbors(0)) == [1, 2]


def test_graph_is_frozen():
    g = build_graph([(0, 1)], 2)
    with pytest.raises(ValueError):
        g.out_indices[0] = 0


def test_graph_fields_cannot_be_reassigned_or_written():
    full = build_graph([(0, 1), (1, 2), (2, 0), (0, 2)], 4)
    sub, _ = induced_subgraph(full, [0, 2, 3])
    for g, text in ((full, "CitationGraph(nodes=4, edges=4, dangling=1)"),
                    (sub, "CitationGraph(nodes=3, edges=2, dangling=1)")):
        assert repr(g) == text
        names = [f.name for f in dataclasses.fields(g)]
        assert names == ["node_count", "out_indptr", "out_indices", "build_report", "out_degrees",
                         "dangling_nodes"]
        # the in-CSR and in-degrees are properties, built on first read
        for name in [*names, "in_indptr", "in_indices", "in_degrees"]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(g, name, getattr(g, name))
            value = getattr(g, name)
            if isinstance(value, np.ndarray):
                with pytest.raises(ValueError, match="read-only"):
                    value[:1] = 0
        for name in ("node_count", "in_indptr"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(g, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.extra = 1
        # positional construction derives the same arrays and casts the node
        # count to int; equality stays identity
        again = CitationGraph(np.int64(g.node_count), g.out_indptr, g.out_indices, g.build_report)
        assert again != g and repr(again) == text and type(again.node_count) is int
        for name in ("out_degrees", "in_degrees", "dangling_nodes", "in_indptr", "in_indices"):
            assert np.array_equal(getattr(again, name), getattr(g, name))
    # the dangling node 3 of the full graph is index 2 of the subgraph
    assert sub.dangling_nodes.tolist() == [2]


@settings(max_examples=60, deadline=None)
@given(edge_lists())
def test_transpose_round_trip(case):
    # rebuilding from the flattened out-edge list reproduces the in-structure
    n, edges = case
    g = build_graph(edges, n)
    g2 = build_graph(g.edge_array(), n)
    assert np.array_equal(g.in_indptr, g2.in_indptr)
    assert np.array_equal(g.in_indices, g2.in_indices)
    assert np.array_equal(g.out_indptr, g2.out_indptr)
    assert np.array_equal(g.out_indices, g2.out_indices)


@settings(max_examples=60, deadline=None)
@given(edge_lists())
def test_degree_sums_and_transpose_consistency(case):
    n, edges = case
    g = build_graph(edges, n)
    assert int(g.out_degrees.sum()) == g.edge_count
    assert int(g.in_degrees.sum()) == g.edge_count
    # every stored edge appears exactly once in each direction
    fwd = sorted((int(u), int(v)) for u, v in g.edge_array())
    rev = sorted(
        (int(u), int(v))
        for v in range(n)
        for u in g.in_neighbors(v)
    )
    assert fwd == rev
    assert len(set(fwd)) == len(fwd)
    assert all(u != v for u, v in fwd)
    assert g.dangling_nodes.tolist() == [u for u in range(n) if int(g.out_degrees[u]) == 0]


def test_induced_subgraph_edge_filter():
    g = build_graph([(0, 1), (1, 2), (2, 0)], 3)
    sub, remap = induced_subgraph(g, {0, 1})
    assert sub.node_count == 2
    assert [tuple(e) for e in sub.edge_array()] == [(0, 1)]
    assert remap[0] == 0 and remap[1] == 1 and remap[2] == -1


def test_induced_subgraph_keep_all_is_identity():
    g = build_graph([(0, 1), (1, 2), (2, 0), (0, 2)], 3)
    sub, remap = induced_subgraph(g, range(3))
    assert np.array_equal(remap, np.arange(3))
    assert np.array_equal(sub.out_indices, g.out_indices)
    assert np.array_equal(sub.out_indptr, g.out_indptr)


def test_induced_subgraph_empty_keep():
    g = build_graph([(0, 1)], 2)
    sub, remap = induced_subgraph(g, [])
    assert sub.node_count == 0
    assert sub.edge_count == 0
    assert all(remap == -1)


def test_induced_subgraph_matches_brute_force_filter():
    # oracle: filter the raw edge list by membership, then remap
    rng = np.random.default_rng(42)
    n = 50
    edges = np.column_stack((rng.integers(0, n, 300), rng.integers(0, n, 300)))
    g = build_graph(edges, n)
    keep = sorted(rng.choice(n, size=25, replace=False).tolist())
    new_index = {old: new for new, old in enumerate(keep)}
    expected = sorted(
        {
            (new_index[int(u)], new_index[int(v)])
            for u, v in g.edge_array()
            if int(u) in new_index and int(v) in new_index
        }
    )
    sub, remap = induced_subgraph(g, keep)
    assert sorted((int(u), int(v)) for u, v in sub.edge_array()) == expected
    for old in range(n):
        assert remap[old] == new_index.get(old, -1)


@pytest.mark.parametrize(
    "edges",
    [[(0.7, 1.9)], np.array([[False, True]]), np.array([[0, 1]], dtype=object)],
    ids=["float", "bool", "object"],
)
def test_non_integer_edge_indices_rejected(edges):
    # a cast would silently store (0, 1)
    with pytest.raises(PatentFlowError, match="integer"):
        build_graph(edges, 3)


def test_empty_and_integer_edge_inputs_accepted():
    assert build_graph([], 3).edge_count == 0
    assert build_graph(np.array([[0, 1]], dtype=np.uint8), 3).edge_count == 1
    for dtype in (np.int64, np.int32):
        edges = np.array([[0, 1], [1, 2]], dtype=dtype)
        assert edge_index_array(edges, 3) is edges


def test_induced_subgraph_rejects_boolean_mask_and_floats():
    g = build_graph([(0, 1), (1, 2)], 3)
    for keep in (np.array([False, True, True]), [0.0, 1.0]):
        with pytest.raises(PatentFlowError, match="integer"):
            induced_subgraph(g, keep)
    for keep in ([], set(), range(0)):
        assert induced_subgraph(g, keep)[0].node_count == 0


def test_build_graph_through_remap_is_the_graph_of_the_remapped_edges():
    # the remap is not one to one: (2, 3) becomes the self-loop (1, 1)
    edges = np.array([[0, 1], [1, 2], [2, 0], [0, 0], [3, 1], [1, 2], [2, 3]])
    remap = np.array([2, 0, 1, 1])
    got, want = build_graph(edges, 3, remap=remap), build_graph(remap[edges], 3)
    for name in CSR:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.build_report == want.build_report
    with pytest.raises(MalformedEdgeError, match="remap"):
        build_graph(edges, 3, remap=np.array([0, 1, 3, 0]))
    with pytest.raises(MalformedEdgeError, match="out of range"):
        build_graph([[0, 4]], 3, remap=remap)
    with pytest.raises(PatentFlowError, match="integer"):
        build_graph(edges, 3, remap=np.array([0.0, 1.0, 2.0, 0.0]))


def test_int32_remap_keys_do_not_overflow():
    # an int32 row << 32 overflows for any row from 1, so the remapped rows
    # must be widened to int64 before the shift
    n = 2**16 + 3
    rng = np.random.default_rng(22)
    remap = rng.permutation(n).astype(np.int32)
    edges = rng.integers(0, n, size=(3_000, 2), dtype=np.int32)
    edges[:10] = edges[10:20]
    got = build_graph(edges, n, remap=remap)
    for want in (build_graph(remap[edges], n), build_graph(remap[edges].astype(np.int64), n)):
        for name in CSR:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.build_report == want.build_report
    pairs = {(u, v) for u, v in remap[edges].tolist() if u != v}
    assert list(map(tuple, got.edge_array().tolist())) == sorted(pairs)


def test_node_indices_are_int32_and_edge_offsets_int64():
    ds = random_dataset(3, n=200)
    built = [build_graph(e, 9) for e in ([(0, 1), (2, 1)], np.array([[3, 4]], dtype=np.int32),
                                         np.array([[5, 6]], dtype=np.uint8))]
    sub, remap = induced_subgraph(ds.graph, range(0, 200, 3))
    reduced, reduced_remap = apply_exclusion(ds, assignee_exclusion_set(ds, "acme"))
    assert remap.dtype == reduced_remap.dtype == np.int32
    for g in (*built, ds.graph, sub, reduced.graph):
        assert g.edge_count
        assert g.out_indices.dtype == g.in_indices.dtype == g.edge_sources().dtype == np.int32
        assert g.out_indptr.dtype == g.in_indptr.dtype == np.int64
    # a hand-built graph is stored in the same dtypes, copied only to get them
    g = build_graph([(0, 1), (2, 1)], 3)
    same = CitationGraph(3, g.out_indptr, g.out_indices, g.build_report)
    assert same.out_indptr is g.out_indptr and same.out_indices is g.out_indices
    cast = CitationGraph(3, g.out_indptr.astype(np.int32), g.out_indices.astype(np.int64), g.build_report)
    assert cast.out_indptr.dtype == np.int64 and cast.out_indices.dtype == np.int32
    assert np.array_equal(cast.out_indptr, g.out_indptr) and np.array_equal(cast.out_indices, g.out_indices)


@pytest.mark.parametrize(
    "node_count, indptr, indices, error",
    [
        (3, [0, 1, 1, 1], np.array([5], np.int32), MalformedEdgeError),  # past n
        (3, [0, 1, 1, 1], np.array([100_000_000], np.int32), MalformedEdgeError),  # far past n
        (3, [0, 1, 1, 1], np.array([-1], np.int32), MalformedEdgeError),  # negative
        (3, [0, 1, 1, 1], np.array([2**32 + 1], np.int64), MalformedEdgeError),  # 1 once cut to int32
        (-1, [0], [], PatentFlowError),  # negative node count
        (MAX_NODE_COUNT + 1, [0], [], PatentFlowError),  # node count past int32
        (3, [0, 1, 1], [1], PatentFlowError),  # a row pointer short
        (3, [0, 1, 1, 1, 1], [1], PatentFlowError),  # a row pointer too many
        (3, [-1, 0, 0, 1], [1], PatentFlowError),  # not from 0
        (3, [0, 1, 1, 3], [1], PatentFlowError),  # past the indices' end
        (3, [0, 1, 1, 1], [1, 2], PatentFlowError),  # short of the indices' end
        (3, [0, 2, 1, 2], [1, 2], PatentFlowError),  # decreasing
        (3, [0.0, 1.0, 1.0, 1.0], [1], PatentFlowError),  # float row pointers
        (3, [0, 1, 1, 1], [1.0], PatentFlowError),  # float indices
    ],
    ids=["index-past-n", "index-far-past-n", "negative-index", "index-past-int32", "negative-node-count",
         "node-count-past-int32", "short-indptr", "long-indptr", "indptr-not-from-0", "indptr-past-end",
         "indptr-short-of-end", "decreasing-indptr", "float-indptr", "float-indices"],
)
def test_malformed_hand_built_graph_is_refused(node_count, indptr, indices, error):
    # pagerank's scipy product reads these arrays with no bounds check; let
    # through, an index out of range or a row pointer below 0 crashed the
    # process, and the other forms ranked wrongly or failed in pagerank
    with pytest.raises(error) as raised:
        CitationGraph(node_count, np.asarray(indptr), np.asarray(indices), GraphBuildReport(1, 1, 0, 0))
    assert (raised.type is MalformedEdgeError) == (error is MalformedEdgeError)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_remap_that_is_not_one_to_one_builds_the_remapped_graph(dtype):
    # many indices share a node, so self-loops and duplicates appear only
    # after remapping, and they fall in several blocks of edges
    n, m = 1_000, 200_000
    rng = np.random.default_rng(35)
    remap = rng.integers(0, n, size=10 * n).astype(dtype)
    citing = rng.integers(0, 10 * n, size=m)
    edges = np.column_stack((citing, (citing + rng.integers(1, 10 * n, size=m)) % (10 * n))).astype(dtype)
    before = build_graph(edges, 10 * n).build_report
    got, want = build_graph(edges, n, remap=remap), build_graph(remap[edges], n)
    assert before.self_loops_dropped == 0 < got.build_report.self_loops_dropped
    assert before.duplicate_edges_dropped < got.build_report.duplicate_edges_dropped
    for name in CSR:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.build_report == want.build_report


# tracemalloc counts build_graph's own peak at 12.8 to 13.1 bytes per input
# edge on this input and at 12.8 on the 1M / 10M mem_sweep array, with or
# without a remap: the int64 keys, the int32 indices and the row pointers,
# with the per-block temporaries a larger share here. It was 17.0 while the
# remapped rows and columns sat beside the keys and the duplicate drop copied
# them, 19.4 while the build also sorted the in-CSR, 26.8 with int64 CSR
# indices, and 42.8 from int32 input. The graph it returns holds 5.6 bytes per
# stored edge (the out-CSR and its degrees); with the in-CSR built eagerly it
# held 11.2.
_BUILD_PEAK_BYTES_PER_EDGE = 14
_GRAPH_BYTES_PER_EDGE = 6


@pytest.mark.parametrize(
    "dtype, remap_dtype",
    [(np.int64, None), (np.int32, None), (np.int32, np.int32), (np.int64, np.int64)],
    ids=["int64", "int32", "int32-int32-remap", "int64-int64-remap"],
)
def test_build_graph_peak_memory_per_edge(dtype, remap_dtype):
    n, m = 100_000, 1_000_000
    rng = np.random.default_rng(9)
    edges = rng.integers(0, n, size=(m, 2)).astype(dtype)
    remap = None if remap_dtype is None else rng.permutation(n).astype(remap_dtype)
    tracemalloc.start()
    try:
        graph = build_graph(edges, n, remap=remap)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graph.edge_count > 0.99 * m
    assert peak < _BUILD_PEAK_BYTES_PER_EDGE * m
    assert retained < _GRAPH_BYTES_PER_EDGE * graph.edge_count
